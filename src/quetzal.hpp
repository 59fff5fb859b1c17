/**
 * @file
 * Umbrella header: include everything a downstream user of the
 * Quetzal library typically needs.
 *
 *   #include "quetzal.hpp"
 *
 *   quetzal::core::TaskSystem system;            // annotate tasks/jobs
 *   auto qz = quetzal::policy::makeController(  // the paper's system
 *       quetzal::policy::ControllerKind::Quetzal);
 *   quetzal::sim::ExperimentConfig cfg;          // or run experiments
 *   auto metrics = quetzal::sim::runExperiment(cfg);
 *
 * Individual module headers remain available for finer-grained
 * includes (see README "Architecture").
 */

#ifndef QUETZAL_QUETZAL_HPP
#define QUETZAL_QUETZAL_HPP

// Core programmer API (paper sections 3-5).
#include "core/ibo_engine.hpp"
#include "core/pid.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/service_time.hpp"
#include "core/system.hpp"

// Baseline and related-work policies, and the controller table
// (paper section 6.1).
#include "policy/registry.hpp"
#include "policy/rules.hpp"
#include "policy/zoo.hpp"

// Measurement hardware emulation (paper section 5.1).
#include "hw/mcu_model.hpp"
#include "hw/power_monitor_circuit.hpp"
#include "hw/ratio_engine.hpp"

// Environment and energy substrates.
#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "trace/event_generator.hpp"

// Applications and the experiment simulator (paper section 6).
#include "app/audio_monitor.hpp"
#include "app/person_detection.hpp"
#include "sim/ensemble.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"

#endif // QUETZAL_QUETZAL_HPP
