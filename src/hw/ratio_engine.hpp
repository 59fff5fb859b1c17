/**
 * @file
 * Division-free end-to-end service-time arithmetic (paper Alg. 3).
 *
 * Equation (1) needs t_exe * P_exe / P_in whenever P_exe >= P_in.
 * With both powers encoded as diode-voltage ADC codes (see
 * hw::PowerMonitorCircuit), the current ratio is
 *
 *     I_exe / I_in = 2^(c * (V_D2 - V_D1))
 *
 * and V_ADCMax = 0.6 V makes the per-code coefficient c very nearly
 * 1/8 for junction temperatures between 25 and 50 C. Splitting the
 * exponent delta/8 into integer part a = delta >> 3 and fractional
 * part b = delta & 0x07, the engine computes
 *
 *     S_e2e = premult[b] << a,   premult[k] = round(t_exe * 2^(k/8))
 *
 * i.e. one subtraction, one 3-bit table lookup, two shifts and no
 * division. The premult table is filled once at profile time.
 *
 * Note: the paper's Algorithm 3 listing masks with 0x03; eight
 * fractional values need three bits, so the mask must be 0x07 — we
 * implement the mathematics of section 5.1 (a typo in the listing).
 */

#ifndef QUETZAL_HW_RATIO_ENGINE_HPP
#define QUETZAL_HW_RATIO_ENGINE_HPP

#include <array>
#include <cstdint>

#include "util/types.hpp"

namespace quetzal {
namespace hw {

/**
 * Profile-time record for one task (or one degradation option): its
 * execution-power ADC code and the pre-multiplied latency table.
 * sizeof == 8 entries * 4 B + 4 B + pad: small enough that 32 tasks
 * with 4 options each stay within the paper's 2,360 B budget when
 * narrowed to on-device integer widths (see McuModel::footprintBytes).
 */
struct TaskPowerProfile
{
    std::array<std::uint32_t, 8> premultTicks{}; ///< t_exe * 2^(k/8)
    std::uint32_t exeTicks = 0;  ///< raw t_exe (== premultTicks[0])
    std::uint8_t execCode = 0;   ///< V_D2: ADC code of P_exe
};

/**
 * Stateless arithmetic engine. All hot-path entry points use only
 * integer subtraction, masking, shifting and table lookups, mirroring
 * what runs on the MCU.
 */
class RatioEngine
{
  public:
    /**
     * Build a task profile at profile time (divisions are allowed
     * here; this happens once, off the hot path).
     * @param exeTicks task latency t_exe in ticks (> 0)
     * @param execCode ADC code of the task's execution power
     */
    static TaskPowerProfile makeProfile(Tick exeTicks,
                                        std::uint8_t execCode);

    /**
     * Algorithm 3: end-to-end service time in ticks for the given
     * input-power code. Compute-bound tasks (inputCode >= execCode)
     * return t_exe; energy-bound tasks return t_exe * 2^(delta/8)
     * via the premultiplied table. Saturates at kTickNever on shift
     * overflow (astronomically low input power).
     */
    static Tick serviceTicks(const TaskPowerProfile &profile,
                             std::uint8_t inputCode);

    /**
     * The power ratio the engine's arithmetic implies for a code
     * difference: 2^(delta/8) evaluated exactly. Only tests call it:
     * it is the reference serviceTicks()' shift/lookup arithmetic is
     * checked against for every delta.
     */
    static double impliedRatio(std::uint8_t delta);

    /**
     * Reference model of Eq. (1): max(t_exe, t_exe * pExe / pIn) in
     * seconds, using exact floating-point arithmetic.
     */
    static double exactServiceSeconds(double exeSeconds, Watts pExe,
                                      Watts pIn);
};

} // namespace hw
} // namespace quetzal

#endif // QUETZAL_HW_RATIO_ENGINE_HPP
