/**
 * @file
 * Tests for the 8-bit ADC model.
 */

#include <gtest/gtest.h>

#include "hw/adc.hpp"

namespace quetzal {
namespace hw {
namespace {

TEST(Adc8, FullScaleAndZero)
{
    Adc8 adc;
    EXPECT_EQ(adc.sample(0.0), 0);
    EXPECT_EQ(adc.sample(0.6), 255);
    EXPECT_EQ(adc.sample(10.0), 255); // saturates
    EXPECT_EQ(adc.sample(-1.0), 0);   // saturates
}

TEST(Adc8, LsbSize)
{
    Adc8 adc;
    EXPECT_NEAR(adc.lsbVolts(), 0.6 / 255.0, 1e-12);
}

TEST(Adc8, MidScaleRounds)
{
    Adc8 adc;
    const Volts half = 0.3;
    const auto code = adc.sample(half);
    EXPECT_NEAR(code, 127.5, 0.51);
}

TEST(Adc8, QuantizationErrorBounded)
{
    Adc8 adc;
    for (int i = 0; i <= 600; ++i) {
        const Volts v = i * 1e-3;
        const Volts reconstructed = adc.voltageForCode(adc.sample(v));
        EXPECT_NEAR(reconstructed, v, adc.lsbVolts() / 2.0 + 1e-12);
    }
}

TEST(Adc8, MonotoneInVoltage)
{
    Adc8 adc;
    std::uint8_t previous = 0;
    for (int i = 0; i <= 600; ++i) {
        const auto code = adc.sample(i * 1e-3);
        EXPECT_GE(code, previous);
        previous = code;
    }
}

TEST(Adc8DeathTest, InvalidConfigIsFatal)
{
    AdcConfig bad;
    bad.vRef = 0.0;
    EXPECT_EXIT(Adc8{bad}, ::testing::ExitedWithCode(1), "reference");
}

} // namespace
} // namespace hw
} // namespace quetzal
