/**
 * @file
 * Tests for the sliding bit-vector window with 1s-counter.
 */

#include <deque>

#include <gtest/gtest.h>

#include "queueing/bitvector_window.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace queueing {
namespace {

TEST(BitVectorWindow, EmptyState)
{
    BitVectorWindow window(64);
    EXPECT_EQ(window.window(), 64u);
    EXPECT_EQ(window.filled(), 0u);
    EXPECT_EQ(window.ones(), 0u);
    EXPECT_FALSE(window.warm());
    EXPECT_EQ(window.fraction(0.5), 0.5); // fallback
}

TEST(BitVectorWindow, CountsDuringWarmup)
{
    BitVectorWindow window(8);
    window.append(true);
    window.append(false);
    window.append(true);
    EXPECT_EQ(window.filled(), 3u);
    EXPECT_EQ(window.ones(), 2u);
    EXPECT_NEAR(window.fraction(), 2.0 / 3.0, 1e-12);
}

TEST(BitVectorWindow, EvictsOldestWhenFull)
{
    BitVectorWindow window(4);
    for (bool b : {true, true, false, false})
        window.append(b);
    EXPECT_TRUE(window.warm());
    EXPECT_EQ(window.ones(), 2u);
    // Append two zeros: evicts the two leading ones.
    window.append(false);
    window.append(false);
    EXPECT_EQ(window.ones(), 0u);
    // Append four ones: fully saturated.
    for (int i = 0; i < 4; ++i)
        window.append(true);
    EXPECT_EQ(window.ones(), 4u);
    EXPECT_DOUBLE_EQ(window.fraction(), 1.0);
}

/** Property: window agrees with a deque reference for many shapes. */
class BitWindowProperty
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BitWindowProperty, AgreesWithDequeModel)
{
    const std::uint32_t windowBits = GetParam();
    BitVectorWindow window(windowBits);
    std::deque<bool> model;
    util::Rng rng(windowBits * 977 + 5);
    for (int i = 0; i < 3000; ++i) {
        const bool bit = rng.bernoulli(0.4);
        window.append(bit);
        model.push_back(bit);
        if (model.size() > windowBits)
            model.pop_front();
        std::uint32_t ones = 0;
        for (bool b : model)
            ones += b;
        ASSERT_EQ(window.ones(), ones);
        ASSERT_EQ(window.filled(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(WindowShapes, BitWindowProperty,
                         ::testing::Values(1, 2, 3, 7, 8, 63, 64, 65,
                                           100, 256));

} // namespace
} // namespace queueing
} // namespace quetzal
