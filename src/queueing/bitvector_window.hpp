/**
 * @file
 * Sliding bit-vector history window with a maintained ones-counter.
 *
 * The paper's software library (section 5.1) tracks task execution
 * probability and input-arrival rate with bit-vectors of size
 * <task-window> and <arrival-window>: a 1 records "task executed" /
 * "input stored", a 0 the opposite. A separate 1s-counter is updated
 * only on modification so reading a rate never scans the vector:
 * the fraction itself is divided out once per modification.
 */

#ifndef QUETZAL_QUEUEING_BITVECTOR_WINDOW_HPP
#define QUETZAL_QUEUEING_BITVECTOR_WINDOW_HPP

#include <cstdint>
#include <vector>

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace queueing {

/**
 * Fixed-size circular bit window.
 */
class BitVectorWindow
{
  public:
    /** Construct with a window size in bits (> 0). */
    explicit BitVectorWindow(std::uint32_t windowBits);

    /** Window capacity in bits. */
    std::uint32_t window() const { return windowBits; }

    /** Bits recorded so far, saturating at window(). */
    std::uint32_t filled() const { return filledBits; }

    /** Current number of 1s among the filled bits. */
    std::uint32_t ones() const { return onesCount; }

    /** True once the window has wrapped at least once. */
    bool warm() const { return filledBits == windowBits; }

    /**
     * Append one observation, evicting the oldest once the window is
     * full. O(1); maintains the ones-counter incrementally.
     */
    void append(bool bit);

    /**
     * Fraction of 1s among filled bits, as a double in [0, 1].
     * Returns fallback when nothing has been recorded yet.
     */
    double
    fraction(double fallback = 0.0) const
    {
        return filledBits == 0 ? fallback : onesFraction;
    }

    /**
     * Mutable internals for checkpoint/restore. The window size is
     * construction-time configuration, not state: exportState() fills
     * it so that a walk into an exported snapshot can check the bytes
     * against it, and it is never written.
     */
    struct State
    {
        std::uint32_t filledBits = 0;
        std::uint32_t onesCount = 0;
        std::uint32_t cursor = 0;
        std::vector<std::uint64_t> words;
        std::uint32_t windowBits = 0;

        /**
         * The wire layout: varint filledBits, onesCount, cursor, word
         * count, then the words as fixed64. Load rejects a word count
         * other than the window's and a cursor or fill level outside
         * it, either of which would index past the words.
         */
        void walk(util::wire::Archive &ar);
    };

    /** Snapshot the window contents (see State). */
    State exportState() const
    {
        return State{filledBits, onesCount, cursor, words, windowBits};
    }

    /**
     * Restore a snapshot taken against a window of the same size
     * (word count must match; callers validate the configuration).
     */
    void importState(const State &snapshot)
    {
        filledBits = snapshot.filledBits;
        onesCount = snapshot.onesCount;
        cursor = snapshot.cursor;
        words = snapshot.words;
        updateFraction();
    }

  private:
    std::uint32_t windowBits;
    std::uint32_t filledBits = 0;
    std::uint32_t onesCount = 0;
    std::uint32_t cursor = 0;
    std::vector<std::uint64_t> words;
    /** onesCount / filledBits, divided once per modification rather
     *  than per read; derived, so not part of State. */
    double onesFraction = 0.0;

    void updateFraction();

    bool getBit(std::uint32_t index) const;
    void setBit(std::uint32_t index, bool bit);
};

} // namespace queueing
} // namespace quetzal

#endif // QUETZAL_QUEUEING_BITVECTOR_WINDOW_HPP
