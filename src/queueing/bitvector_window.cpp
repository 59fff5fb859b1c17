#include "queueing/bitvector_window.hpp"

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace queueing {

BitVectorWindow::BitVectorWindow(std::uint32_t windowBits_)
    : windowBits(windowBits_), words((windowBits_ + 63) / 64, 0)
{
    if (windowBits == 0)
        util::fatal("bit-vector window size must be positive");
}

bool
BitVectorWindow::getBit(std::uint32_t index) const
{
    return (words[index / 64] >> (index % 64)) & 1u;
}

void
BitVectorWindow::setBit(std::uint32_t index, bool bit)
{
    const std::uint64_t mask = std::uint64_t{1} << (index % 64);
    if (bit)
        words[index / 64] |= mask;
    else
        words[index / 64] &= ~mask;
}

void
BitVectorWindow::append(bool bit)
{
    if (filledBits == windowBits) {
        // Evict the bit the cursor is about to overwrite.
        if (getBit(cursor))
            --onesCount;
    } else {
        ++filledBits;
    }
    setBit(cursor, bit);
    if (bit)
        ++onesCount;
    cursor = (cursor + 1) % windowBits;
    updateFraction();
}

void
BitVectorWindow::updateFraction()
{
    if (filledBits != 0)
        onesFraction = static_cast<double>(onesCount) /
            static_cast<double>(filledBits);
}

void
BitVectorWindow::State::walk(util::wire::Archive &ar)
{
    ar.varint(filledBits);
    ar.varint(onesCount);
    ar.varint(cursor);
    ar.check(ar.count(words.size()) == words.size());
    for (std::uint64_t &word : words)
        ar.fixed64(word);
    ar.check(cursor < windowBits && filledBits <= windowBits);
}

} // namespace queueing
} // namespace quetzal
