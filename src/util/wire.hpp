/**
 * @file
 * Byte-level wire primitives shared by the binary trace format
 * (obs/btrace.hpp) and the simulator checkpoint archive
 * (sim/checkpoint.hpp): LEB128 varints, zigzag signed mapping,
 * little-endian fixed-width scalars, bit-exact doubles, and CRC32,
 * plus the two-way Archive that checkpointed state walks through.
 *
 * Everything here is a pure function of its inputs — no locale, no
 * platform formatting, no pointer values — so wire bytes are
 * identical across runs, thread counts and hosts. Doubles travel as
 * their raw IEEE-754 bit pattern (fixed64), which round-trips
 * exactly where decimal formatting would have to prove shortest-
 * round-trip properties.
 */

#ifndef QUETZAL_UTIL_WIRE_HPP
#define QUETZAL_UTIL_WIRE_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define QUETZAL_WIRE_X86_CRC 1
#endif

namespace quetzal {
namespace util {
namespace wire {

/**
 * @name CRC-32C (Castagnoli, reflected, poly 0x82F63B78)
 *
 * The checksum behind btrace chunks and checkpoint archives. The
 * Castagnoli polynomial (not IEEE 802.3) because x86 carries it in
 * silicon (SSE4.2 crc32); the software slice-by-8 fallback produces
 * bit-identical values, so wire bytes never depend on the host.
 */
/// @{
namespace detail {
constexpr std::uint32_t
crcEntry(std::uint32_t index)
{
    std::uint32_t crc = index;
    for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    return crc;
}

/**
 * Slice-by-8 tables: table[t][b] is the CRC contribution of byte b
 * seen t+1 positions before the end of an 8-byte block, so eight
 * lookups advance the CRC a full 8 bytes per iteration (~8x the
 * classic one-table byte loop on chunk-sized payloads).
 */
struct CrcTable
{
    std::uint32_t entry[8][256] = {};
    constexpr CrcTable()
    {
        for (std::uint32_t i = 0; i < 256; ++i)
            entry[0][i] = crcEntry(i);
        for (std::size_t t = 1; t < 8; ++t) {
            for (std::uint32_t i = 0; i < 256; ++i)
                entry[t][i] = (entry[t - 1][i] >> 8) ^
                    entry[0][entry[t - 1][i] & 0xFFu];
        }
    }
};

inline constexpr CrcTable kCrcTable{};

/** Advance a raw (pre-finalization) CRC state over `size` bytes. */
inline std::uint32_t
crc32cSoftware(std::uint32_t crc, const unsigned char *bytes,
               std::size_t size)
{
    const auto &table = kCrcTable.entry;
    // Explicit little-endian assembly keeps the result
    // byte-order-independent; the compiler folds it to two loads on
    // little-endian hosts.
    while (size >= 8) {
        const std::uint32_t lo = crc ^
            (static_cast<std::uint32_t>(bytes[0]) |
             static_cast<std::uint32_t>(bytes[1]) << 8 |
             static_cast<std::uint32_t>(bytes[2]) << 16 |
             static_cast<std::uint32_t>(bytes[3]) << 24);
        const std::uint32_t hi =
            static_cast<std::uint32_t>(bytes[4]) |
            static_cast<std::uint32_t>(bytes[5]) << 8 |
            static_cast<std::uint32_t>(bytes[6]) << 16 |
            static_cast<std::uint32_t>(bytes[7]) << 24;
        crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
            table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
            table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
            table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
        bytes += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = (crc >> 8) ^ table[0][(crc ^ bytes[i]) & 0xFFu];
    return crc;
}

#ifdef QUETZAL_WIRE_X86_CRC
[[gnu::target("sse4.2")]] inline std::uint32_t
crc32cHardware(std::uint32_t crc, const unsigned char *bytes,
               std::size_t size)
{
    std::uint64_t wide = crc;
    while (size >= 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes, 8);
        wide = _mm_crc32_u64(wide, word);
        bytes += 8;
        size -= 8;
    }
    crc = static_cast<std::uint32_t>(wide);
    while (size-- > 0)
        crc = _mm_crc32_u8(crc, *bytes++);
    return crc;
}

inline bool
crc32cHaveHardware()
{
    static const bool have = __builtin_cpu_supports("sse4.2");
    return have;
}
#endif

inline std::uint32_t
crc32cUpdate(std::uint32_t crc, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
#ifdef QUETZAL_WIRE_X86_CRC
    if (crc32cHaveHardware())
        return crc32cHardware(crc, bytes, size);
#endif
    return crc32cSoftware(crc, bytes, size);
}
} // namespace detail

/** CRC-32C of a byte range. */
inline std::uint32_t
crc32(const void *data, std::size_t size)
{
    return detail::crc32cUpdate(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

inline std::uint32_t
crc32(const std::string &bytes)
{
    return crc32(bytes.data(), bytes.size());
}

/** FNV-1a 64 of a byte string: the configuration fingerprints. */
inline std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Incremental CRC-32C, for checksums spanning several buffers. */
class Crc32
{
  public:
    void
    update(const void *data, std::size_t size)
    {
        state = detail::crc32cUpdate(state, data, size);
    }

    std::uint32_t value() const { return state ^ 0xFFFFFFFFu; }

  private:
    std::uint32_t state = 0xFFFFFFFFu;
};
/// @}

/** @name Encoders (append to a byte string) */
/// @{
inline void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80u) {
        out.push_back(static_cast<char>((value & 0x7Fu) | 0x80u));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

/** Zigzag-map a signed value so small magnitudes stay small. */
constexpr std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
        static_cast<std::uint64_t>(value >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
        -static_cast<std::int64_t>(value & 1u);
}

inline void
putZigzag(std::string &out, std::int64_t value)
{
    putVarint(out, zigzag(value));
}

inline void
putFixed32(std::string &out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xFFu));
}

inline void
putFixed64(std::string &out, std::uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xFFu));
}

/** Bit-exact double: raw IEEE-754 pattern as fixed64. */
inline void
putDouble(std::string &out, double value)
{
    putFixed64(out, std::bit_cast<std::uint64_t>(value));
}

/** Length-prefixed byte string. */
inline void
putBytes(std::string &out, const std::string &bytes)
{
    putVarint(out, bytes.size());
    out.append(bytes);
}
/// @}

/**
 * @name Raw encoders (append through a char pointer)
 * Hot-path variants for fixed-bound records: encode into a stack
 * buffer with raw stores, then append the record to the output
 * string in one call, instead of paying a capacity check per byte.
 * Every function returns the advanced cursor; the caller guarantees
 * the buffer holds the worst case (10 bytes per varint, 8 per
 * fixed64). Byte-for-byte identical to the string encoders above.
 */
/// @{
inline char *
putVarintRaw(char *out, std::uint64_t value)
{
    // One- and two-byte values dominate real streams (field masks
    // drop zeros, ticks are delta-coded); peel those iterations so
    // the common cases are straight-line code.
    if (value < 0x80u) {
        *out++ = static_cast<char>(value);
        return out;
    }
    *out++ = static_cast<char>((value & 0x7Fu) | 0x80u);
    value >>= 7;
    if (value < 0x80u) {
        *out++ = static_cast<char>(value);
        return out;
    }
    *out++ = static_cast<char>((value & 0x7Fu) | 0x80u);
    value >>= 7;
    while (value >= 0x80u) {
        *out++ = static_cast<char>((value & 0x7Fu) | 0x80u);
        value >>= 7;
    }
    *out++ = static_cast<char>(value);
    return out;
}

inline char *
putZigzagRaw(char *out, std::int64_t value)
{
    return putVarintRaw(out, zigzag(value));
}

inline char *
putFixed64Raw(char *out, std::uint64_t value)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &value, sizeof value);
        return out + sizeof value;
    } else {
        for (int shift = 0; shift < 64; shift += 8)
            *out++ = static_cast<char>((value >> shift) & 0xFFu);
        return out;
    }
}

inline char *
putDoubleRaw(char *out, double value)
{
    return putFixed64Raw(out, std::bit_cast<std::uint64_t>(value));
}
/// @}

/**
 * Bounds-checked decoder over a byte range. Every get* returns false
 * (and leaves the cursor unspecified) on truncation or malformed
 * input instead of trapping, so readers can turn corruption into a
 * clean diagnostic naming the file and offset.
 */
class Reader
{
  public:
    Reader(const void *data, std::size_t size)
        : cursor(static_cast<const unsigned char *>(data)),
          limit(cursor + size)
    {
    }

    explicit Reader(const std::string &bytes)
        : Reader(bytes.data(), bytes.size())
    {
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(limit - cursor);
    }

    bool atEnd() const { return cursor == limit; }

    bool
    getByte(std::uint8_t &value)
    {
        if (cursor == limit)
            return false;
        value = *cursor++;
        return true;
    }

    bool
    getVarint(std::uint64_t &value)
    {
        value = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (cursor == limit)
                return false;
            const unsigned char byte = *cursor++;
            value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
            if ((byte & 0x80u) == 0)
                return shift < 63 || (byte >> 1) == 0;
        }
        return false;
    }

    bool
    getZigzag(std::int64_t &value)
    {
        std::uint64_t raw = 0;
        if (!getVarint(raw))
            return false;
        value = unzigzag(raw);
        return true;
    }

    bool
    getFixed32(std::uint32_t &value)
    {
        if (remaining() < 4)
            return false;
        std::uint32_t out = 0;
        for (int shift = 0; shift < 32; shift += 8)
            out |= static_cast<std::uint32_t>(*cursor++) << shift;
        value = out;
        return true;
    }

    bool
    getFixed64(std::uint64_t &value)
    {
        if (remaining() < 8)
            return false;
        std::uint64_t out = 0;
        for (int shift = 0; shift < 64; shift += 8)
            out |= static_cast<std::uint64_t>(*cursor++) << shift;
        value = out;
        return true;
    }

    bool
    getDouble(double &value)
    {
        std::uint64_t bits = 0;
        if (!getFixed64(bits))
            return false;
        value = std::bit_cast<double>(bits);
        return true;
    }

    bool
    getBytes(std::string &bytes)
    {
        Reader slice(nullptr, 0);
        if (!getSlice(slice))
            return false;
        bytes.assign(reinterpret_cast<const char *>(slice.cursor),
                     slice.remaining());
        return true;
    }

    /** Length-prefixed byte string as a reader over it (no copy). */
    bool
    getSlice(Reader &slice)
    {
        std::uint64_t size = 0;
        if (!getVarint(size) || size > remaining())
            return false;
        slice = Reader(cursor, static_cast<std::size_t>(size));
        cursor += size;
        return true;
    }

  private:
    const unsigned char *cursor;
    const unsigned char *limit;
};

/**
 * One field list for both directions of a state codec. An Archive is
 * fixed at construction to save (every field op appends its argument
 * to a string) or to load (every field op reads into its argument),
 * so a state struct states its wire layout once, as a walk over its
 * fields, and the same walk writes and reads it.
 *
 * Loading never traps. A short read, a value out of the argument's
 * range or a failed check() latches the first failure together with
 * the section label in force; every later op leaves its argument
 * alone and count() returns 0, so walks need no early exits. Owners
 * walk a snapshot of their state (exported from the live object, so
 * configuration such as window sizes arrives pre-set for the checks)
 * and apply it only once loaded() holds, so a restore parses all of
 * its bytes before it mutates anything.
 */
class Archive
{
  public:
    /** Save mode: every field op appends to `sink`. */
    explicit Archive(std::string &sink) : out(&sink), in(nullptr, 0) {}

    /** Load mode: every field op reads from `source`. */
    explicit Archive(const Reader &source) : in(source) {}

    bool saving() const { return out != nullptr; }
    bool loading() const { return out == nullptr; }

    /** False once a load failed. */
    bool ok() const { return !failed; }

    /** Section label of the first failure (meaningful once !ok()). */
    const char *failure() const { return failedSection; }

    /** Every input byte consumed (always true when saving). */
    bool atEnd() const { return in.atEnd(); }

    /** Load mode, no failure and no trailing bytes: time to apply. */
    bool loaded() const { return loading() && ok() && atEnd(); }

    /** Name the section that later failures are reported under. */
    void section(const char *label) { current = label; }

    /** On load, fail unless `condition` holds (range and config
     *  checks); a no-op when saving. */
    void
    check(bool condition)
    {
        if (!condition && loading())
            fail();
    }

    /** Non-negative integer as a plain varint; load rejects values
     *  the argument's type cannot hold. */
    template <typename Int>
    void
    varint(Int &value)
    {
        static_assert(std::is_integral_v<Int> &&
                      !std::is_same_v<Int, bool>);
        if (saving()) {
            putVarint(*out, static_cast<std::uint64_t>(value));
            return;
        }
        std::uint64_t raw = 0;
        if (!ok() || !in.getVarint(raw))
            return fail();
        if (raw > static_cast<std::uint64_t>(
                      std::numeric_limits<Int>::max()))
            return fail();
        value = static_cast<Int>(raw);
    }

    void
    zigzag(std::int64_t &value)
    {
        if (saving())
            putZigzag(*out, value);
        else if (ok() && !in.getZigzag(value))
            fail();
    }

    void
    fixed32(std::uint32_t &value)
    {
        if (saving())
            putFixed32(*out, value);
        else if (ok() && !in.getFixed32(value))
            fail();
    }

    void
    fixed64(std::uint64_t &value)
    {
        if (saving())
            putFixed64(*out, value);
        else if (ok() && !in.getFixed64(value))
            fail();
    }

    /** Bit-exact double. */
    void
    real(double &value)
    {
        if (saving())
            putDouble(*out, value);
        else if (ok() && !in.getDouble(value))
            fail();
    }

    void
    byte(std::uint8_t &value)
    {
        if (saving())
            out->push_back(static_cast<char>(value));
        else if (ok() && !in.getByte(value))
            fail();
    }

    /** One byte, 0 or 1; load rejects anything else. */
    void
    flag(bool &value)
    {
        std::uint8_t raw = value ? 1 : 0;
        byte(raw);
        check(raw <= 1);
        if (loading() && ok())
            value = raw != 0;
    }

    /** An enum as one byte; load rejects values >= `count`. */
    template <typename Enum>
    void
    enumeration(Enum &value, std::size_t count)
    {
        std::uint8_t raw = static_cast<std::uint8_t>(value);
        byte(raw);
        check(raw < count);
        if (loading() && ok())
            value = static_cast<Enum>(raw);
    }

    /** Length-prefixed byte string. */
    void
    bytes(std::string &value)
    {
        if (saving())
            putBytes(*out, value);
        else if (ok() && !in.getBytes(value))
            fail();
    }

    /**
     * Element count of a container: writes `size`, or reads a count
     * no larger than the bytes left (every element costs at least one
     * byte, so a corrupt count cannot drive a huge allocation).
     * Returns the count to size the container with; 0 after a
     * failure.
     */
    std::size_t
    count(std::size_t size)
    {
        std::uint64_t raw = size;
        varint(raw);
        check(raw <= in.remaining());
        return ok() ? static_cast<std::size_t>(raw) : 0;
    }

    /**
     * A length-prefixed sub-blob walked by `walk(Archive &)`. The
     * prefix lets a walk that reads short or long be caught here
     * rather than corrupt the fields after it: load fails unless the
     * nested walk consumed exactly its bytes. A failure inside the
     * walk is reported under the walk's own section, or under the
     * caller's when the walk names none.
     */
    template <typename Walk>
    void
    nested(Walk &&walk)
    {
        if (saving()) {
            std::string blob;
            Archive sub(blob);
            walk(sub);
            putBytes(*out, blob);
            return;
        }
        Reader slice(nullptr, 0);
        if (!ok() || !in.getSlice(slice))
            return fail();
        Archive sub(slice);
        sub.current = current;
        walk(sub);
        if (!sub.ok())
            current = sub.failedSection;
        check(sub.loaded());
    }

  private:
    void
    fail()
    {
        if (!failed) {
            failed = true;
            failedSection = current;
        }
    }

    std::string *out = nullptr;
    Reader in;
    const char *current = "state";
    const char *failedSection = "";
    bool failed = false;
};

} // namespace wire
} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_WIRE_HPP
