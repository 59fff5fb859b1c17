/**
 * @file
 * Minimal JSON parser for scenario files (DESIGN.md section 10).
 *
 * Self-contained recursive-descent parser — no external dependency —
 * with the properties the scenario engine needs and a general JSON
 * library would not guarantee:
 *
 *  - numbers keep their raw source text, so 64-bit seeds round-trip
 *    exactly (no silent double conversion) and integers can be
 *    distinguished from fractions at validation time;
 *  - object members keep source order (deterministic diagnostics);
 *  - duplicate keys are a parse error, not last-one-wins;
 *  - errors carry line/column so a scenario author can find the
 *    offending byte.
 *
 * The grammar is standard JSON (RFC 8259) minus nothing: strings with
 * escapes (\uXXXX included), nested arrays/objects, exponents. The
 * parser never calls util::fatal() — malformed input is a value the
 * caller reports, because scenario files are user input.
 */

#ifndef QUETZAL_SCENARIO_JSON_HPP
#define QUETZAL_SCENARIO_JSON_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace quetzal {
namespace scenario {
namespace json {

/** A parsed JSON value (tree node). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** For Number: the raw source text. For String: decoded text. */
    std::string text;
    std::vector<Value> items;                            ///< Array
    std::vector<std::pair<std::string, Value>> members;  ///< Object

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** @name Checked scalar accessors
     *  Empty optional when the value's kind or range doesn't fit.
     *  Numbers parse from the raw text: asUint64 rejects
     *  fractions and exponents, asDouble accepts any JSON number.
     */
    /// @{
    std::optional<std::uint64_t> asUint64() const;
    std::optional<double> asDouble() const;
    std::optional<std::string> asString() const;
    /// @}

    /** Kind display name ("object", "number", ...). */
    static std::string kindName(Kind kind);
};

/** Parse failure location + message. */
struct ParseError
{
    int line = 0;    ///< 1-based
    int column = 0;  ///< 1-based
    std::string message;

    /** "line 3, column 14: trailing comma" */
    std::string describe() const;
};

/**
 * Parse a complete JSON document. Exactly one top-level value is
 * allowed (trailing whitespace ignored). On failure returns empty
 * and fills `error`.
 */
std::optional<Value> parse(const std::string &text, ParseError &error);

/** @name Construction helpers (for in-code front ends)
 *  makeNumber(uint64) keeps the exact decimal text; makeNumber(double)
 *  uses shortest-round-trip formatting.
 */
/// @{
Value makeString(std::string text);
Value makeNumber(std::uint64_t value);
Value makeNumber(double value);
Value makeBool(bool value);
/// @}

} // namespace json
} // namespace scenario
} // namespace quetzal

#endif // QUETZAL_SCENARIO_JSON_HPP
