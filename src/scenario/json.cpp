#include "scenario/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace quetzal {
namespace scenario {
namespace json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::optional<std::uint64_t>
Value::asUint64() const
{
    if (kind != Kind::Number || text.empty() || text[0] == '-')
        return std::nullopt;
    std::uint64_t parsed = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, parsed);
    if (ec != std::errc() || ptr != end) // fraction/exponent tail
        return std::nullopt;
    return parsed;
}

std::optional<double>
Value::asDouble() const
{
    if (kind != Kind::Number || text.empty())
        return std::nullopt;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(parsed))
        return std::nullopt;
    return parsed;
}

std::optional<std::string>
Value::asString() const
{
    if (kind != Kind::String)
        return std::nullopt;
    return text;
}

std::string
Value::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

std::string
ParseError::describe() const
{
    return "line " + std::to_string(line) + ", column " +
        std::to_string(column) + ": " + message;
}

namespace {

/** Recursive-descent parser over the whole document string. */
class Parser
{
  public:
    Parser(const std::string &text, ParseError &error)
        : src(text), err(error)
    {
    }

    std::optional<Value> document()
    {
        skipWhitespace();
        Value value;
        if (!parseValue(value, 0))
            return std::nullopt;
        skipWhitespace();
        if (pos != src.size())
            return fail("trailing content after JSON value");
        return value;
    }

  private:
    static constexpr int kMaxDepth = 64;

    const std::string &src;
    ParseError &err;
    std::size_t pos = 0;
    int line = 1;
    int column = 1;

    std::nullopt_t fail(const std::string &message)
    {
        // Keep the first failure; nested productions bubble up.
        if (err.message.empty()) {
            err.line = line;
            err.column = column;
            err.message = message;
        }
        return std::nullopt;
    }

    bool failValue(const std::string &message)
    {
        fail(message);
        return false;
    }

    char peek() const { return pos < src.size() ? src[pos] : '\0'; }

    char advance()
    {
        const char c = src[pos++];
        if (c == '\n') {
            ++line;
            column = 1;
        } else {
            ++column;
        }
        return c;
    }

    void skipWhitespace()
    {
        while (pos < src.size()) {
            const char c = src[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            advance();
        }
    }

    bool expect(char wanted, const char *what)
    {
        if (peek() != wanted)
            return failValue(std::string("expected ") + what);
        advance();
        return true;
    }

    bool parseValue(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return failValue("nesting too deep");
        skipWhitespace();
        if (pos >= src.size())
            return failValue("unexpected end of input");
        const char c = peek();
        switch (c) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"': return parseString(out);
          case 't':
          case 'f': return parseBool(out);
          case 'n': return parseNull(out);
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber(out);
            return failValue(std::string("unexpected character '") + c +
                             "'");
        }
    }

    bool parseLiteral(const char *literal)
    {
        for (const char *p = literal; *p; ++p) {
            if (peek() != *p)
                return failValue(std::string("bad literal (expected ") +
                                 literal + ")");
            advance();
        }
        return true;
    }

    bool parseNull(Value &out)
    {
        if (!parseLiteral("null"))
            return false;
        out.kind = Value::Kind::Null;
        return true;
    }

    bool parseBool(Value &out)
    {
        const bool truth = peek() == 't';
        if (!parseLiteral(truth ? "true" : "false"))
            return false;
        out.kind = Value::Kind::Bool;
        out.boolean = truth;
        return true;
    }

    bool parseNumber(Value &out)
    {
        const std::size_t start = pos;
        if (peek() == '-')
            advance();
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return failValue("bad number");
        // No leading zeros: "0" or [1-9][0-9]*.
        if (peek() == '0') {
            advance();
            if (std::isdigit(static_cast<unsigned char>(peek())))
                return failValue("leading zero in number");
        } else {
            while (std::isdigit(static_cast<unsigned char>(peek())))
                advance();
        }
        if (peek() == '.') {
            advance();
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return failValue("digit required after decimal point");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                advance();
        }
        if (peek() == 'e' || peek() == 'E') {
            advance();
            if (peek() == '+' || peek() == '-')
                advance();
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return failValue("digit required in exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                advance();
        }
        out.kind = Value::Kind::Number;
        out.text = src.substr(start, pos - start);
        return true;
    }

    bool parseHex4(unsigned &out)
    {
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            unsigned digit = 0;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<unsigned>(c - 'A' + 10);
            else
                return failValue("bad \\u escape");
            advance();
            out = out * 16 + digit;
        }
        return true;
    }

    static void appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    bool parseStringText(std::string &out)
    {
        if (!expect('"', "string"))
            return false;
        out.clear();
        while (true) {
            if (pos >= src.size())
                return failValue("unterminated string");
            const char c = advance();
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return failValue("control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= src.size())
                return failValue("unterminated escape");
            const char esc = advance();
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = 0;
                if (!parseHex4(code))
                    return false;
                // Surrogate pair -> one code point.
                if (code >= 0xd800 && code <= 0xdbff) {
                    if (peek() != '\\')
                        return failValue("lone high surrogate");
                    advance();
                    if (peek() != 'u')
                        return failValue("lone high surrogate");
                    advance();
                    unsigned low = 0;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xdc00 || low > 0xdfff)
                        return failValue("bad low surrogate");
                    code = 0x10000 + ((code - 0xd800) << 10) +
                        (low - 0xdc00);
                } else if (code >= 0xdc00 && code <= 0xdfff) {
                    return failValue("lone low surrogate");
                }
                appendUtf8(out, code);
                break;
              }
              default:
                return failValue(std::string("bad escape '\\") + esc +
                                 "'");
            }
        }
    }

    bool parseString(Value &out)
    {
        out.kind = Value::Kind::String;
        return parseStringText(out.text);
    }

    bool parseArray(Value &out, int depth)
    {
        advance(); // '['
        out.kind = Value::Kind::Array;
        skipWhitespace();
        if (peek() == ']') {
            advance();
            return true;
        }
        while (true) {
            Value item;
            if (!parseValue(item, depth + 1))
                return false;
            out.items.push_back(std::move(item));
            skipWhitespace();
            if (peek() == ',') {
                advance();
                skipWhitespace();
                if (peek() == ']')
                    return failValue("trailing comma in array");
                continue;
            }
            return expect(']', "',' or ']'");
        }
    }

    bool parseObject(Value &out, int depth)
    {
        advance(); // '{'
        out.kind = Value::Kind::Object;
        skipWhitespace();
        if (peek() == '}') {
            advance();
            return true;
        }
        while (true) {
            skipWhitespace();
            std::string key;
            if (!parseStringText(key))
                return false;
            for (const auto &[existing, unused] : out.members) {
                (void)unused;
                if (existing == key)
                    return failValue("duplicate key \"" + key + "\"");
            }
            skipWhitespace();
            if (!expect(':', "':'"))
                return false;
            Value value;
            if (!parseValue(value, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (peek() == ',') {
                advance();
                skipWhitespace();
                if (peek() == '}')
                    return failValue("trailing comma in object");
                continue;
            }
            return expect('}', "',' or '}'");
        }
    }
};

} // namespace

std::optional<Value>
parse(const std::string &text, ParseError &error)
{
    error = ParseError{};
    Parser parser(text, error);
    return parser.document();
}

Value
makeString(std::string text)
{
    Value v;
    v.kind = Value::Kind::String;
    v.text = std::move(text);
    return v;
}

Value
makeNumber(std::uint64_t value)
{
    Value v;
    v.kind = Value::Kind::Number;
    v.text = std::to_string(value);
    return v;
}

Value
makeNumber(double value)
{
    Value v;
    v.kind = Value::Kind::Number;
    char buf[64];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), value);
    v.text.assign(buf, ec == std::errc() ? ptr : buf);
    return v;
}

Value
makeBool(bool value)
{
    Value v;
    v.kind = Value::Kind::Bool;
    v.boolean = value;
    return v;
}

} // namespace json
} // namespace scenario
} // namespace quetzal
