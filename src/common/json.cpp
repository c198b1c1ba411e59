#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/format.hpp"
#include "common/logging.hpp"

namespace neusight::common {

namespace {

/** Recursive-descent parser over a text buffer with position tracking. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text(text) {}

    Json
    parseDocument()
    {
        skipWhitespace();
        Json value = parseValue();
        skipWhitespace();
        if (pos != text.size())
            fail("trailing characters after JSON document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        size_t line = 1;
        size_t col = 1;
        for (size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("json: " + message + " at line " + std::to_string(line) +
              ", column " + std::to_string(col));
    }

    char
    peek() const
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    char
    advance()
    {
        const char c = peek();
        ++pos;
        return c;
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', found '" + peek() +
                 "'");
        ++pos;
    }

    void
    skipWhitespace()
    {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos;
            else
                break;
        }
    }

    bool
    consumeLiteral(const char *literal)
    {
        const size_t len = std::char_traits<char>::length(literal);
        if (text.compare(pos, len, literal) != 0)
            return false;
        pos += len;
        return true;
    }

    Json
    parseValue()
    {
        skipWhitespace();
        const char c = peek();
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return Json(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json(nullptr);
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json::Object members;
        skipWhitespace();
        if (peek() == '}') {
            ++pos;
            return Json(std::move(members));
        }
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            members.emplace_back(std::move(key), parseValue());
            skipWhitespace();
            const char c = advance();
            if (c == '}')
                return Json(std::move(members));
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json::Array elements;
        skipWhitespace();
        if (peek() == ']') {
            ++pos;
            return Json(std::move(elements));
        }
        while (true) {
            elements.push_back(parseValue());
            skipWhitespace();
            const char c = advance();
            if (c == ']')
                return Json(std::move(elements));
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            const char c = advance();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char esc = advance();
            switch (esc) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u':
                appendUnicodeEscape(out);
                break;
              default:
                fail("invalid escape sequence");
            }
        }
    }

    /** Decode \uXXXX (with surrogate pairs) into UTF-8. */
    void
    appendUnicodeEscape(std::string &out)
    {
        uint32_t code = parseHex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (!consumeLiteral("\\u"))
                fail("unpaired UTF-16 surrogate");
            const uint32_t low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    uint32_t
    parseHex4()
    {
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = advance();
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<uint32_t>(c - 'A' + 10);
            else
                fail("invalid hex digit in \\u escape");
        }
        return value;
    }

    Json
    parseNumber()
    {
        const size_t start = pos;
        if (peek() == '-')
            ++pos;
        if (pos >= text.size() || !isDigit(text[pos]))
            fail("invalid number");
        if (text[pos] == '0') {
            ++pos;
        } else {
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
        }
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (pos >= text.size() || !isDigit(text[pos]))
                fail("digit required after decimal point");
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() || !isDigit(text[pos]))
                fail("digit required in exponent");
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
        }
        // The token is already validated JSON, so from_chars consumes
        // all of it; subnormals convert to the nearest double, and only
        // values that overflow or round to zero are out of range.
        double value = 0.0;
        const auto res =
            std::from_chars(text.data() + start, text.data() + pos, value);
        if (res.ec != std::errc()) {
            pos = start;
            fail("number out of range");
        }
        return Json(value);
    }

    static bool
    isDigit(char c)
    {
        return c >= '0' && c <= '9';
    }

    const std::string &text;
    size_t pos = 0;
};

} // namespace

void
appendJsonString(std::string &out, const std::string &value)
{
    out.push_back('"');
    for (char c : value) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

namespace {

/**
 * Append @p value with 17 significant digits (%.17g, so every double
 * round-trips); integral values below 1e15 print as plain integers.
 */
void
dumpNumber(std::string &out, double value)
{
    if (std::isfinite(value) && value == std::floor(value) &&
        std::abs(value) < 1e15) {
        appendInt(out, static_cast<int64_t>(value));
        return;
    }
    appendG17(out, value);
}

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

Json
Json::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("json: cannot open '" + path + "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return parse(oss.str());
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        fatal("json: value is not a boolean");
    return boolean;
}

double
Json::asDouble() const
{
    if (type_ != Type::Number)
        fatal("json: value is not a number");
    return number;
}

int64_t
Json::asInt() const
{
    const double d = asDouble();
    if (d != std::floor(d) || std::abs(d) > 9.0e18)
        fatal("json: number is not an integer");
    return static_cast<int64_t>(d);
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        fatal("json: value is not a string");
    return string;
}

const Json::Array &
Json::asArray() const
{
    if (type_ != Type::Array)
        fatal("json: value is not an array");
    return array;
}

const Json::Object &
Json::asObject() const
{
    if (type_ != Type::Object)
        fatal("json: value is not an object");
    return object;
}

bool
Json::has(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &[k, v] : object)
        if (k == key)
            return true;
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    for (const auto &[k, v] : asObject())
        if (k == key)
            return v;
    fatal("json: missing key '" + key + "'");
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asDouble() : fallback;
}

bool
Json::boolOr(const std::string &key, bool fallback) const
{
    return has(key) ? at(key).asBool() : fallback;
}

std::string
Json::stringOr(const std::string &key, const std::string &fallback) const
{
    return has(key) ? at(key).asString() : fallback;
}

void
Json::set(const std::string &key, Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        fatal("json: set() on a non-object value");
    for (auto &[k, v] : object) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    object.emplace_back(key, std::move(value));
}

bool
Json::erase(const std::string &key)
{
    if (type_ != Type::Object)
        fatal("json: erase() on a non-object value");
    for (auto it = object.begin(); it != object.end(); ++it) {
        if (it->first == key) {
            object.erase(it);
            return true;
        }
    }
    return false;
}

void
Json::push(Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        fatal("json: push() on a non-array value");
    array.push_back(std::move(value));
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad =
        indent > 0 ? std::string(static_cast<size_t>(indent) *
                                     static_cast<size_t>(depth + 1),
                                 ' ')
                   : "";
    const std::string close_pad =
        indent > 0
            ? std::string(static_cast<size_t>(indent) *
                              static_cast<size_t>(depth),
                          ' ')
            : "";
    const char *newline = indent > 0 ? "\n" : "";
    const char *space = indent > 0 ? " " : "";

    switch (type_) {
      case Type::Null:
        out += "null";
        return;
      case Type::Bool:
        out += boolean ? "true" : "false";
        return;
      case Type::Number:
        dumpNumber(out, number);
        return;
      case Type::String:
        appendJsonString(out, string);
        return;
      case Type::Array: {
        if (array.empty()) {
            out += "[]";
            return;
        }
        out += "[";
        out += newline;
        for (size_t i = 0; i < array.size(); ++i) {
            out += pad;
            array[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < array.size())
                out += ",";
            out += newline;
        }
        out += close_pad;
        out += "]";
        return;
      }
      case Type::Object: {
        if (object.empty()) {
            out += "{}";
            return;
        }
        out += "{";
        out += newline;
        for (size_t i = 0; i < object.size(); ++i) {
            out += pad;
            appendJsonString(out, object[i].first);
            out += ":";
            out += space;
            object[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < object.size())
                out += ",";
            out += newline;
        }
        out += close_pad;
        out += "}";
        return;
      }
    }
}

bool
Json::operator==(const Json &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null:
        return true;
      case Type::Bool:
        return boolean == other.boolean;
      case Type::Number:
        return number == other.number;
      case Type::String:
        return string == other.string;
      case Type::Array:
        return array == other.array;
      case Type::Object:
        return object == other.object;
    }
    return false;
}

} // namespace neusight::common
