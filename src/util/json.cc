#include "util/json.hh"

#include <cmath>
#include <cstdlib>

#include "util/logging.hh"
#include "util/str.hh"

namespace afsb {

bool
JsonValue::asBool() const
{
    if (type_ != Type::Bool)
        fatal("JSON: expected bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (type_ != Type::Number)
        fatal("JSON: expected number");
    return num_;
}

int64_t
JsonValue::asInt() const
{
    return static_cast<int64_t>(std::llround(asNumber()));
}

const std::string &
JsonValue::asString() const
{
    if (type_ != Type::String)
        fatal("JSON: expected string");
    return str_;
}

const JsonValue::Array &
JsonValue::asArray() const
{
    if (type_ != Type::Array)
        fatal("JSON: expected array");
    return arr_;
}

const JsonValue::Object &
JsonValue::asObject() const
{
    if (type_ != Type::Object)
        fatal("JSON: expected object");
    return obj_;
}

JsonValue::Array &
JsonValue::asArray()
{
    if (type_ != Type::Array)
        fatal("JSON: expected array");
    return arr_;
}

JsonValue::Object &
JsonValue::asObject()
{
    if (type_ != Type::Object)
        fatal("JSON: expected object");
    return obj_;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const auto &obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end())
        fatal("JSON: missing key '" + key + "'");
    return it->second;
}

bool
JsonValue::has(const std::string &key) const
{
    return type_ == Type::Object && obj_.count(key) > 0;
}

const JsonValue &
JsonValue::get(const std::string &key, const JsonValue &fallback) const
{
    if (has(key))
        return obj_.at(key);
    return fallback;
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    if (type_ != Type::Object)
        fatal("JSON: operator[] on non-object");
    return obj_[key];
}

const JsonValue &
JsonValue::at(size_t idx) const
{
    const auto &arr = asArray();
    if (idx >= arr.size())
        fatal(strformat("JSON: array index %zu out of range (size %zu)",
                        idx, arr.size()));
    return arr[idx];
}

size_t
JsonValue::size() const
{
    switch (type_) {
      case Type::Array: return arr_.size();
      case Type::Object: return obj_.size();
      case Type::String: return str_.size();
      default: return 0;
    }
}

void
JsonValue::push(JsonValue v)
{
    if (type_ != Type::Array)
        fatal("JSON: push on non-array");
    arr_.push_back(std::move(v));
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == other.bool_;
      case Type::Number: return num_ == other.num_;
      case Type::String: return str_ == other.str_;
      case Type::Array: return arr_ == other.arr_;
      case Type::Object: return obj_ == other.obj_;
    }
    return false;
}

namespace {

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strformat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

void
formatNumber(std::string &out, double num)
{
    if (num == std::llround(num) &&
        std::abs(num) < 9.0e15) {
        out += strformat("%lld", std::llround(num));
    } else {
        out += strformat("%.17g", num);
    }
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad =
        indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)),
                                 ' ')
                   : std::string();
    const std::string padEnd =
        indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ')
                   : std::string();
    const char *nl = indent > 0 ? "\n" : "";
    const char *colon = indent > 0 ? ": " : ":";

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        formatNumber(out, num_);
        break;
      case Type::String:
        escapeString(out, str_);
        break;
      case Type::Array:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (size_t i = 0; i < arr_.size(); ++i) {
            out += pad;
            arr_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < arr_.size())
                out += ',';
            out += nl;
        }
        out += padEnd;
        out += ']';
        break;
      case Type::Object:
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        {
            size_t i = 0;
            for (const auto &[key, val] : obj_) {
                out += pad;
                escapeString(out, key);
                out += colon;
                val.dumpTo(out, indent, depth + 1);
                if (++i < obj_.size())
                    out += ',';
                out += nl;
            }
        }
        out += padEnd;
        out += '}';
        break;
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out, 0, 0);
    return out;
}

std::string
JsonValue::dumpPretty() const
{
    std::string out;
    dumpTo(out, 2, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser with position tracking. */
class Parser
{
  public:
    /** Deepest array/object nesting accepted. Each level costs a few
     *  native stack frames, so a file of nested brackets fails with
     *  an error here instead of overflowing the stack. */
    static constexpr size_t kMaxDepth = 512;

    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        skipWs();
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg)
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal(strformat("JSON parse error at line %zu col %zu: %s",
                        line, col, msg.c_str()));
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char
    take()
    {
        char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        if (take() != c)
            fail(strformat("expected '%c'", c));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t n = 0;
        while (lit[n])
            ++n;
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{':
          case '[': {
            if (++depth_ > kMaxDepth)
                fail(strformat("nesting depth %zu exceeds the limit "
                               "of %zu",
                               depth_, kMaxDepth));
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
          }
          case '"': return JsonValue(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue(nullptr);
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue::Object obj;
        skipWs();
        if (peek() == '}') {
            take();
            return JsonValue(std::move(obj));
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            obj[key] = parseValue();
            skipWs();
            char c = take();
            if (c == '}')
                break;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
        return JsonValue(std::move(obj));
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue::Array arr;
        skipWs();
        if (peek() == ']') {
            take();
            return JsonValue(std::move(arr));
        }
        for (;;) {
            arr.push_back(parseValue());
            skipWs();
            char c = take();
            if (c == ']')
                break;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
        return JsonValue(std::move(arr));
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            char c = take();
            if (c == '"')
                break;
            if (c == '\\') {
                char e = take();
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = take();
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("invalid \\u escape");
                    }
                    appendUtf8(out, cp);
                    break;
                  }
                  default:
                    fail("invalid escape character");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            } else {
                out += c;
            }
        }
        return out;
    }

    JsonValue
    parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-')
            take();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string numStr = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(numStr.c_str(), &end);
        if (end != numStr.c_str() + numStr.size())
            fail("malformed number '" + numStr + "'");
        return JsonValue(v);
    }

    const std::string &text_;
    size_t pos_ = 0;
    size_t depth_ = 0;  ///< arrays/objects open at pos_
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace afsb
