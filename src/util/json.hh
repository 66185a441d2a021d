/**
 * @file
 * Minimal JSON value model, parser, and writer.
 *
 * AlphaFold3 consumes its inputs in a structured JSON format; this
 * module provides the parsing substrate for the AFSysBench input
 * schema (see bio/input_spec.hh) without external dependencies.
 *
 * Supported: objects, arrays, strings (with standard escapes),
 * numbers, booleans, null. UTF-8 passes through untouched except for
 * \uXXXX escapes, which are decoded to UTF-8.
 */

#ifndef AFSB_UTIL_JSON_HH
#define AFSB_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace afsb {

/** Discriminated union over the JSON data model. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    /// std::map keeps key order deterministic for stable output.
    using Object = std::map<std::string, JsonValue>;

    JsonValue() : type_(Type::Null) {}
    JsonValue(std::nullptr_t) : type_(Type::Null) {}
    JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
    JsonValue(double d) : type_(Type::Number), num_(d) {}
    JsonValue(int i) : type_(Type::Number), num_(i) {}
    JsonValue(int64_t i)
        : type_(Type::Number), num_(static_cast<double>(i)) {}
    JsonValue(uint64_t u)
        : type_(Type::Number), num_(static_cast<double>(u)) {}
    JsonValue(const char *s) : type_(Type::String), str_(s) {}
    JsonValue(std::string s) : type_(Type::String), str_(std::move(s)) {}
    JsonValue(Array a) : type_(Type::Array), arr_(std::move(a)) {}
    JsonValue(Object o) : type_(Type::Object), obj_(std::move(o)) {}

    /** Construct an empty object. */
    static JsonValue makeObject() { return JsonValue(Object{}); }
    /** Construct an empty array. */
    static JsonValue makeArray() { return JsonValue(Array{}); }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Value accessors; fatal() on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;
    Array &asArray();
    Object &asObject();

    /** Object field lookup; fatal() when missing or not an object. */
    const JsonValue &at(const std::string &key) const;

    /** True when this is an object containing @p key. */
    bool has(const std::string &key) const;

    /**
     * Object field lookup with default.
     * @return the field, or @p fallback when absent.
     */
    const JsonValue &get(const std::string &key,
                         const JsonValue &fallback) const;

    /** Mutable object field (creates the key; object type required). */
    JsonValue &operator[](const std::string &key);

    /** Array element; fatal() on out-of-range or non-array. */
    const JsonValue &at(size_t idx) const;

    /** Array / object / string element count (0 for scalars). */
    size_t size() const;

    /** Append to an array (array type required). */
    void push(JsonValue v);

    /** Serialize compactly. */
    std::string dump() const;

    /** Serialize with 2-space indentation. */
    std::string dumpPretty() const;

    bool operator==(const JsonValue &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

/**
 * Parse a JSON document.
 * @throws FatalError with line/column context on malformed input,
 *         including arrays/objects nested more than 512 deep.
 */
JsonValue parseJson(const std::string &text);

} // namespace afsb

#endif // AFSB_UTIL_JSON_HH
