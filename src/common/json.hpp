/**
 * @file
 * Minimal self-contained JSON reader/writer used for configuration files
 * (custom GPU specs, model descriptions, tool options). Implements the
 * full JSON grammar — objects, arrays, strings with escapes, numbers,
 * booleans, null — with position-annotated parse errors. No external
 * dependencies, matching the repository's stdlib-only rule.
 */

#ifndef NEUSIGHT_COMMON_JSON_HPP
#define NEUSIGHT_COMMON_JSON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace neusight::common {

/** One JSON value: null, bool, number, string, array, or object. */
class Json
{
  public:
    /** Discriminator for the held value. */
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Ordered key/value storage (preserves file order for writing). */
    using Object = std::vector<std::pair<std::string, Json>>;
    using Array = std::vector<Json>;

    /// @name Constructors for every value type.
    /// @{
    Json() : type_(Type::Null) {}
    Json(std::nullptr_t) : type_(Type::Null) {}
    Json(bool value) : type_(Type::Bool), boolean(value) {}
    Json(double value) : type_(Type::Number), number(value) {}
    Json(int value) : type_(Type::Number), number(value) {}
    Json(int64_t value)
        : type_(Type::Number), number(static_cast<double>(value))
    {}
    Json(uint64_t value)
        : type_(Type::Number), number(static_cast<double>(value))
    {}
    Json(const char *value) : type_(Type::String), string(value) {}
    Json(std::string value) : type_(Type::String), string(std::move(value)) {}
    Json(Array value) : type_(Type::Array), array(std::move(value)) {}
    Json(Object value) : type_(Type::Object), object(std::move(value)) {}
    /// @}

    /**
     * Parse @p text as a single JSON document.
     * fatal() with line/column on malformed input or trailing garbage.
     */
    static Json parse(const std::string &text);

    /** Parse the JSON document stored at @p path; fatal() on I/O error. */
    static Json parseFile(const std::string &path);

    /** The held value's type. */
    Type type() const { return type_; }

    /// @name Type predicates.
    /// @{
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }
    /// @}

    /// @name Checked accessors; fatal() on type mismatch.
    /// @{
    bool asBool() const;
    double asDouble() const;
    /** Number checked to be integral and in range. */
    int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;
    /// @}

    /** True when an object holds @p key. */
    bool has(const std::string &key) const;

    /** Member lookup; fatal() when missing or not an object. */
    const Json &at(const std::string &key) const;

    /** Member lookup with a default for optional fields. */
    double numberOr(const std::string &key, double fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Append/overwrite an object member (creates the object if null). */
    void set(const std::string &key, Json value);

    /** Remove an object member if present; returns whether it was. */
    bool erase(const std::string &key);

    /** Append an array element (creates the array if null). */
    void push(Json value);

    /**
     * Serialize back to JSON text.
     * @param indent spaces per nesting level; 0 emits a compact single line.
     */
    std::string dump(int indent = 2) const;

    /** Structural equality (numbers compared exactly). */
    bool operator==(const Json &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    Array array;
    Object object;
};

/**
 * Append @p value to @p out as a quoted JSON string literal, escaped
 * exactly as Json::dump escapes strings.
 */
void appendJsonString(std::string &out, const std::string &value);

} // namespace neusight::common

#endif // NEUSIGHT_COMMON_JSON_HPP
