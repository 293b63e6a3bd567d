/**
 * @file
 * Minimal JSON value, parser and writer for the harness/campaign layer: job
 * specs, result files, stats serialization and the host-perf report all go
 * through this one implementation so their formats stay consistent and
 * lockable by tests.
 *
 * Deliberate properties:
 *  - objects preserve insertion order (results diff cleanly run-to-run);
 *  - integers round-trip as std::int64_t, never through double;
 *  - doubles are written with shortest round-trip formatting (std::to_chars),
 *    so write(parse(x)) is byte-stable;
 *  - no dependencies beyond the standard library.
 */
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "sim/error.hpp"

namespace maple::harness::json {

/** Malformed JSON input. */
class JsonError : public sim::FatalError {
  public:
    using sim::FatalError::FatalError;
};

class Value;
using Array = std::vector<Value>;
/** Insertion-ordered object; lookups are linear (objects here are small). */
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
  public:
    Value() : v_(nullptr) {}
    Value(std::nullptr_t) : v_(nullptr) {}
    Value(bool b) : v_(b) {}
    Value(std::int64_t i) : v_(i) {}
    Value(int i) : v_(static_cast<std::int64_t>(i)) {}
    Value(unsigned i) : v_(static_cast<std::int64_t>(i)) {}
    Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
    Value(double d) : v_(d) {}
    Value(const char *s) : v_(std::string(s)) {}
    Value(std::string s) : v_(std::move(s)) {}
    Value(Array a) : v_(std::move(a)) {}
    Value(Object o) : v_(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
    bool isBool() const { return std::holds_alternative<bool>(v_); }
    bool isInt() const { return std::holds_alternative<std::int64_t>(v_); }
    bool isDouble() const { return std::holds_alternative<double>(v_); }
    bool isNumber() const { return isInt() || isDouble(); }
    bool isString() const { return std::holds_alternative<std::string>(v_); }
    bool isArray() const { return std::holds_alternative<Array>(v_); }
    bool isObject() const { return std::holds_alternative<Object>(v_); }

    bool asBool() const { return std::get<bool>(v_); }
    std::int64_t asInt() const
    {
        if (isDouble())
            return static_cast<std::int64_t>(std::get<double>(v_));
        return std::get<std::int64_t>(v_);
    }
    double asDouble() const
    {
        if (isInt())
            return static_cast<double>(std::get<std::int64_t>(v_));
        return std::get<double>(v_);
    }
    const std::string &asString() const { return std::get<std::string>(v_); }
    const Array &asArray() const { return std::get<Array>(v_); }
    Array &asArray() { return std::get<Array>(v_); }
    const Object &asObject() const { return std::get<Object>(v_); }
    Object &asObject() { return std::get<Object>(v_); }

    /// @name Object helpers
    /// @{

    /** Member lookup; nullptr when absent or not an object. */
    const Value *get(const std::string &key) const;

    /** Set (insert or overwrite) a member; converts null to an object. */
    void set(const std::string &key, Value v);

    /** Typed lookups with defaults, for spec parsing. */
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;
    std::string getString(const std::string &key, const std::string &def) const;

    /// @}

    bool operator==(const Value &other) const { return v_ == other.v_; }

  private:
    std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
                 Array, Object>
        v_;
};

/**
 * Strict member lookup for spec parsing: @p def when @p key is absent, else
 * the member as T. A string must be a string, a double a number, and an
 * unsigned integer a non-negative integer that fits T. Anything else throws
 * JsonError naming the key.
 */
template <class T>
T
field(const Value &obj, const std::string &key, T def)
{
    const Value *v = obj.get(key);
    if (!v)
        return def;
    if constexpr (std::is_same_v<T, std::string>) {
        MAPLE_CHECK(v->isString(), JsonError, "\"%s\" must be a string",
                    key.c_str());
        return v->asString();
    } else if constexpr (std::is_floating_point_v<T>) {
        MAPLE_CHECK(v->isNumber(), JsonError, "\"%s\" must be a number",
                    key.c_str());
        return v->asDouble();
    } else {
        static_assert(std::is_unsigned_v<T>);
        constexpr auto kMax = std::numeric_limits<T>::max();
        MAPLE_CHECK(v->isInt() && v->asInt() >= 0 &&
                        static_cast<std::uint64_t>(v->asInt()) <= kMax,
                    JsonError, "\"%s\" must be an integer in [0, %llu]",
                    key.c_str(), static_cast<unsigned long long>(kMax));
        return static_cast<T>(v->asInt());
    }
}

/** Throws JsonError naming the first member of @p obj not in @p known. */
void requireKnownKeys(const Value &obj,
                      std::initializer_list<std::string_view> known);

/** Deepest nesting of arrays and objects parse() accepts. The parser
 *  recurses once per level, so the bound keeps a hostile document from
 *  exhausting the stack; the repo's own documents nest fewer than 10 deep. */
constexpr unsigned kMaxDepth = 512;

/** Parse a complete JSON document; throws JsonError with position info,
 *  also for nesting deeper than kMaxDepth. */
Value parse(const std::string &text);

/**
 * Serialize with 2-space indentation and a trailing newline at top level.
 * Key order is the object's insertion order.
 */
void write(std::ostream &os, const Value &v);

/** write() to a string. */
std::string dump(const Value &v);

/**
 * Single-line serialization (no indentation, no trailing newline) — the
 * journal format: one record per line, appended atomically.
 */
std::string dumpCompact(const Value &v);

/**
 * Write @p v to @p path atomically: temp file in the same directory, then
 * rename. Concurrent writers (campaign workers) never expose torn files.
 * Any I/O failure — ENOSPC, short write, failed close or rename — throws
 * JsonError (with errno detail) after removing the temp file, so a torn
 * document can never be observed under @p path.
 */
void writeFile(const std::string &path, const Value &v);

/** Parse the JSON document in @p path; throws JsonError on I/O failure. */
Value parseFile(const std::string &path);

}  // namespace maple::harness::json
