#include "harness/json.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

namespace maple::harness::json {

const Value *
Value::get(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : asObject()) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
Value::set(const std::string &key, Value v)
{
    if (isNull())
        v_ = Object{};
    for (auto &[k, old] : asObject()) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    asObject().emplace_back(key, std::move(v));
}

std::int64_t
Value::getInt(const std::string &key, std::int64_t def) const
{
    const Value *v = get(key);
    return v && v->isNumber() ? v->asInt() : def;
}

double
Value::getDouble(const std::string &key, double def) const
{
    const Value *v = get(key);
    return v && v->isNumber() ? v->asDouble() : def;
}

bool
Value::getBool(const std::string &key, bool def) const
{
    const Value *v = get(key);
    return v && v->isBool() ? v->asBool() : def;
}

std::string
Value::getString(const std::string &key, const std::string &def) const
{
    const Value *v = get(key);
    return v && v->isString() ? v->asString() : def;
}

void
requireKnownKeys(const Value &obj, std::initializer_list<std::string_view> known)
{
    for (const auto &[key, v] : obj.asObject())
        MAPLE_CHECK(std::find(known.begin(), known.end(), key) != known.end(),
                    JsonError, "unknown key \"%s\"", key.c_str());
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string, tracking offset for errors.
// ---------------------------------------------------------------------------

namespace {

class Parser {
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Value
    document()
    {
        Value v = value();
        ws();
        if (pos_ != s_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        MAPLE_THROW(JsonError, "JSON parse error at offset %zu: %s", pos_,
                    what.c_str());
    }

    /** One level of array or object nesting, for as long as it is open. */
    class Nest {
      public:
        explicit Nest(Parser &p) : p_(p)
        {
            if (++p_.depth_ > kMaxDepth)
                p_.fail("arrays and objects nest deeper than " +
                        std::to_string(kMaxDepth) + " levels");
        }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;
        ~Nest() { --p_.depth_; }

      private:
        Parser &p_;
    };

    void
    ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consume(const char *lit)
    {
        size_t n = std::char_traits<char>::length(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    value()
    {
        ws();
        switch (peek()) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return Value(string());
        case 't':
            if (!consume("true"))
                fail("bad literal");
            return Value(true);
        case 'f':
            if (!consume("false"))
                fail("bad literal");
            return Value(false);
        case 'n':
            if (!consume("null"))
                fail("bad literal");
            return Value(nullptr);
        default:
            return number();
        }
    }

    Value
    object()
    {
        Nest nest(*this);
        expect('{');
        Object o;
        ws();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(o));
        }
        for (;;) {
            ws();
            std::string key = string();
            ws();
            expect(':');
            o.emplace_back(std::move(key), value());
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value(std::move(o));
        }
    }

    Value
    array()
    {
        Nest nest(*this);
        expect('[');
        Array a;
        ws();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(a));
        }
        for (;;) {
            a.push_back(value());
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value(std::move(a));
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            char e = s_[pos_++];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (specs and results are
                // ASCII in practice; surrogate pairs are not supported).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
            }
            default:
                fail("bad escape character");
            }
        }
    }

    Value
    number()
    {
        size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        bool is_double = false;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_double = is_double || c == '.' || c == 'e' || c == 'E';
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected a value");
        const char *b = s_.data() + start;
        const char *e = s_.data() + pos_;
        if (!is_double) {
            std::int64_t i = 0;
            auto [p, ec] = std::from_chars(b, e, i);
            if (ec == std::errc() && p == e)
                return Value(i);
        }
        double d = 0;
        auto [p, ec] = std::from_chars(b, e, d);
        if (ec != std::errc() || p != e)
            fail("malformed number");
        return Value(d);
    }

    const std::string &s_;
    size_t pos_ = 0;
    unsigned depth_ = 0;  ///< arrays and objects open at pos_
};

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeDouble(std::ostream &os, double d)
{
    // Shortest round-trip representation; ensure it still reads back as a
    // double (to_chars may produce "42", which is fine for JSON consumers
    // but would re-parse as an integer, so mark it).
    char buf[64];
    auto [p, ec] = std::to_chars(buf, buf + sizeof buf - 2, d);
    assert(ec == std::errc());
    *p = '\0';
    os << buf;
    for (const char *c = buf; *c; ++c) {
        if (*c == '.' || *c == 'e' || *c == 'n' || *c == 'i')
            return;  // has a fraction/exponent, or is nan/inf
    }
    os << ".0";
}

void
writeCompact(std::ostream &os, const Value &v)
{
    if (v.isNull()) {
        os << "null";
    } else if (v.isBool()) {
        os << (v.asBool() ? "true" : "false");
    } else if (v.isInt()) {
        os << v.asInt();
    } else if (v.isDouble()) {
        writeDouble(os, v.asDouble());
    } else if (v.isString()) {
        writeEscaped(os, v.asString());
    } else if (v.isArray()) {
        os << "[";
        const Array &a = v.asArray();
        for (size_t i = 0; i < a.size(); ++i) {
            if (i)
                os << ", ";
            writeCompact(os, a[i]);
        }
        os << "]";
    } else {
        os << "{";
        const Object &o = v.asObject();
        for (size_t i = 0; i < o.size(); ++i) {
            if (i)
                os << ", ";
            writeEscaped(os, o[i].first);
            os << ": ";
            writeCompact(os, o[i].second);
        }
        os << "}";
    }
}

void
writeIndented(std::ostream &os, const Value &v, int depth)
{
    auto pad = [&os](int d) {
        for (int i = 0; i < d; ++i)
            os << "  ";
    };
    if (v.isNull()) {
        os << "null";
    } else if (v.isBool()) {
        os << (v.asBool() ? "true" : "false");
    } else if (v.isInt()) {
        os << v.asInt();
    } else if (v.isDouble()) {
        writeDouble(os, v.asDouble());
    } else if (v.isString()) {
        writeEscaped(os, v.asString());
    } else if (v.isArray()) {
        const Array &a = v.asArray();
        if (a.empty()) {
            os << "[]";
            return;
        }
        os << "[\n";
        for (size_t i = 0; i < a.size(); ++i) {
            pad(depth + 1);
            writeIndented(os, a[i], depth + 1);
            os << (i + 1 < a.size() ? ",\n" : "\n");
        }
        pad(depth);
        os << "]";
    } else {
        const Object &o = v.asObject();
        if (o.empty()) {
            os << "{}";
            return;
        }
        os << "{\n";
        for (size_t i = 0; i < o.size(); ++i) {
            pad(depth + 1);
            writeEscaped(os, o[i].first);
            os << ": ";
            writeIndented(os, o[i].second, depth + 1);
            os << (i + 1 < o.size() ? ",\n" : "\n");
        }
        pad(depth);
        os << "}";
    }
}

}  // namespace

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

void
write(std::ostream &os, const Value &v)
{
    writeIndented(os, v, 0);
    os << "\n";
}

std::string
dump(const Value &v)
{
    std::ostringstream ss;
    write(ss, v);
    return ss.str();
}

std::string
dumpCompact(const Value &v)
{
    std::ostringstream ss;
    writeCompact(ss, v);
    return ss.str();
}

void
writeFile(const std::string &path, const Value &v)
{
    const std::string tmp = path + ".tmp";
    errno = 0;
    std::ofstream f(tmp, std::ios::trunc);
    if (!f.good()) {
        MAPLE_THROW(JsonError, "cannot open %s for writing: %s", tmp.c_str(),
                    errno ? std::strerror(errno) : "stream error");
    }
    write(f, v);
    f.flush();
    const bool wrote = f.good();
    f.close();
    // An ENOSPC / quota / I/O failure can surface at write, flush *or*
    // close time; any of them leaves a short temp file that must never be
    // renamed over the real document.
    if (!wrote || !f.good()) {
        const int err = errno;
        std::remove(tmp.c_str());
        MAPLE_THROW(JsonError, "short write to %s: %s", tmp.c_str(),
                    err ? std::strerror(err) : "stream error");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        MAPLE_THROW(JsonError, "cannot rename %s to %s: %s", tmp.c_str(),
                    path.c_str(), std::strerror(err));
    }
}

Value
parseFile(const std::string &path)
{
    std::ifstream f(path);
    MAPLE_CHECK(f.good(), JsonError, "cannot read %s", path.c_str());
    std::ostringstream ss;
    ss << f.rdbuf();
    return parse(ss.str());
}

}  // namespace maple::harness::json
