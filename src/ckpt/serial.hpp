/**
 * @file
 * Zero-dependency binary serialization primitives for the snapshot/restore
 * subsystem (src/ckpt). A snapshot is a stream of little-endian fixed-width
 * scalars framed into tagged sections; Sink writes, Source reads and
 * validates. Every multi-byte value is written byte-by-byte so the format is
 * identical across host endianness and ABI.
 *
 * Sink and Source answer the same calls, so a component declares its
 * snapshot state once, as one walk over its fields:
 * `template <class Ar> void state(Ar &ar)`. On a Sink each call writes the
 * field; on a Source the same call reads it back. Work that only a restore
 * does sits behind `if constexpr (Ar::kLoading)`.
 *
 * Design rules:
 *  - every call names its wire width (u8/u32/u64);
 *  - doubles travel as IEEE-754 bit patterns (std::bit_cast), never text, so
 *    restore-then-run is bit-identical to an uninterrupted run;
 *  - a structural value the restoring side already has goes through
 *    expect8/32/64, which a Source checks;
 *  - containers are always length-prefixed (u64 count), and a Source
 *    rejects a count larger than the bytes left in its section;
 *  - a Source that runs dry or reads a malformed value throws SnapshotError
 *    (a sim::FatalError), never silently truncates.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/error.hpp"
#include "sim/fnv.hpp"

namespace maple::ckpt {

/** Malformed, truncated, or incompatible snapshot data. */
class SnapshotError : public sim::FatalError {
  public:
    using sim::FatalError::FatalError;

    class BadChecksum;
};

/**
 * The stream's integrity footer does not match its content: the snapshot
 * was corrupted (bit rot, torn write, chaos injection) after it was taken.
 * Callers must discard any state restored from the stream — sections are
 * applied as they are read, so a Soc that saw BadChecksum is garbage.
 */
class SnapshotError::BadChecksum : public SnapshotError {
  public:
    using SnapshotError::SnapshotError;
};

/** An integral or enum field, sent as an unsigned integer of a named width. */
template <class T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;

/**
 * Binary writer over a std::ostream. Every byte written also feeds a
 * running FNV-1a hash (hash()), which the snapshot writer emits as a
 * trailing integrity footer (Section::Checksum).
 */
class Sink {
  public:
    static constexpr bool kLoading = false;

    explicit Sink(std::ostream &os) : os_(os) {}

    template <Scalar T> void u8(T v) { put(v, 1); }
    template <Scalar T> void u32(T v) { put(v, 4); }
    template <Scalar T> void u64(T v) { put(v, 8); }

    void b(bool v) { u8(v ? 1 : 0); }

    /** IEEE-754 bit pattern, not text: exact round trip. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        count(s.size());
        bytes(s.data(), s.size());
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i)
            mix(p[i]);
        os_.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(n));
    }

    void
    vecU64(const std::vector<std::uint64_t> &v)
    {
        count(v.size());
        for (std::uint64_t x : v)
            u64(x);
    }

    /// @name Structural values: written here, checked by a Source.
    /// @{
    void expect8(std::uint64_t v, const char *) { u8(v); }
    void expect32(std::uint64_t v, const char *) { u32(v); }
    void expect64(std::uint64_t v, const char *) { u64(v); }
    /// @}

    /** A container length. */
    void count(std::uint64_t n) { u64(n); }

    /** count(), then @p fn on every element in iteration order. */
    template <class C, class Fn>
    void
    seq(C &c, Fn fn)
    {
        count(c.size());
        for (auto &e : c)
            fn(e);
    }

    /** count(), then one byte per element. */
    void
    bits(const std::vector<bool> &v)
    {
        count(v.size());
        for (bool x : v)
            b(x);
    }

    /**
     * count(), then every entry as (key, @p fn(value)) in ascending key
     * order, so the bytes do not depend on unordered_map iteration order.
     * String keys travel as str(), integer keys as u64.
     */
    template <class Map, class Fn>
    void
    sortedMap(Map &m, Fn fn)
    {
        count(m.size());
        std::vector<typename Map::value_type *> entries;
        entries.reserve(m.size());
        for (auto &e : m)
            entries.push_back(&e);
        std::sort(entries.begin(), entries.end(),
                  [](auto *a, auto *b) { return a->first < b->first; });
        for (auto *e : entries) {
            if constexpr (std::is_same_v<typename Map::key_type, std::string>)
                str(e->first);
            else
                u64(e->first);
            fn(e->second);
        }
    }

    /** Running FNV-1a over every byte written so far. */
    std::uint64_t hash() const { return hash_; }

    bool good() const { return os_.good(); }
    std::ostream &stream() { return os_; }

  private:
    template <Scalar T>
    void
    put(T v, int width)
    {
        const auto x = static_cast<std::uint64_t>(v);
        for (int i = 0; i < width; ++i) {
            const auto byte = static_cast<std::uint8_t>(x >> (8 * i));
            mix(byte);
            os_.put(static_cast<char>(byte));
        }
    }

    void mix(std::uint8_t v) { sim::fnvMix(hash_, v, 1); }

    std::ostream &os_;
    std::uint64_t hash_ = sim::kFnvOffset;
};

/**
 * Binary reader over a std::istream; throws SnapshotError on underrun.
 * Mirrors the Sink's running FNV-1a over every byte consumed (including
 * skipped sections), so a reader can validate the writer's checksum footer,
 * and counts those bytes, so a length prefix can be checked against what is
 * left of its section.
 */
class Source {
  public:
    static constexpr bool kLoading = true;

    explicit Source(std::istream &is) : is_(is) {}

    std::uint8_t
    u8()
    {
        int c = is_.get();
        if (c == std::char_traits<char>::eof())
            MAPLE_THROW(SnapshotError, "snapshot truncated");
        mix(static_cast<std::uint8_t>(c));
        ++pos_;
        return static_cast<std::uint8_t>(c);
    }

    std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() { return get(8); }
    bool b() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        std::string s;
        str(s);
        return s;
    }

    std::vector<std::uint64_t>
    vecU64()
    {
        std::vector<std::uint64_t> v;
        vecU64(v);
        return v;
    }

    /// @name The Sink's calls, assigning what they read.
    /// @{
    template <Scalar T> void u8(T &v) { v = static_cast<T>(u8()); }
    template <Scalar T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <Scalar T> void u64(T &v) { v = static_cast<T>(u64()); }
    void b(bool &v) { v = b(); }
    void f64(double &v) { v = f64(); }

    void
    str(std::string &s)
    {
        s.resize(length());
        readExact(s.data(), s.size());
    }

    void
    bytes(void *data, std::size_t n)
    {
        readExact(static_cast<char *>(data), n);
    }

    void
    vecU64(std::vector<std::uint64_t> &v)
    {
        v.resize(length());
        for (std::uint64_t &x : v)
            x = u64();
    }

    void expect8(std::uint64_t v, const char *what) { expect(u8(), v, what); }
    void expect32(std::uint64_t v, const char *what) { expect(u32(), v, what); }
    void expect64(std::uint64_t v, const char *what) { expect(u64(), v, what); }

    /** A container length, checked like every other (see length()). */
    void count(std::uint64_t &n) { n = length(); }

    /** Replaces @p c with count() elements, each filled in by @p fn. */
    template <class C, class Fn>
    void
    seq(C &c, Fn fn)
    {
        c.clear();
        for (std::uint64_t n = length(); n > 0; --n) {
            typename C::value_type e{};
            fn(e);
            c.insert(c.end(), std::move(e));
        }
    }

    void
    bits(std::vector<bool> &v)
    {
        v.assign(length(), false);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = b();
    }

    /**
     * Reads count() (key, value) entries. Each entry is found or created in
     * place, never erased: components hold pointers into some of these maps.
     */
    template <class Map, class Fn>
    void
    sortedMap(Map &m, Fn fn)
    {
        for (std::uint64_t n = length(); n > 0; --n) {
            typename Map::key_type k{};
            if constexpr (std::is_same_v<typename Map::key_type, std::string>)
                str(k);
            else
                u64(k);
            fn(m.try_emplace(std::move(k)).first->second);
        }
    }
    /// @}

    /**
     * The next @p len bytes are one section's payload: count() rejects any
     * length that does not fit in what is left of them.
     */
    void
    beginSection(std::uint64_t len)
    {
        section_end_ = pos_ + std::min(len, kNoEnd - pos_);
    }

    /** Bytes consumed so far. */
    std::uint64_t pos() const { return pos_; }

    /**
     * Skip @p n payload bytes (unknown section tags). Skipped bytes still
     * feed the running hash — the writer hashed them.
     */
    void
    skip(std::uint64_t n)
    {
        char buf[1 << 12];
        while (n > 0) {
            const std::size_t chunk =
                static_cast<std::size_t>(std::min<std::uint64_t>(n, sizeof buf));
            readExact(buf, chunk);
            n -= chunk;
        }
    }

    /** True at a clean end of stream (used by the section loop). */
    bool
    atEof()
    {
        return is_.peek() == std::char_traits<char>::eof();
    }

    /** Running FNV-1a over every byte consumed so far. */
    std::uint64_t hash() const { return hash_; }

    std::istream &stream() { return is_; }

  private:
    /**
     * A length prefix. Every element takes at least one byte, so a length
     * larger than the bytes left in the section can only come from a corrupt
     * stream: reject it before anything is allocated for it.
     */
    std::uint64_t
    length()
    {
        const std::uint64_t n = u64();
        const std::uint64_t left = section_end_ - std::min(pos_, section_end_);
        MAPLE_CHECK(n <= left, SnapshotError,
                    "snapshot length %llu exceeds the %llu bytes left in "
                    "its section (corrupt stream?)",
                    (unsigned long long)n, (unsigned long long)left);
        return n;
    }

    std::uint64_t
    get(int width)
    {
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }

    static void
    expect(std::uint64_t got, std::uint64_t want, const char *what)
    {
        MAPLE_CHECK(got == want, SnapshotError,
                    "snapshot %s is %llu, this SoC has %llu", what,
                    (unsigned long long)got, (unsigned long long)want);
    }

    void
    readExact(char *dst, std::size_t n)
    {
        is_.read(dst, static_cast<std::streamsize>(n));
        if (static_cast<std::size_t>(is_.gcount()) != n)
            MAPLE_THROW(SnapshotError, "snapshot truncated");
        for (std::size_t i = 0; i < n; ++i)
            mix(static_cast<std::uint8_t>(dst[i]));
        pos_ += n;
    }

    void mix(std::uint8_t v) { sim::fnvMix(hash_, v, 1); }

    std::istream &is_;
    std::uint64_t hash_ = sim::kFnvOffset;
    std::uint64_t pos_ = 0;
    static constexpr std::uint64_t kNoEnd = ~std::uint64_t{0};
    /** End of the current section's payload (pos() units). */
    std::uint64_t section_end_ = kNoEnd;
};

/**
 * Tagged-section framing: each section is {u32 tag, u64 payload_len,
 * payload}. A reader switches on the tag and must either consume exactly
 * payload_len bytes or skip() them — unknown tags are skippable, so a
 * snapshot taken with tracing enabled restores into a Soc without a tracer.
 */
class SectionWriter {
  public:
    /**
     * Buffers the section payload so the length prefix can be emitted before
     * it; sections are small relative to raw memory pages, which are written
     * through bytes() in one pass.
     */
    SectionWriter(Sink &out, std::uint32_t tag) : out_(out), tag_(tag) {}

    Sink &sink() { return payload_sink_; }

    void
    finish()
    {
        out_.u32(tag_);
        const std::string body = buf_.str();
        out_.u64(body.size());
        out_.bytes(body.data(), body.size());
    }

  private:
    Sink &out_;
    std::uint32_t tag_;
    std::ostringstream buf_;
    Sink payload_sink_{buf_};
};

}  // namespace maple::ckpt
