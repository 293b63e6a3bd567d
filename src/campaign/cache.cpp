#include "campaign/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "campaign/health.hpp"
#include "ckpt/snapshot.hpp"
#include "sim/error.hpp"

namespace maple::campaign {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnvBytes(std::uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
fnvStr(std::uint64_t h, const std::string &s)
{
    return fnvBytes(h, s.data(), s.size());
}

/** Content hash of the running binary; the "code version" of a result. */
std::uint64_t
selfExeHash()
{
    static const std::uint64_t h = fileContentHash("/proc/self/exe");
    return h;
}

}  // namespace

std::uint64_t
fileContentHash(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    MAPLE_CHECK(f.good(), sim::ConfigError,
                "cannot hash %s: file is unreadable", path.c_str());
    std::uint64_t h = kFnvOffset;
    char buf[1 << 16];
    while (f.read(buf, sizeof buf) || f.gcount() > 0)
        h = fnvBytes(h, buf, static_cast<size_t>(f.gcount()));
    return h;
}

ResultCache::ResultCache(std::string dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled)
{
}

std::string
ResultCache::keyFor(const Job &job) const
{
    std::uint64_t h = kFnvOffset;
    h = fnvBytes(h, &kCacheVersion, sizeof kCacheVersion);
    h = fnvBytes(h, &ckpt::kFormatVersion, sizeof ckpt::kFormatVersion);
    h = fnvStr(h, job.type);
    h = fnvStr(h, json::dump(job.spec));
    std::uint64_t self = selfExeHash();
    h = fnvBytes(h, &self, sizeof self);
    if (job.type == "exec") {
        const std::string bin = job.spec.get("argv")->asArray()[0].asString();
        std::uint64_t bh = fileContentHash(bin);
        h = fnvBytes(h, &bh, sizeof bh);
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", (unsigned long long)h);
    return hex;
}

std::optional<json::Value>
ResultCache::load(const std::string &key) const
{
    if (!enabled_)
        return std::nullopt;
    const std::string path = dir_ + "/" + key + ".json";
    if (!std::filesystem::exists(path))
        return std::nullopt;
    ChaosPlan::env().maybeSlowIo("cache-load:" + key);

    // An entry is trusted only when it parses, carries the checksum
    // wrapper, and the payload's canonical dump matches the recorded
    // FNV-64. Anything else — torn write, bit rot, injected corruption,
    // stale unwrapped format — is evicted so it cannot be served again.
    const char *why = nullptr;
    try {
        json::Value entry = json::parseFile(path);
        const json::Value *payload = entry.get("payload");
        const std::string want_hex = entry.getString("fnv64", "");
        if (!payload || want_hex.empty()) {
            why = "missing checksum wrapper";
        } else {
            const std::uint64_t want =
                std::strtoull(want_hex.c_str(), nullptr, 16);
            const std::string dumped = json::dump(*payload);
            const std::uint64_t got = fnvStr(kFnvOffset, dumped);
            if (want != got)
                why = "checksum mismatch";
            else
                return *payload;
        }
    } catch (const json::JsonError &) {
        why = "unparsable entry";
    }
    std::fprintf(stderr, "cache: evicting corrupt entry %s (%s)\n",
                 path.c_str(), why);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    ++evictions_;
    return std::nullopt;
}

void
ResultCache::store(const std::string &key, const json::Value &result) const
{
    std::filesystem::create_directories(dir_);
    const std::string path = dir_ + "/" + key + ".json";
    ChaosPlan::env().maybeSlowIo("cache-store:" + key);

    const std::uint64_t h = fnvStr(kFnvOffset, json::dump(result));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", (unsigned long long)h);
    json::Object entry;
    entry.emplace_back("fnv64", json::Value(std::string(hex)));
    entry.emplace_back("payload", result);
    json::writeFile(path, json::Value(std::move(entry)));

    if (ChaosPlan::env().corrupt_cache)
        ChaosPlan::env().maybeCorruptFile(path, "corrupt-cache:" + key);
}

}  // namespace maple::campaign
