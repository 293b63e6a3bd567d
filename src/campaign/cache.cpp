#include "campaign/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "campaign/health.hpp"
#include "ckpt/snapshot.hpp"
#include "sim/error.hpp"
#include "sim/fnv.hpp"

namespace maple::campaign {

namespace {

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
    std::uint64_t h = sim::kFnvOffset;
    char buf[1 << 16];
    while (f.read(buf, sizeof buf) || f.gcount() > 0)
        h = sim::fnv1a({buf, static_cast<size_t>(f.gcount())}, h);
    return h;
}

ResultCache::ResultCache(std::string dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled)
{
}

std::string
ResultCache::keyFor(const Job &job) const
{
    std::uint64_t h = sim::kFnvOffset;
    sim::fnvMix(h, kCacheVersion, sizeof kCacheVersion);
    sim::fnvMix(h, ckpt::kFormatVersion, sizeof ckpt::kFormatVersion);
    h = sim::fnv1a(job.type, h);
    h = sim::fnv1a(json::dump(job.spec), h);
    sim::fnvMix(h, selfExeHash());
    if (job.type == "exec") {
        const std::string bin = job.spec.get("argv")->asArray()[0].asString();
        sim::fnvMix(h, fileContentHash(bin));
    }
    return sim::hex64(h);
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
            const std::uint64_t got = sim::fnv1a(dumped);
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

    json::Object entry;
    entry.emplace_back("fnv64", json::Value(sim::hex64(sim::fnv1a(json::dump(result)))));
    entry.emplace_back("payload", result);
    json::writeFile(path, json::Value(std::move(entry)));

    if (ChaosPlan::env().corrupt_cache)
        ChaosPlan::env().maybeCorruptFile(path, "corrupt-cache:" + key);
}

}  // namespace maple::campaign
