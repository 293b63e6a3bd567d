/**
 * @file
 * FNV-1a, the one 64-bit hash behind snapshot checksums and config hashes,
 * fault-plan fingerprints, campaign cache keys, warm-image names and
 * journal fingerprints. Pinned images and resume checks embed its values.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace maple::sim {

/** The simulator's seed and the FNV prime. The seed is not the standard
 *  64-bit offset basis (it lacks that number's last digit); pinned values
 *  depend on it. */
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Hash of @p bytes, continuing from @p h. */
constexpr std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

/** Fold the low @p width bytes of @p v into @p h, least significant first. */
constexpr void
fnvMix(std::uint64_t &h, std::uint64_t v, unsigned width = 8)
{
    for (unsigned i = 0; i < width; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
}

/** @p h as 16 lowercase hex digits. */
inline std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

}  // namespace maple::sim
