/**
 * @file
 * Versioned, deterministic snapshot/restore of full simulator state.
 *
 * Format: a fixed header {magic, format version, config hash, cycle}
 * followed by tagged sections ({u32 tag, u64 len, payload}, see
 * ckpt/serial.hpp). Readers skip unknown tags, so a snapshot taken with
 * tracing enabled restores into a Soc without a tracer. The config hash
 * covers only *structural* configuration (core/MAPLE counts, cache
 * geometry, DRAM/mesh/arbitration parameters); runtime knobs — name,
 * trace outputs, fault plan, watchdog — are valid variant axes over one
 * warm image and are excluded.
 *
 * Snapshots are only taken at quiesced points (event queue drained, no
 * parked waiters): C++20 coroutine frames are not serializable, so the
 * capture point is between Soc::run() phases, where zero frames are live
 * but caches, TLBs, MAPLE queues, RNG streams, stats and trace buffers
 * are all warm. Restore-then-run is byte-identical to an uninterrupted
 * run; tests/test_ckpt.cpp locks that guarantee.
 *
 * Soc::snapshot() / Soc::restore() are declared in soc/soc.hpp and
 * defined here (libmaple_ckpt) so the core SoC library does not grow a
 * serialization dependency.
 */
#pragma once

#include <cstdint>

namespace maple::soc {
struct SocConfig;
}

namespace maple::ckpt {

/** "MAPLCKPT" — the first 8 bytes of every snapshot stream. */
inline constexpr std::uint64_t kMagic = 0x54504b434c50414dull;

/**
 * Bumped whenever any component's serialized layout changes.
 * v2: every stream ends with a mandatory Checksum section — an FNV-1a over
 * all preceding bytes — so corruption and truncation surface as a typed
 * SnapshotError (BadChecksum) instead of silently restoring garbage.
 * v3: the Fault section grows two coherence fault classes, coherent caches
 * write per-line MSI state, and msi-mode streams add Directory/SliceLlc
 * sections for the sparse directories and the extra LLC slices.
 * v4: every cache way writes its poison bit, the Fault section grows the
 * four BitFlip* classes, and resilience-enabled streams add a Resil
 * section (ECC counters, MCA banks, backing poison, scrub cursor).
 */
inline constexpr std::uint32_t kFormatVersion = 4;

/** Tagged-section identifiers (u32 on the wire). */
enum class Section : std::uint32_t {
    Engine = 1,    ///< EventQueue clock/sequence/ticket counters
    Kernel = 2,    ///< processes, address spaces, frame watermark
    PhysMem = 3,   ///< allocated physical pages (raw 4KB images)
    Mesh = 4,      ///< NoC link reservations + stats
    Dram = 5,      ///< channel state, arbitration, stats
    LlcFront = 6,  ///< shared-LLC interposer stats + arbitration
    Llc = 7,       ///< shared LLC tag/data-state/LRU + stats
    Core = 8,      ///< one per core: index, private L1, core state
    Maple = 9,     ///< one per MAPLE: index, queues, device registers
    Fault = 10,    ///< fault plan RNG streams, counters, event log
    Trace = 11,    ///< trace events, probe samples, stall attribution
    /**
     * Mandatory integrity footer, always the last section: u64 FNV-1a over
     * every stream byte before this section's tag. A reader stops at this
     * section (supporting concatenated per-chip streams); a stream that
     * ends without one is reported as truncated.
     */
    Checksum = 12,
    Directory = 13,  ///< coherence fabric: message counters + per-slice dirs
    SliceLlc = 14,   ///< one per extra LLC slice (msi mode): index, cache
    Resil = 15,      ///< resilience: ECC stats, MCA banks, poison, scrub
};

/**
 * FNV-1a hash over the structural fields of @p cfg after soc::resolveConfig
 * (the call Soc's constructor makes), so hashing a pre-construction config
 * and a Soc's post-construction config() agree.
 */
std::uint64_t configHash(const soc::SocConfig &cfg);

}  // namespace maple::ckpt
