/**
 * @file
 * Coherence-protocol vocabulary shared by the caches, the sparse directory
 * and the SoC wiring, plus the flat-memory reference checker.
 *
 * The simulator keeps data in one PhysicalMemory, so a protocol bug cannot
 * corrupt *values* -- what it corrupts is the honesty of the timing model: a
 * core reading a line another agent wrote without an invalidation is exactly
 * the "silent stale read" the pre-coherence hierarchy allowed everywhere.
 * The CoherenceChecker is therefore a protocol-level shadow model: it tracks,
 * per line, a version number (bumped by every store) and, per cache, the
 * version the cache's copy corresponds to. Every demand load through a
 * coherent cache asserts its copy is current; every state transition asserts
 * the single-writer/multiple-reader invariant. With the protocol correct the
 * checker is silent; any missed invalidation, lost writeback or racy install
 * throws a typed CoherenceError naming the line and the caches involved.
 * The MAPLE_COHERENCE / MAPLE_COH_* knobs (soc/knobs.hpp) set the config.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/error.hpp"
#include "sim/types.hpp"

namespace maple::mem {

/** Protocol selector for the whole memory hierarchy. */
enum class CoherenceMode : std::uint8_t {
    None,  ///< legacy incoherent write-back hierarchy (bit-identical)
    Msi,   ///< sparse-directory MSI over the typed fabric
};

const char *coherenceModeName(CoherenceMode m);
std::optional<CoherenceMode> parseCoherenceMode(std::string_view s);

/** Stable per-line states of a coherent (L1) cache. */
enum class MsiState : std::uint8_t {
    I,  ///< invalid / not present
    S,  ///< shared, read-only, clean
    M,  ///< modified, exclusive, dirty
};

const char *msiStateName(MsiState s);

/**
 * Transient states of an L1 line with a protocol transaction in flight,
 * layered on the MSHR table (IS/IM ride the fill MSHR; SM is an upgrade of
 * a present line and has no MSHR).
 */
enum class TransientState : std::uint8_t {
    IS,  ///< GetS issued, fill pending
    IM,  ///< GetM issued, fill pending
    SM,  ///< upgrade GetM issued for a line held in S
};

/**
 * Protocol message kinds riding the mesh as real flits. Control messages
 * are header-only packets; Data/PutM/recall-writeback legs carry a line.
 * Demand legs (GetS/GetM out, Data back) are billed to the *original*
 * requester class, the PR-4 attribution rule; directory-originated traffic
 * (Inv, acks, forwards) is billed to RequesterClass::Coherence.
 */
enum class CohMsg : std::uint8_t {
    GetS,      ///< read permission request (I -> S)
    GetM,      ///< write permission request (I/S -> M)
    PutM,      ///< dirty-eviction writeback notice + line data
    Inv,       ///< directory asks a sharer/owner to drop the line
    InvAck,    ///< invalidation acknowledged
    FwdGetS,   ///< downgrade intervention: owner -> S, line to the home slice
    FwdGetM,   ///< recall intervention: owner invalidated, line to the home
    Downgrade, ///< downgrade acknowledge (with data when the owner was M)
    WbAck,     ///< writeback acknowledged (completes a PutM)
    Data,      ///< data response granting S or M
    kCount
};

const char *cohMsgName(CohMsg m);

/** Configuration of the protocol layer (one per SoC, shared by slices). */
struct CoherenceConfig {
    CoherenceMode mode = CoherenceMode::None;
    /** Sparse-directory entries per LLC slice (tracked lines). */
    unsigned dir_entries = 4096;
    /** Sparse-directory associativity (entries per set). */
    unsigned dir_assoc = 8;
    /** Bounded sharer vector: adding a sharer past this width invalidates
     *  the oldest tracked sharer first (limited-pointer scheme). */
    unsigned max_sharers = 8;
    /** Directory lookup/occupancy latency per transaction. */
    sim::Cycle dir_latency = 4;
    /** Cross-check every demand load against the shadow model. */
    bool checker = false;

    bool enabled() const { return mode != CoherenceMode::None; }
};

/** A protocol invariant was violated (stale read, double owner, ...). */
class CoherenceError : public sim::FatalError {
  public:
    using sim::FatalError::FatalError;
};

/**
 * Flat-memory reference checker: a sequentially-consistent shadow of what
 * each coherent cache may legally hold. All hooks are synchronous (no
 * timing); they are called at the instant the modeled state changes.
 *
 * Caches are identified by the small dense id handed out at registration
 * (Cache::attachCoherence); lines by their base address.
 */
class CoherenceChecker {
  public:
    /** Register one coherent cache; returns its dense id. */
    unsigned registerCache(std::string name);

    /// @name Cache-side transitions
    /// @{
    void onInstall(unsigned cache, sim::Addr line, MsiState st);
    void onUpgrade(unsigned cache, sim::Addr line);
    void onDowngrade(unsigned cache, sim::Addr line);
    void onRelease(unsigned cache, sim::Addr line);
    void onLoad(unsigned cache, sim::Addr line);
    void onStore(unsigned cache, sim::Addr line);
    /// @}

    /// @name Non-caching coherent agents (MAPLE streams, core atomics)
    /// @{
    void onDmaRead(sim::Addr line);
    void onDmaWrite(sim::Addr line);
    /// @}

    std::uint64_t loadsChecked() const { return loads_checked_; }
    std::uint64_t storesChecked() const { return stores_checked_; }

    /**
     * Forget all shadow state (snapshot restore: the caches re-seed their
     * holder sets via Cache::cohSeedChecker; versions restart at zero, which
     * is consistent because every holder's acquired version restarts too).
     */
    void reset();

    /** Re-declare @p cache as holding @p line in @p st (restore seeding). */
    void seedHolder(unsigned cache, sim::Addr line, MsiState st);

  private:
    struct LineShadow {
        std::uint64_t version = 0;        ///< bumped by every store
        int owner = -1;                   ///< cache id in M, or -1
        /** (cache id, version its copy corresponds to); owner included. */
        std::vector<std::pair<unsigned, std::uint64_t>> holders;
    };

    LineShadow &shadow(sim::Addr line) { return lines_[line]; }
    const char *cacheName(unsigned cache) const;
    std::vector<std::pair<unsigned, std::uint64_t>>::iterator
    findHolder(LineShadow &sh, unsigned cache);

    std::unordered_map<sim::Addr, LineShadow> lines_;
    std::vector<std::string> names_;
    std::uint64_t loads_checked_ = 0;
    std::uint64_t stores_checked_ = 0;
};

}  // namespace maple::mem
