/**
 * @file
 * Sparse-directory MSI home node (Graphite pr_l1_sh_l2_spdir_msi style)
 * and the CoherenceFabric that routes protocol transactions between the
 * coherent L1s, the home directories co-located with the LLC slices, and
 * the mesh.
 *
 * Division of labor:
 *  - mem::Cache (with attachCoherence) holds per-line MSI state and the
 *    transient-state table layered on its MSHRs; its misses/upgrades call
 *    CoherenceFabric::fetch() instead of its downstream port.
 *  - Directory (one per LLC slice) serializes all transactions on a line
 *    behind a per-line busy lock, owns the sharer bookkeeping, and drives
 *    invalidations / interventions as real mesh packets.
 *  - CoherenceFabric owns slice homing (address-interleaved), the dense
 *    cache registry the directories index their sharer vectors with, the
 *    message-transit helper (flit billing + CohMsgDelay/CohMsgDrop fault
 *    hooks), and the optional flat-memory reference checker.
 *
 * Locking discipline (deadlock freedom): a transaction acquires exactly one
 * per-line lock, at its home slice, and holds it across every message leg
 * including the final install into the requester (Cache::cohInstall runs
 * synchronously inside the lock) — so a fill response can never be overtaken
 * by a later invalidation for the same line. The only second lock ever taken
 * is for a directory-eviction victim, and that one is take-if-free only
 * (never awaited), so no cycle can form. Dirty-eviction PutM writebacks run
 * detached and re-acquire their own line's lock from scratch.
 *
 * Message attribution: demand legs (GetS/GetM out, Data back, PutM) ride the
 * originating request's class, the PR-4 rule; everything the directory
 * originates (Inv, InvAck, Fwd-GetS/GetM, downgrade/writeback acks, recall
 * writebacks) is billed to RequesterClass::Coherence so per-class arbiters,
 * the mesh counters and fault campaigns can see pure protocol overhead.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/coherence.hpp"
#include "mem/physical_memory.hpp"
#include "mem/port.hpp"
#include "noc/mesh.hpp"
#include "sim/stats.hpp"

namespace maple::mem {

class ResilManager;

/**
 * Protocol-side interface of a coherent cache. All methods are synchronous:
 * they flip modeled state at the instant the directory (holding the line's
 * lock) decides the transition; message timing is billed separately by the
 * fabric. Implemented by mem::Cache when coherence is attached.
 */
class CoherentCache {
  public:
    virtual ~CoherentCache() = default;

    virtual const std::string &cohName() const = 0;
    virtual sim::TileId cohTile() const = 0;

    /**
     * Invalidate any copy of @p line (Inv or Fwd-GetM). Returns the state
     * the copy was in — M means the ack carries the dirty line back to the
     * home; I means the copy was silently evicted earlier (ack only).
     */
    virtual MsiState cohTakeLine(sim::Addr line) = 0;

    /** Drop write permission, M -> S (Fwd-GetS). True when the line was M
     *  (the downgrade ack then carries the dirty data home). */
    virtual bool cohDowngrade(sim::Addr line) = 0;

    /** Side-effect-free probe of the copy's current state (no LRU touch,
     *  no checker hook): I when absent. The directory uses it to tell a
     *  live S copy from a stale sharer bit before granting a header-only
     *  upgrade, and a PutM-in-flight from a completed downgrade. */
    virtual MsiState cohState(sim::Addr line) const = 0;

    /**
     * Grant @p line in @p st: upgrade in place when a copy is present (SM
     * completing), else install fresh — victim eviction inside rides
     * @p req's identity (dirty victims emit a detached PutM). Called by the
     * fabric with the home directory's line lock held, after the data
     * response transited, so a later Inv can never beat the fill.
     */
    virtual void cohInstall(sim::Addr line, MsiState st,
                            const MemRequest &req) = 0;
};

class CoherenceFabric;

/**
 * One sparse-directory home node, co-located with an LLC slice. Tracks only
 * lines with live private copies: a set-associative table of entries with a
 * bounded sharer vector; allocation pressure forces recall of a victim
 * line's copies (eviction-forced invalidation), and sharer-vector overflow
 * invalidates the oldest tracked sharer (limited-pointer scheme).
 */
class Directory {
  public:
    Directory(sim::EventQueue &eq, const CoherenceConfig &cfg,
              CoherenceFabric &fabric, std::string name, sim::TileId tile,
              Port &slice_llc);

    /**
     * One full GetS/GetM transaction for @p requester: lock, sharer/owner
     * resolution (Inv / Fwd legs), LLC data access, response transit, and
     * the install into the requester — all inside the line lock.
     */
    sim::Task<void> fetchTransaction(unsigned requester, MemRequest req,
                                     sim::Addr line, bool want_m);

    /** A dirty-eviction PutM from @p requester (detached at the cache). */
    sim::Task<void> putMTransaction(unsigned requester, MemRequest req,
                                    sim::Addr line);

    /**
     * A coherent non-caching access (MAPLE streams, core remote atomics):
     * writes invalidate every copy, reads downgrade an M owner, then the
     * LLC slice services the data. @p req's extent must lie within @p line.
     */
    sim::Task<void> dmaTransaction(MemRequest req, sim::Addr line, bool write);

    /**
     * Machine-check containment flush: recall the owner and invalidate every
     * sharer of @p line, then untrack it. A no-op when the line is not
     * tracked. Takes the line lock like any other transaction.
     */
    sim::Task<void> recallLine(sim::Addr line);

    /** Directory slots (sets * assoc) -- the scrub cursor space. */
    std::uint64_t
    entrySlots() const
    {
        return static_cast<std::uint64_t>(num_sets_) * cfg_.dir_assoc;
    }

    /**
     * Scrub one directory slot (synchronous, no simulated time): audit the
     * entry's sharer vector against each cache's ground-truth MSI state and
     * drop sharer bits whose cache is in I (silent S-evictions and
     * uncorrectable directory-entry corruption both leave them). Entries
     * whose line lock is busy are skipped -- the live transaction owns the
     * truth for that line. Owner bits are never repaired: an M copy's PutM
     * can be in flight, so cohState() == I does not prove staleness for an
     * owner (the protocol disambiguates via the stale-PutM notes instead).
     * Returns the number of repairs.
     */
    unsigned scrubAudit(std::uint64_t slot);

    sim::TileId tile() const { return tile_; }
    sim::StatGroup &stats() { return stats_; }
    const sim::StatGroup &stats() const { return stats_; }
    const std::string &name() const { return name_; }

    /** Live (tracked) entries, for occupancy probes and diagnostics. */
    unsigned entriesInUse() const { return live_entries_; }

    /** Transactions currently holding or awaiting a line lock. */
    std::size_t busyLines() const { return busy_.size(); }

    /** Snapshot support; only valid with no transaction in flight. */
    void saveState(ckpt::Sink &out) const;
    void loadState(ckpt::Source &in);

  private:
    struct Entry {
        sim::Addr tag = 0;
        bool valid = false;
        int owner = -1;                 ///< cache id holding M, or -1
        std::vector<unsigned> sharers;  ///< cache ids holding S (bounded)
        std::uint64_t lru = 0;
    };

    std::size_t setOf(sim::Addr line) const;
    Entry *find(sim::Addr line);

    /** Per-line transaction serialization. */
    sim::Task<void> lock(sim::Addr line);
    bool tryLock(sim::Addr line);
    void unlock(sim::Addr line);

    /** Allocate an entry for @p line, recalling a victim's copies if the
     *  set is full (only victims whose lock is free are considered). */
    sim::Task<Entry *> allocate(sim::Addr line);

    /** Inv every current sharer (parallel legs), then drop them all. */
    sim::Task<void> invalidateSharers(Entry &e, sim::Addr line);

    /** Single Inv/InvAck leg to @p cache. */
    sim::Task<void> invOne(unsigned cache, sim::Addr line);

    /** Fwd-GetM: recall the owner's (possibly dirty) copy to the home. */
    sim::Task<void> recallOwner(Entry &e, sim::Addr line);

    /** Fwd-GetS: downgrade the owner to S; dirty data comes home. */
    sim::Task<void> downgradeOwner(Entry &e, sim::Addr line);

    /** Detached dirty-data update of the LLC slice (off the critical path). */
    void writebackToSlice(sim::Addr line);

    void freeIfUntracked(Entry &e);

    /**
     * ECC draw on a directory-array lookup (BitFlipDir). Corrected errors
     * return the correction bubble for the caller to model; uncorrectable
     * ones force a conservative entry rebuild via corruptEntry().
     */
    sim::Cycle resilCheckLookup(sim::Addr line, RequesterClass rc);

    /**
     * An uncorrectable directory-array error: the rebuilt sharer vector may
     * include a cache that no longer holds the line. Modeled as one spurious
     * sharer bit pointing at a cache in I -- protocol-safe (identical to the
     * staleness silent S-evictions leave; invOne tolerates absent copies)
     * and exactly what the scrub engine exists to repair. Owned entries are
     * left alone (owner bits must never be guessed at).
     */
    void corruptEntry(sim::Addr line);

    /// @name Superseded-PutM disambiguation
    /// A dirty-eviction PutM travels detached and can be delayed past the
    /// point where the home already learned the copy is gone (a recall or
    /// downgrade finding the line absent, or the evicting cache's own
    /// re-fetch). Each such observation notes exactly one in-flight PutM
    /// from that cache as superseded; putMTransaction consumes a note
    /// before trusting `owner == requester`, so a stale PutM arriving
    /// after the same cache re-acquired M can never clear live ownership
    /// (ABA). Keyed by line, not entry: notes survive directory eviction.
    /// @{
    void noteStalePutM(sim::Addr line, unsigned cache);
    bool consumeStalePutM(sim::Addr line, unsigned cache);
    /// @}

    sim::EventQueue &eq_;
    const CoherenceConfig &cfg_;
    CoherenceFabric &fabric_;
    std::string name_;
    sim::TileId tile_;
    Port &slice_llc_;
    std::size_t num_sets_;
    std::vector<std::vector<Entry>> sets_;
    std::uint64_t lru_clock_ = 1;
    unsigned live_entries_ = 0;
    std::unordered_map<sim::Addr, sim::Signal> busy_;
    /** One element per superseded PutM in flight (cache id; duplicates
     *  allowed — the same cache can have several stale PutMs flying). */
    std::unordered_map<sim::Addr, std::vector<unsigned>> stale_putms_;
    sim::StatGroup stats_;
    /// @name Stats of stats_, resolved once (sim::CounterHandle)
    /// @{
    sim::CounterHandle n_busy_waits_{stats_, "busy_waits"};
    sim::CounterHandle n_invalidations_{stats_, "invalidations"};
    sim::CounterHandle n_interventions_{stats_, "interventions"};
    sim::CounterHandle n_fwd_getm_{stats_, "fwd_getm"};
    sim::CounterHandle n_fwd_gets_{stats_, "fwd_gets"};
    sim::CounterHandle n_alloc_stalls_{stats_, "alloc_stalls"};
    sim::CounterHandle n_recalls_{stats_, "recalls"};
    sim::CounterHandle n_corrupt_sharers_{stats_, "corrupt_sharers"};
    sim::CounterHandle n_resil_recalls_{stats_, "resil_recalls"};
    sim::CounterHandle n_scrub_repairs_{stats_, "scrub_repairs"};
    sim::CounterHandle n_upgrades_{stats_, "upgrades"};
    sim::CounterHandle n_stale_upgrades_{stats_, "stale_upgrades"};
    sim::CounterHandle n_sharer_overflows_{stats_, "sharer_overflows"};
    sim::CounterHandle n_putm_stale_{stats_, "putm_stale"};
    sim::CounterHandle n_putm_{stats_, "putm"};
    sim::CounterHandle n_getm_{stats_, "getm"};
    sim::CounterHandle n_gets_{stats_, "gets"};
    sim::CounterHandle n_dma_writes_{stats_, "dma_writes"};
    sim::CounterHandle n_dma_reads_{stats_, "dma_reads"};
    sim::HistogramHandle txn_cycles_{stats_, "txn_cycles", 32.0, 64};
    /// @}
};

/**
 * The protocol hub: slice homing, the coherent-cache registry, message
 * transit (flit billing + fault hooks) and the reference checker. One per
 * Soc; caches and directories both hold a reference to it.
 */
class CoherenceFabric {
  public:
    CoherenceFabric(sim::EventQueue &eq, CoherenceConfig cfg, noc::Mesh &mesh);

    /** Register a coherent cache; returns its dense id (sharer-vector key). */
    unsigned registerCache(CoherentCache &cache);

    /** Add one home directory at @p tile, backed by @p slice_llc. */
    Directory &addSlice(sim::TileId tile, Port &slice_llc);

    unsigned numSlices() const { return static_cast<unsigned>(slices_.size()); }
    Directory &slice(unsigned s) { return *slices_.at(s); }

    unsigned
    homeSlice(sim::Addr line) const
    {
        return static_cast<unsigned>((line >> kLineShift) % slices_.size());
    }

    CoherentCache &cacheById(unsigned id) { return *caches_.at(id); }
    unsigned numCaches() const { return static_cast<unsigned>(caches_.size()); }

    /** Attach the soft-error resilience model; slices pick it up from here
     *  (directory-array ECC + the scrub engine's audits). */
    void setResil(ResilManager *r) { resil_ = r; }
    ResilManager *resil() const { return resil_; }

    /** Cache-miss / upgrade entry point (awaited by Cache). Installs into
     *  the requester before returning. */
    sim::Task<void> fetch(unsigned requester, MemRequest req, sim::Addr line,
                          bool want_m);

    /** Dirty-eviction writeback entry point (spawned detached by Cache). */
    sim::Task<void> putM(unsigned requester, MemRequest req, sim::Addr line);

    /** Coherent non-caching access covering one line (CoherentDmaPort). */
    sim::Task<void> dmaLine(MemRequest req, sim::Addr line, bool write);

    /**
     * One protocol message as a real mesh packet: flitsFor(payload) flits,
     * with CohMsgDelay/CohMsgDrop fault opportunities (a drop burns the
     * flits, times out, and retransmits — protocol liveness is preserved,
     * the latency is not).
     */
    sim::Task<void> message(sim::TileId src, sim::TileId dst, CohMsg kind,
                            unsigned payload_bytes, RequesterClass cls);

    const CoherenceConfig &config() const { return cfg_; }
    CoherenceChecker *checker() { return checker_.get(); }
    sim::EventQueue &eq() { return eq_; }

    std::uint64_t messagesSent(CohMsg m) const
    {
        return msg_counts_[static_cast<std::size_t>(m)];
    }

    /** Aggregate protocol counters across all slices (reports, benches). */
    std::uint64_t totalInvalidations() const;
    std::uint64_t totalInterventions() const;

    /** Snapshot support (per-slice directory state + message counters). */
    void saveState(ckpt::Sink &out) const;
    void loadState(ckpt::Source &in);

  private:
    sim::EventQueue &eq_;
    CoherenceConfig cfg_;
    noc::Mesh &mesh_;
    ResilManager *resil_ = nullptr;
    std::unique_ptr<CoherenceChecker> checker_;
    std::vector<std::unique_ptr<Directory>> slices_;
    std::vector<CoherentCache *> caches_;
    std::array<std::uint64_t, static_cast<std::size_t>(CohMsg::kCount)>
        msg_counts_{};
};

/**
 * Port adaptor giving non-caching agents (MAPLE consume/produce streams,
 * core remote atomics and shared-data fallbacks) a protocol-correct path:
 * each covered line goes through its home directory, which invalidates or
 * downgrades private copies before the LLC slice services the data. The
 * drop-in coherent replacement for the legacy direct-to-LLC RemotePorts.
 */
class CoherentDmaPort : public Port {
  public:
    explicit CoherentDmaPort(CoherenceFabric &fabric) : fabric_(fabric) {}

    sim::Task<void> request(MemRequest req) override;

    /** Attach the resilience model: a core/PTW-class access that reads
     *  poison triggers machine-check containment and one clean retry. */
    void setResil(ResilManager *r) { resil_ = r; }

  private:
    CoherenceFabric &fabric_;
    ResilManager *resil_ = nullptr;
};

}  // namespace maple::mem
