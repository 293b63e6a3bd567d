/**
 * @file
 * Soft-error resilience for the memory hierarchy: a SECDED ECC model, poison
 * tracking below the caches, per-tile sticky machine-check (MCA) banks, and
 * the background directory scrub engine.
 *
 * The design follows what real manycore parts do (DESIGN.md §15):
 *
 *  - Every protected structure (L1, LLC slice, directory, DRAM) runs its
 *    accesses past check(): a seeded BitFlip* draw (fault/fault.hpp) models
 *    the soft error, and the SECDED code classifies it. A *correctable*
 *    (single-bit) error costs a fixed correction penalty and bumps a
 *    counter; an *uncorrectable* (multi-bit) error cannot be hidden — the
 *    line is marked poisoned and the error is latched into the tile's MCA
 *    bank.
 *
 *  - Poison is data-path state, not control flow: it rides fills,
 *    writebacks, interventions and DMA responses as RequestMeta::poison
 *    until a consumer touches it. A core consuming poison triggers
 *    machine-check containment (the handler installed by the Soc: flush the
 *    line's holders, retire the physical page, resume); MAPLE consuming
 *    poison reuses the hard-fault machinery (MapleStatus::Poisoned + the OS
 *    recovery driver). Poison that reaches DRAM (a poisoned dirty
 *    writeback, or an uncorrectable DRAM error) is sticky per line in
 *    backing_poison_ until containment retires the page.
 *
 *  - The scrub engine is a background loop that wakes every scrub_interval
 *    cycles and audits a batch of directory entries against the ground
 *    truth (CoherentCache::cohState), repairing stale sharer bits (left by
 *    silent S-evictions and by uncorrectable directory-entry corruption)
 *    and counting repairs. It runs as an ordinary event-queue coroutine, so
 *    it is bit-identical across --threads=N and pauses itself whenever the
 *    machine is otherwise idle (snapshots stay possible between run phases;
 *    the cursor round-trips through the checkpoint).
 *
 * Everything here is off by default: with MAPLE_ECC unset/off and no scrub
 * interval, no ResilManager is constructed and the simulation is
 * byte-identical to builds that predate it. The MAPLE_ECC* / MAPLE_SCRUB_*
 * knobs (soc/knobs.hpp) set the config.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/serial.hpp"
#include "fault/fault.hpp"
#include "mem/port.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace maple::mem {

struct ResilConfig {
    bool ecc = false;                ///< SECDED model on (MAPLE_ECC=secded)
    sim::Cycle correct_latency = 8;  ///< penalty per corrected error
    sim::Cycle scrub_interval = 0;   ///< scrub period in cycles (0 = off)
    unsigned scrub_batch = 16;       ///< directory entries audited per pass

    /** True when any part of the resilience subsystem must be built. */
    bool enabled() const { return ecc || scrub_interval > 0; }
};

/** SECDED classification of one access (see ResilManager::check). */
enum class EccOutcome : std::uint8_t {
    Clean,          ///< no error drawn
    Corrected,      ///< single-bit: corrected, caller charges correctPenalty
    Uncorrectable,  ///< multi-bit: the line must be treated as poisoned
};

/** Protected structure in which an error was detected (MCA encoding). */
enum class ResilStructure : std::uint8_t { L1, Llc, Directory, Dram, kCount };
const char *resilStructureName(ResilStructure s);

/**
 * Name the origin of a poisoned response: the first BitFlip* class tagged
 * into @p m's fault_tags, or @p fallback when the tags don't say (poison
 * detected before the request existed, e.g. a poisoned way serving a later
 * hit). Used to fill MCA-bank cause fields and MAPLE error causes.
 */
fault::FaultClass poisonCause(const RequestMeta *m, fault::FaultClass fallback);

/**
 * One tile's sticky machine-check bank. The first error latches structure/
 * cause/addr/cycle; later errors only bump the count, until software clears
 * the bank (an MMIO store to the tile's bank window, or clearMca()).
 */
struct McaBank {
    bool valid = false;
    std::uint8_t structure = 0;  ///< ResilStructure of the first error
    std::uint8_t cause = 0;      ///< fault::FaultClass of the first error
    sim::Addr addr = 0;          ///< line address of the first error
    std::uint64_t count = 0;     ///< errors recorded since the last clear
    sim::Cycle first_cycle = 0;  ///< cycle of the first latched error
};

class ResilManager {
  public:
    ResilManager(sim::EventQueue &eq, ResilConfig cfg, unsigned num_tiles);

    ResilManager(const ResilManager &) = delete;
    ResilManager &operator=(const ResilManager &) = delete;

    const ResilConfig &config() const { return cfg_; }

    /// @name SECDED model
    /// @{

    /**
     * Run one access to @p st past the ECC model: draws the class-keyed
     * BitFlip* opportunity and classifies the severity. On Corrected the
     * correction penalty is accounted (stall attribution) here and the
     * *caller* models it by delaying correctPenalty() cycles. On
     * Uncorrectable the error is latched into @p tile's MCA bank; the
     * caller marks the affected line poisoned. Clean (and free) whenever
     * ECC is off or no injector is active.
     */
    EccOutcome check(fault::FaultClass cls, RequesterClass rc,
                     ResilStructure st, sim::Addr line, sim::TileId tile);

    sim::Cycle correctPenalty() const { return cfg_.correct_latency; }

    /// @}

    /// @name Poison below the caches (per line, sticky until page retire)
    /// @{

    void markBackingPoisoned(sim::Addr line);
    bool
    backingPoisoned(sim::Addr line) const
    {
        return !backing_poison_.empty() && backing_poison_.count(line) > 0;
    }
    /** Containment retired @p page_base: drop all of its line poison. */
    void clearBackingPoisonPage(sim::Addr page_base);
    std::size_t backingPoisonedLines() const { return backing_poison_.size(); }

    /// @}

    /// @name MCA banks (one per mesh tile, MMIO-readable via the Soc)
    /// @{

    void recordMca(sim::TileId tile, ResilStructure st,
                   fault::FaultClass cause, sim::Addr addr);
    const McaBank &mca(sim::TileId tile) const { return mca_.at(tile); }
    void clearMca(sim::TileId tile) { mca_.at(tile) = McaBank{}; }
    unsigned numTiles() const { return static_cast<unsigned>(mca_.size()); }

    /// @}

    /// @name Machine-check containment
    /// @{

    /**
     * The containment handler (os::PageRetirer via the Soc): flush the
     * poisoned line's holders, retire the afflicted physical page, resume.
     * Takes simulated time (kernel handler latency + protocol recalls).
     */
    using ContainFn = std::function<sim::Task<void>(
        sim::Addr line, sim::TileId tile, fault::FaultClass cause)>;
    void setContainHandler(ContainFn fn) { contain_ = std::move(fn); }

    /** True once a containment handler is installed. Consumers only retry
     *  after containment when it can actually repair the line; without a
     *  handler they forward the poison instead (no livelock). */
    bool canContain() const { return static_cast<bool>(contain_); }

    /** A core-class consumer touched poison: run containment. */
    sim::Task<void> contain(sim::Addr line, sim::TileId tile,
                            fault::FaultClass cause);

    /// @}

    /// @name Directory scrub engine
    /// @{

    /**
     * The auditor walks up to @p budget directory entries from @p cursor
     * (advancing and wrapping it) and returns the number of repairs made.
     * Installed by the Soc in msi mode; without one the scrub loop is inert.
     */
    using ScrubFn = std::function<unsigned(std::uint64_t &cursor,
                                           unsigned budget)>;
    void setScrubAuditor(ScrubFn fn) { scrub_auditor_ = std::move(fn); }

    /**
     * Start the background scrub loop if configured and not already
     * running. Called by Soc::run() at every phase start: the loop parks on
     * the event queue, audits one batch per interval while the machine is
     * busy, and exits once it would be the only pending activity (so the
     * queue drains and the SoC can quiesce for snapshots).
     */
    void kickScrub();
    bool scrubRunning() const { return scrub_running_; }
    std::uint64_t scrubCursor() const { return scrub_cursor_; }

    /// @}

    /// @name Telemetry
    /// @{

    std::uint64_t corrected(ResilStructure st) const
    {
        return corrected_[static_cast<std::size_t>(st)]->value();
    }
    std::uint64_t uncorrectable(ResilStructure st) const
    {
        return uncorrectable_[static_cast<std::size_t>(st)]->value();
    }
    std::uint64_t correctedTotal() const;
    std::uint64_t uncorrectableTotal() const;
    std::uint64_t containments() const { return containments_->value(); }
    std::uint64_t retiredPages() const { return retired_pages_->value(); }
    std::uint64_t scrubPasses() const { return scrub_passes_->value(); }
    std::uint64_t scrubRepairs() const { return scrub_repairs_->value(); }

    /** PageRetirer bookkeeping hook: one physical page was remapped. */
    void noteRetiredPage() { retired_pages_->inc(); }

    sim::StatGroup &stats() { return stats_; }

    /** One-line state dump for the deadlock diagnostic. */
    std::string summary() const;

    /// @}

    /**
     * Snapshot support (src/ckpt, Section::Resil). Captures counters, MCA
     * banks, the backing-poison set and the scrub cursor. The scrub loop
     * itself must not be running (quiesced SoC): it restarts from the
     * restored cursor at the next run phase.
     */
    void saveState(ckpt::Sink &out) const;
    void loadState(ckpt::Source &in);

  private:
    sim::Task<void> scrubLoop();

    sim::EventQueue &eq_;
    ResilConfig cfg_;
    sim::StatGroup stats_;

    static constexpr std::size_t kStructures =
        static_cast<std::size_t>(ResilStructure::kCount);
    std::array<sim::Counter *, kStructures> corrected_{};
    std::array<sim::Counter *, kStructures> uncorrectable_{};
    sim::Counter *containments_ = nullptr;
    sim::Counter *retired_pages_ = nullptr;
    sim::Counter *mca_records_ = nullptr;
    sim::Counter *scrub_passes_ = nullptr;
    sim::Counter *scrub_repairs_ = nullptr;

    std::vector<McaBank> mca_;
    /** Ordered so serialization is independent of insertion order. */
    std::set<sim::Addr> backing_poison_;

    ContainFn contain_;
    ScrubFn scrub_auditor_;
    std::uint64_t scrub_cursor_ = 0;
    bool scrub_running_ = false;
};

}  // namespace maple::mem
