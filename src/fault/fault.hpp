/**
 * @file
 * Deterministic fault injection & liveness bookkeeping.
 *
 * A FaultInjector is registered next to the EventQueue
 * (EventQueue::faultInjector()), mirroring trace::TraceManager, and serves
 * two roles:
 *
 *  - Fault injection: a seeded FaultPlan draws from one dedicated RNG
 *    stream *per fault class* (never the workload generators' streams), so
 *    (a) with all rates zero the simulation is bit-identical to a run with
 *    no injector at all, and (b) enabling one fault class does not perturb
 *    the draw sequence of another. Injectable classes: transient NoC link
 *    stalls, DRAM latency spikes, device-TLB miss storms (forced re-walks)
 *    and delayed MMIO responses. Each injection is counted, charged to a
 *    dedicated StallCause bucket, and emitted as a Perfetto instant when
 *    tracing is on.
 *
 *  - Liveness bookkeeping: every blocking wait in the modeled hardware
 *    (MAPLE queue full/empty, produce buffer, MSHRs, store buffer...)
 *    registers an intrusive ParkGuard while parked. The watchdog
 *    (fault/watchdog.hpp) and the deadlock diagnostic read this registry to
 *    name exactly who is stuck and since when.
 *
 * Every knob (rates, seed, class mask) is a MAPLE_FAULT_* row of the knob
 * table (soc/knobs.hpp).
 *
 * Hard faults (HardSpad, HardTlb) do not add latency: they corrupt state.
 * The device latches architectural error registers and poisons the affected
 * response (RequestMeta::fault_tags); the OS-layer driver (os/maple_driver)
 * detects the poison at the consumer and runs the recovery state machine.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mem/port.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"

namespace maple::fault {

enum class FaultClass : std::uint8_t {
    NocLinkStall,  ///< extra cycles on one directed-mesh-link reservation
    DramSpike,     ///< extra latency on one DRAM access
    TlbStorm,      ///< invalidate the translation first: forced re-walk
    MmioDelay,     ///< extra cycles before an MMIO op enters the device
    HardSpad,      ///< hard fault: a scratchpad fill returns poisoned data
    HardTlb,       ///< hard fault: a device-TLB translation is corrupted
    CohMsgDelay,   ///< extra cycles on one coherence-protocol message
    CohMsgDrop,    ///< a coherence message is lost: timeout + retransmit
    BitFlipL1,     ///< soft error in an L1 data/tag array (needs ECC model)
    BitFlipLlc,    ///< soft error in an LLC slice array (needs ECC model)
    BitFlipDir,    ///< soft error in a sparse-directory entry (needs ECC)
    BitFlipDram,   ///< soft error in a DRAM burst (needs ECC model)
    kCount
};
const char *faultClassName(FaultClass c);

/** Transient faults add latency; hard faults corrupt state and must be
 *  recovered from (device error latch + driver reset + replay). */
inline constexpr bool
isHardFault(FaultClass c)
{
    return c == FaultClass::HardSpad || c == FaultClass::HardTlb;
}

/** Soft-error classes modeled by the ECC layer (mem/resil.hpp). */
inline constexpr bool
isBitFlip(FaultClass c)
{
    return c == FaultClass::BitFlipL1 || c == FaultClass::BitFlipLlc ||
           c == FaultClass::BitFlipDir || c == FaultClass::BitFlipDram;
}

/** Bit in RequestMeta::fault_tags marking a fault hit en route. */
inline constexpr std::uint32_t
faultClassBit(FaultClass c)
{
    return 1u << static_cast<unsigned>(c);
}

/** Probability per opportunity plus the magnitude ceiling (where relevant). */
struct FaultRate {
    double prob = 0.0;         ///< [0,1] chance per injection opportunity
    sim::Cycle max_extra = 0;  ///< injected delay drawn from [1, max_extra]
};

struct FaultConfig {
    std::uint64_t seed = 1;
    FaultRate noc{};    ///< defaults to max_extra 64 when enabled via env
    FaultRate dram{};   ///< defaults to max_extra 2000 when enabled via env
    FaultRate tlb{};    ///< magnitude is organic: the re-walk costs real cycles
    FaultRate mmio{};   ///< defaults to max_extra 200 when enabled via env
    FaultRate hard_spad{};  ///< hard scratchpad-fill corruption (prob only)
    FaultRate hard_tlb{};   ///< hard device-TLB corruption (prob only)
    FaultRate coh_delay{};  ///< defaults to max_extra 64 when enabled via env
    FaultRate coh_drop{};   ///< coherence-message loss (timeout cost is fixed)
    // Soft-error bit flips (mem/resil.hpp decides correctable vs poison).
    // max_extra is the severity ceiling: a draw of 1 is a single-bit
    // (correctable) error, >= 2 is multi-bit (uncorrectable); the env
    // default of 2 gives a 50/50 split.
    FaultRate bitflip_l1{};
    FaultRate bitflip_llc{};
    FaultRate bitflip_dir{};
    FaultRate bitflip_dram{};

    /**
     * Requester classes faults may hit. Opportunities from classes outside
     * the mask are skipped *without* drawing, so a class-targeted campaign
     * never injects into other agents' requests (they only feel second-order
     * contention from the targeted class). Default: everyone.
     */
    std::uint32_t class_mask = mem::kAllRequesterClasses;

    /** True when any class has a nonzero probability. */
    bool anyEnabled() const;
};

/**
 * The seeded draw engine. One xoshiro256** stream per fault class, each
 * derived from the plan seed, so the decision sequence of a class depends
 * only on (seed, its own opportunity order).
 */
class FaultPlan {
  public:
    explicit FaultPlan(const FaultConfig &cfg);

    /**
     * Decide one injection opportunity for @p c. Returns the extra cycles
     * to inject (0 = no fault). For TlbStorm the magnitude is meaningless
     * (the cost is the organic re-walk) and any nonzero return means fire.
     */
    sim::Cycle draw(FaultClass c);

    /** The rate class @p c draws at. */
    const FaultRate &
    rate(FaultClass c) const
    {
        return rates_[static_cast<std::size_t>(c)];
    }

    /** Snapshot support: stream positions only (rates come from config). */
    void
    saveState(ckpt::Sink &out) const
    {
        for (const sim::Rng &r : streams_) {
            for (std::uint64_t w : r.state())
                out.u64(w);
        }
    }

    void
    loadState(ckpt::Source &in)
    {
        for (sim::Rng &r : streams_) {
            sim::Rng::State st;
            for (std::uint64_t &w : st)
                w = in.u64();
            r.setState(st);
        }
    }

  private:
    static constexpr std::size_t kClasses =
        static_cast<std::size_t>(FaultClass::kCount);
    std::array<FaultRate, kClasses> rates_;
    std::array<sim::Rng, kClasses> streams_;
};

/** One injected fault, as recorded in the injector's bounded event log. */
struct FaultEvent {
    sim::Cycle cycle = 0;
    FaultClass cls = FaultClass::kCount;
    sim::Cycle extra = 0;  ///< injected magnitude (0 for hard faults)
};

/** Intrusive registry node for one parked coroutine (see ParkGuard). */
struct ParkNode {
    const char *site = nullptr;          ///< e.g. "consume_empty" (literal)
    const std::string *owner = nullptr;  ///< component name (stable storage)
    unsigned index = 0;                  ///< queue index etc. (site-defined)
    sim::Cycle since = 0;
    ParkNode *prev = nullptr;
    ParkNode *next = nullptr;
};

class FaultInjector {
  public:
    /** Construct and attach to @p eq; detaches in the destructor. */
    FaultInjector(sim::EventQueue &eq, FaultConfig cfg);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultConfig &config() const { return cfg_; }

    /** True when at least one fault class can fire (the active() gate). */
    bool injecting() const { return injecting_; }

    /**
     * Decide one injection opportunity: draws from the plan, and on a hit
     * bumps the occurrence counter and emits a Perfetto instant (when
     * tracing). Returns the extra cycles to inject (0 = no fault).
     */
    sim::Cycle inject(FaultClass c);

    /**
     * Class-keyed injection opportunity: skipped (no draw, no counter) when
     * @p rc is outside the configured requester-class mask. Sites on the
     * typed memory fabric use this overload so fault campaigns can target
     * e.g. only MAPLE's streams or only core demand traffic.
     */
    sim::Cycle
    inject(FaultClass c, mem::RequesterClass rc)
    {
        if (!(cfg_.class_mask & mem::requesterClassBit(rc)))
            return 0;
        return inject(c);
    }

    /**
     * Account @p cycles of injected latency: bumps the per-class cycle
     * counter and charges the matching StallCause::Fault* bucket.
     */
    void chargeCycles(FaultClass c, sim::Cycle cycles);

    std::uint64_t injectedCount(FaultClass c) const
    {
        return counts_[static_cast<std::size_t>(c)];
    }
    std::uint64_t injectedCycles(FaultClass c) const
    {
        return cycles_[static_cast<std::size_t>(c)];
    }

    /**
     * Deterministic jitter for the driver's retry backoff, drawn from a
     * dedicated stream derived from the fault seed. Never shared with the
     * injection streams: recovery retries cannot perturb what faults fire.
     * Returns a value in [0, bound) (0 when bound <= 1).
     */
    sim::Cycle
    recoveryJitter(sim::Cycle bound)
    {
        return bound > 1 ? recovery_rng_.below(bound) : 0;
    }

    /** Last recorded injections, oldest first (bounded ring, see kEventLog). */
    std::vector<FaultEvent> recentFaults() const;

    /// @name Liveness bookkeeping (read by fault::Watchdog)
    /// @{

    /** Register a named component-state dump for the deadlock diagnostic. */
    void
    addDiagnostic(std::string name, std::function<std::string()> fn)
    {
        diagnostics_.push_back({std::move(name), std::move(fn)});
    }

    /** Number of coroutines currently parked on a registered wait. */
    unsigned parkedWaiters() const { return parked_count_; }

    /** Park cycle of the longest-parked waiter; kCycleMax when none. */
    sim::Cycle oldestParkCycle() const;

    /**
     * Exclude waiters owned by @p owner (matched by stable address, the same
     * object components hand their ParkGuards) from the watchdog's
     * parked-waiter accounting. Used while a device is deliberately quiesced
     * for recovery, and permanently once a queue degrades to the software
     * path, so an intentional stall is not reported as a livelock.
     */
    void maskOwner(const std::string &owner);
    void unmaskOwner(const std::string &owner);
    bool ownerMasked(const std::string *owner) const;

    /** parkedWaiters() excluding masked owners (what the watchdog uses). */
    unsigned unmaskedParkedWaiters() const;

    /** oldestParkCycle() excluding masked owners (what the watchdog uses). */
    sim::Cycle oldestUnmaskedParkCycle() const;

    /**
     * The structured diagnostic: parked-waiter list (who/where/since),
     * registered component dumps, and the stall-attribution snapshot when
     * a tracer is attached.
     */
    std::string livenessReport() const;

    /// @}

    /**
     * Snapshot support (src/ckpt). Stream positions, counters and the event
     * log round-trip only when the restoring injector runs the *same* fault
     * configuration (seed, rates, class mask): a snapshot is also a valid
     * warm image for campaigns that vary the fault plan per variant, in
     * which case the restored injector keeps its fresh streams. Parked
     * waiters and owner masks must be empty at both ends (quiesced SoC).
     */
    void saveState(ckpt::Sink &out) const;
    void loadState(ckpt::Source &in);

    /** Hash of the injection-relevant configuration (seed, rates, mask). */
    std::uint64_t configFingerprint() const;

  private:
    friend class ParkGuard;

    void
    link(ParkNode *n)
    {
        n->prev = nullptr;
        n->next = parked_head_;
        if (parked_head_)
            parked_head_->prev = n;
        parked_head_ = n;
        ++parked_count_;
    }

    void
    unlink(ParkNode *n)
    {
        if (n->prev)
            n->prev->next = n->next;
        else
            parked_head_ = n->next;
        if (n->next)
            n->next->prev = n->prev;
        --parked_count_;
    }

    struct Diagnostic {
        std::string name;
        std::function<std::string()> fn;
    };

    sim::EventQueue &eq_;
    FaultConfig cfg_;
    FaultPlan plan_;
    bool injecting_ = false;

    std::array<std::uint64_t, static_cast<std::size_t>(FaultClass::kCount)>
        counts_{};
    std::array<std::uint64_t, static_cast<std::size_t>(FaultClass::kCount)>
        cycles_{};

    ParkNode *parked_head_ = nullptr;
    unsigned parked_count_ = 0;
    std::vector<Diagnostic> diagnostics_;

    /** Owners (stable name addresses) excluded from watchdog accounting. */
    std::vector<const std::string *> masked_owners_;

    /** Bounded ring of recent injections for self-contained hang reports. */
    static constexpr std::size_t kEventLog = 16;
    std::array<FaultEvent, kEventLog> event_log_{};
    std::uint64_t event_count_ = 0;

    /** Dedicated stream for driver retry-backoff jitter (see recoveryJitter). */
    sim::Rng recovery_rng_;

    /// Lazily-created trace track for fault instants.
    trace::TraceManager::TrackId tr_track_ = trace::TraceManager::kNone;
};

/**
 * RAII owner mask: while alive, ParkGuards naming @p owner are invisible to
 * the watchdog. Held by the driver across a recovery (quiesce -> reset ->
 * replay) so the deliberately-stalled device never trips the stall bound.
 */
class OwnerMaskGuard {
  public:
    OwnerMaskGuard(sim::EventQueue &eq, const std::string &owner)
        : fi_(eq.faultInjector()), owner_(&owner)
    {
        if (fi_)
            fi_->maskOwner(owner);
    }

    OwnerMaskGuard(const OwnerMaskGuard &) = delete;
    OwnerMaskGuard &operator=(const OwnerMaskGuard &) = delete;

    ~OwnerMaskGuard()
    {
        if (fi_)
            fi_->unmaskOwner(*owner_);
    }

  private:
    FaultInjector *fi_ = nullptr;
    const std::string *owner_ = nullptr;
};

/**
 * The injection fast path: null when no injector is attached *or* every
 * fault rate is zero. Injection sites are written as
 *
 *     if (fault::FaultInjector *f = fault::active(eq_)) { ... }
 *
 * one pointer load + compare in the common (faults-off) case.
 */
inline FaultInjector *
active(const sim::EventQueue &eq)
{
    FaultInjector *f = eq.faultInjector();
    return (f && f->injecting()) ? f : nullptr;
}

/**
 * RAII registration of one parked coroutine. Lives in the coroutine frame
 * across the wait loop's co_awaits; a no-op (one pointer check) when no
 * injector is attached. Park tracking is wanted even with injection
 * disabled — the watchdog names waiters in ordinary runs too — so this
 * binds to eq.faultInjector() directly, not fault::active().
 */
class ParkGuard {
  public:
    /** index value meaning "no queue/slot index to report". */
    static constexpr unsigned kNoIndex = 0xffffffffu;

    ParkGuard() = default;

    ParkGuard(sim::EventQueue &eq, const char *site, const std::string &owner,
              unsigned index = kNoIndex)
        : fi_(eq.faultInjector())
    {
        if (!fi_)
            return;
        node_.site = site;
        node_.owner = &owner;
        node_.index = index;
        node_.since = eq.now();
        fi_->link(&node_);
    }

    ParkGuard(const ParkGuard &) = delete;
    ParkGuard &operator=(const ParkGuard &) = delete;
    ParkGuard(ParkGuard &&) = delete;
    ParkGuard &operator=(ParkGuard &&) = delete;

    ~ParkGuard()
    {
        if (fi_)
            fi_->unlink(&node_);
    }

  private:
    FaultInjector *fi_ = nullptr;
    ParkNode node_;
};

}  // namespace maple::fault
