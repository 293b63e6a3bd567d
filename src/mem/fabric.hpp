/**
 * @file
 * Fabric-level policy stages for the typed memory-request protocol:
 *
 *  - Arbiter: a pluggable single-issue admission stage (one grant per
 *    cycle) in front of a shared resource. Policies: fifo (pass-through,
 *    models the historical infinite-front-end behavior and is timing-
 *    neutral by construction), round-robin-by-class and core-priority.
 *  - PortInterposer: a reusable observe/reroute/arbitrate stage any port
 *    boundary can host. Generalizes the old one-off soc::LlcFrontEnd: the
 *    shared-LLC front-end is one instance, and memory-side baseline
 *    hardware (the DROPLET prefetch buffer) interposes through it instead
 *    of rewiring ports. Records per-requester-class end-to-end latency
 *    histograms and bandwidth counters.
 */
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "mem/port.hpp"
#include "sim/stats.hpp"

namespace maple::mem {

/** Arbitration policy of a shared fabric stage (LLC front-end, DRAM queue). */
enum class ArbPolicy : std::uint8_t {
    Fifo,              ///< no admission gate: requests pass through untouched
    RoundRobinByClass, ///< single flit-serialized port, classes round-robin
    CorePriority,      ///< single flit-serialized port, cores (then PTW) first
};

const char *arbPolicyName(ArbPolicy p);

/** Parse "fifo" | "rr" | "round-robin" | "core-priority"; nullopt if unknown. */
std::optional<ArbPolicy> parseArbPolicy(std::string_view s);

/**
 * Single-ported admission stage: the protected resource ingests one flit
 * (16 bytes by default, header included) per cycle, so a request occupies
 * the port for 1 + ceil(size / flit_bytes) cycles and later arrivals queue.
 * When several classes are waiting, the policy picks who goes next. Only
 * constructed for non-fifo policies -- fifo stages keep a null Arbiter and
 * model the historical infinitely-ported front-end, which is what makes
 * the default configuration bit-identical to the pre-fabric implementation.
 */
class Arbiter {
  public:
    Arbiter(sim::EventQueue &eq, std::string name, ArbPolicy policy,
            unsigned flit_bytes = 16);

    /** Completes when the request is granted an issue slot. */
    sim::Task<void> admit(const MemRequest &req);

    ArbPolicy policy() const { return policy_; }
    std::uint64_t grants(RequesterClass c) const
    {
        return grants_[static_cast<std::size_t>(c)];
    }
    std::uint64_t totalGrants() const { return total_grants_; }

    /** Cycles requests spent queued at this stage, summed over requests. */
    sim::Cycle waitCycles() const { return wait_cycles_; }

    /** Snapshot support; requires no queued waiters (quiesced SoC). */
    void
    saveState(ckpt::Sink &out) const
    {
        MAPLE_ASSERT(waiting_count_ == 0 && !pump_running_,
                     "snapshot with queued arbiter waiters");
        out.u32(rr_next_);
        out.u64(next_free_);
        for (std::uint64_t g : grants_)
            out.u64(g);
        out.u64(total_grants_);
        out.u64(wait_cycles_);
    }

    void
    loadState(ckpt::Source &in)
    {
        MAPLE_ASSERT(waiting_count_ == 0 && !pump_running_,
                     "restore with queued arbiter waiters");
        rr_next_ = in.u32();
        next_free_ = in.u64();
        for (std::uint64_t &g : grants_)
            g = in.u64();
        total_grants_ = in.u64();
        wait_cycles_ = in.u64();
    }

  private:
    struct Waiter {
        sim::Signal sig;
        unsigned occ;  ///< port cycles this request holds once granted
    };

    /** Port cycles a @p size -byte request occupies (header + payload). */
    unsigned occupancy(std::uint32_t size) const;

    /** Index of the next class to serve, or kNumRequesterClasses if none. */
    unsigned pick();

    /** Drains the waiter queues, one grant per freed port slot. */
    sim::Task<void> pump();

    sim::EventQueue &eq_;
    std::string name_;
    ArbPolicy policy_;
    unsigned flit_bytes_;
    std::array<std::deque<Waiter>, kNumRequesterClasses> waiting_;
    unsigned waiting_count_ = 0;
    bool pump_running_ = false;
    unsigned rr_next_ = 0;
    sim::Cycle next_free_ = 0;
    std::array<std::uint64_t, kNumRequesterClasses> grants_{};
    std::uint64_t total_grants_ = 0;
    sim::Cycle wait_cycles_ = 0;
};

/**
 * Reusable port-boundary stage: arbitrates admission (optional), reroutes
 * through an interposed Port (optional), forwards downstream, then samples
 * per-requester-class end-to-end latency (completion cycle minus the
 * origin's issue cycle) and bandwidth, and finally notifies an observer.
 * Stats live in a StatGroup ("latency.<class>" histograms, "bytes.<class>"
 * and "requests.<class>" counters) so the harness dumps them alongside
 * every other component.
 */
class PortInterposer : public Port {
  public:
    using Observer = std::function<void(const MemRequest &req)>;

    PortInterposer(sim::EventQueue &eq, std::string name, Port &downstream,
                   ArbPolicy arb = ArbPolicy::Fifo);

    /** Called after each completed request (observation only, no timing). */
    void setObserver(Observer o) { observer_ = std::move(o); }

    /**
     * Interpose memory-side hardware (e.g. the DROPLET prefetch buffer) at
     * this boundary: when set, all traffic routes through @p p, which is
     * expected to forward to the downstream stage itself. Pass nullptr to
     * remove.
     */
    void setInterposer(Port *p) { interposer_ = p; }

    /** Swap the arbitration policy (rebuilds the admission stage). */
    void setArbitration(ArbPolicy p);

    sim::Task<void> request(MemRequest req) override;

    ArbPolicy arbitration() const { return arb_ ? arb_->policy() : ArbPolicy::Fifo; }
    Arbiter *arbiter() { return arb_.get(); }

    sim::StatGroup &stats() { return stats_; }
    const sim::StatGroup &stats() const { return stats_; }

    /** End-to-end latency histogram of one requester class. */
    const sim::Histogram &classLatency(RequesterClass c) const
    {
        return *lat_[static_cast<std::size_t>(c)];
    }

    /** Bytes moved on behalf of one requester class. */
    std::uint64_t classBytes(RequesterClass c) const
    {
        return bytes_[static_cast<std::size_t>(c)]->value();
    }

    /** Requests completed on behalf of one requester class. */
    std::uint64_t classRequests(RequesterClass c) const
    {
        return reqs_[static_cast<std::size_t>(c)]->value();
    }

    /**
     * Snapshot support. The stats StatGroup is restored in place (the
     * lat_/bytes_/reqs_ borrowed pointers stay valid); the arbiter, when
     * present, carries its own grant bookkeeping.
     */
    void
    saveState(ckpt::Sink &out) const
    {
        stats_.saveState(out);
        out.b(arb_ != nullptr);
        if (arb_)
            arb_->saveState(out);
    }

    void
    loadState(ckpt::Source &in)
    {
        stats_.loadState(in);
        bool had_arb = in.b();
        MAPLE_CHECK(had_arb == (arb_ != nullptr), ckpt::SnapshotError,
                    "arbitration-policy mismatch in snapshot (%s)",
                    name_.c_str());
        if (arb_)
            arb_->loadState(in);
    }

  private:
    sim::EventQueue &eq_;
    std::string name_;
    Port &downstream_;
    Observer observer_;
    Port *interposer_ = nullptr;
    std::unique_ptr<Arbiter> arb_;
    sim::StatGroup stats_;
    // Borrowed pointers into stats_ (std::map storage: stable addresses),
    // indexed by class so the hot path never does a string lookup.
    std::array<sim::Histogram *, kNumRequesterClasses> lat_{};
    std::array<sim::Counter *, kNumRequesterClasses> bytes_{};
    std::array<sim::Counter *, kNumRequesterClasses> reqs_{};
};

}  // namespace maple::mem
