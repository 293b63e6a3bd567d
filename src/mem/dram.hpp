/**
 * @file
 * Main-memory timing model: fixed access latency plus a bandwidth model
 * implemented as channel-slot reservation (Table 2/3: 300-cycle latency,
 * ~64B per cycle aggregate bandwidth by default). The queue front-end can
 * host a non-fifo Arbiter (DramParams::arb), and per-requester-class
 * bandwidth/latency stats attribute every access to the agent that caused
 * it -- the line fill a core miss triggered bills the core, not the LLC.
 */
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "mem/fabric.hpp"
#include "mem/physical_memory.hpp"
#include "mem/port.hpp"
#include "mem/resil.hpp"
#include "sim/stats.hpp"

namespace maple::mem {

struct DramParams {
    sim::Cycle latency = 300;          ///< closed-bank access latency
    sim::Cycle cycles_per_line = 1;    ///< serialization cost per 64B line
    unsigned channels = 1;             ///< independent channel slots
    ArbPolicy arb = ArbPolicy::Fifo;   ///< queue front-end arbitration
};

class Dram : public Port {
  public:
    Dram(sim::EventQueue &eq, DramParams params = {})
        : eq_(eq), params_(params), channel_free_(params.channels, 0),
          stats_("dram")
    {
        MAPLE_ASSERT(params.channels > 0);
        for (unsigned i = 0; i < kNumRequesterClasses; ++i) {
            auto c = static_cast<RequesterClass>(i);
            std::string cls = requesterClassName(c);
            lat_[i] = &stats_.histogram("latency." + cls, 32.0, 64);
            bytes_[i] = &stats_.counter("bytes." + cls);
        }
        if (params_.arb != ArbPolicy::Fifo)
            arb_ = std::make_unique<Arbiter>(eq_, "dram", params_.arb);
    }

    sim::Task<void>
    request(MemRequest req) override
    {
        if (arb_)
            co_await arb_->admit(req);
        reads_.inc();
        // Line-interleaved channel mapping.
        unsigned lines = std::max<std::uint32_t>(1, (req.size + kLineSize - 1) / kLineSize);
        unsigned ch = static_cast<unsigned>((req.paddr >> kLineShift) % params_.channels);
        sim::Cycle now = eq_.now();
        sim::Cycle start = std::max(now, channel_free_[ch]);
        channel_free_[ch] = start + params_.cycles_per_line * lines;
        sim::Cycle done = channel_free_[ch] + params_.latency;
        // Injected latency spike: this access's data returns late (the
        // channel slot itself is not held, mimicking a row-buffer-miss /
        // refresh collision rather than lost bandwidth).
        if (fault::FaultInjector *f = fault::active(eq_)) {
            if (sim::Cycle d = f->inject(fault::FaultClass::DramSpike, req.cls)) {
                done += d;
                f->chargeCycles(fault::FaultClass::DramSpike, d);
                if (req.meta)
                    req.meta->fault_tags |=
                        fault::faultClassBit(fault::FaultClass::DramSpike);
            }
        }
        if (resil_ && req.kind != AccessKind::Write) {
            // ECC on the array read. A corrected error stretches this
            // access; an uncorrectable one marks the line poisoned in the
            // backing store (sticky until containment retires the page).
            EccOutcome o =
                resil_->check(fault::FaultClass::BitFlipDram, req.cls,
                              ResilStructure::Dram, lineBase(req.paddr),
                              req.tile);
            if (o == EccOutcome::Corrected)
                done += resil_->correctPenalty();
            else if (o == EccOutcome::Uncorrectable)
                resil_->markBackingPoisoned(lineBase(req.paddr));
            // Any covered line already recorded as poisoned (a poisoned
            // dirty writeback landed here earlier) poisons the response.
            if (req.meta && resil_->backingPoisonedLines() > 0) {
                for (sim::Addr l = lineBase(req.paddr),
                               end = lineBase(req.paddr + req.size - 1);
                     l <= end; l += kLineSize) {
                    if (resil_->backingPoisoned(l)) {
                        req.meta->poison = true;
                        req.meta->fault_tags |= fault::faultClassBit(
                            fault::FaultClass::BitFlipDram);
                        break;
                    }
                }
            }
        }
        queue_wait_.sample(static_cast<double>(start - now));
        co_await sim::delay(eq_, done - now);
        auto i = static_cast<std::size_t>(req.cls);
        lat_[i]->sample(static_cast<double>(eq_.now() - req.issue_cycle));
        bytes_[i]->inc(req.size);
    }

    std::uint64_t requests() const { return reads_.value(); }
    double meanQueueWait() const { return queue_wait_.mean(); }

    sim::StatGroup &stats() { return stats_; }
    const sim::StatGroup &stats() const { return stats_; }

    /** Bytes moved on behalf of one requester class. */
    std::uint64_t classBytes(RequesterClass c) const
    {
        return bytes_[static_cast<std::size_t>(c)]->value();
    }

    Arbiter *arbiter() { return arb_.get(); }

    /** Attach the soft-error resilience model (ECC + backing poison). */
    void setResil(ResilManager *r) { resil_ = r; }

    /** Snapshot support (quiesced: no access in flight holds a channel). */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.expect64(channel_free_.size(), "DRAM channel count");
        for (sim::Cycle &c : channel_free_)
            ar.u64(c);
        reads_.state(ar);
        queue_wait_.state(ar);
        stats_.state(ar);
        ar.expect8(arb_ != nullptr, "DRAM arbiter presence");
        if (arb_)
            arb_->state(ar);
    }

  private:
    sim::EventQueue &eq_;
    DramParams params_;
    std::vector<sim::Cycle> channel_free_;
    ResilManager *resil_ = nullptr;
    sim::Counter reads_;
    sim::Average queue_wait_;
    std::unique_ptr<Arbiter> arb_;
    sim::StatGroup stats_;
    // Borrowed pointers into stats_ (stable std::map storage).
    std::array<sim::Histogram *, kNumRequesterClasses> lat_{};
    std::array<sim::Counter *, kNumRequesterClasses> bytes_{};
};

}  // namespace maple::mem
