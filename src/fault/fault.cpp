#include "fault/fault.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "sim/fnv.hpp"
#include "sim/log.hpp"

namespace maple::fault {

const char *
faultClassName(FaultClass c)
{
    switch (c) {
      case FaultClass::NocLinkStall: return "noc_link_stall";
      case FaultClass::DramSpike:    return "dram_spike";
      case FaultClass::TlbStorm:     return "tlb_storm";
      case FaultClass::MmioDelay:    return "mmio_delay";
      case FaultClass::HardSpad:     return "hard_spad";
      case FaultClass::HardTlb:      return "hard_tlb";
      case FaultClass::CohMsgDelay:  return "coh_msg_delay";
      case FaultClass::CohMsgDrop:   return "coh_msg_drop";
      case FaultClass::BitFlipL1:    return "bitflip_l1";
      case FaultClass::BitFlipLlc:   return "bitflip_llc";
      case FaultClass::BitFlipDir:   return "bitflip_dir";
      case FaultClass::BitFlipDram:  return "bitflip_dram";
      default:                       return "?";
    }
}

bool
FaultConfig::anyEnabled() const
{
    return noc.prob > 0 || dram.prob > 0 || tlb.prob > 0 || mmio.prob > 0 ||
           hard_spad.prob > 0 || hard_tlb.prob > 0 || coh_delay.prob > 0 ||
           coh_drop.prob > 0 || bitflip_l1.prob > 0 || bitflip_llc.prob > 0 ||
           bitflip_dir.prob > 0 || bitflip_dram.prob > 0;
}

FaultPlan::FaultPlan(const FaultConfig &cfg)
    : rates_{cfg.noc, cfg.dram, cfg.tlb, cfg.mmio, cfg.hard_spad, cfg.hard_tlb,
             cfg.coh_delay, cfg.coh_drop, cfg.bitflip_l1, cfg.bitflip_llc,
             cfg.bitflip_dir, cfg.bitflip_dram},
      // Distinct splitmix-derived stream per class: the decision sequence of
      // one class is a pure function of (seed, class), so enabling or
      // re-rating another class cannot perturb it.
      streams_{sim::Rng(cfg.seed ^ 0x9e3779b97f4a7c15ull),
               sim::Rng(cfg.seed ^ 0xbf58476d1ce4e5b9ull),
               sim::Rng(cfg.seed ^ 0x94d049bb133111ebull),
               sim::Rng(cfg.seed ^ 0xd6e8feb86659fd93ull),
               sim::Rng(cfg.seed ^ 0xa0761d6478bd642full),
               sim::Rng(cfg.seed ^ 0xe7037ed1a0b428dbull),
               sim::Rng(cfg.seed ^ 0x60bee2bee120fc15ull),
               sim::Rng(cfg.seed ^ 0x1b56c4f5231419c9ull),
               sim::Rng(cfg.seed ^ 0x7fb5d329728ea185ull),
               sim::Rng(cfg.seed ^ 0x81dadef4bc2dd44dull),
               sim::Rng(cfg.seed ^ 0x8ebc6af09c88c6e3ull),
               sim::Rng(cfg.seed ^ 0x589965cc75374cc3ull)}
{
}

sim::Cycle
FaultPlan::draw(FaultClass c)
{
    const auto i = static_cast<std::size_t>(c);
    const FaultRate &r = rates_[i];
    if (r.prob <= 0.0)
        return 0;
    if (streams_[i].uniform() >= r.prob)
        return 0;
    if (r.max_extra <= 1)
        return 1;
    return 1 + streams_[i].below(r.max_extra);
}

FaultInjector::FaultInjector(sim::EventQueue &eq, FaultConfig cfg)
    : eq_(eq), cfg_(cfg), plan_(cfg), injecting_(cfg.anyEnabled())
{
    eq_.attachFaultInjector(this);
    if (injecting_) {
        std::fprintf(stderr,
                     "fault: injection enabled (seed=%llu noc=%g:%llu "
                     "dram=%g:%llu tlb=%g mmio=%g:%llu hard_spad=%g "
                     "hard_tlb=%g)\n",
                     (unsigned long long)cfg_.seed, cfg_.noc.prob,
                     (unsigned long long)cfg_.noc.max_extra, cfg_.dram.prob,
                     (unsigned long long)cfg_.dram.max_extra, cfg_.tlb.prob,
                     cfg_.mmio.prob, (unsigned long long)cfg_.mmio.max_extra,
                     cfg_.hard_spad.prob, cfg_.hard_tlb.prob);
    }
}

FaultInjector::PlanState::PlanState(const FaultConfig &cfg)
    : streams(cfg), recovery_rng(cfg.seed ^ 0x2545f4914f6cdd1dull)
{
}

FaultInjector::~FaultInjector()
{
    if (eq_.faultInjector() == this)
        eq_.detachFaultInjector();
}

namespace {

trace::StallCause
stallCauseOf(FaultClass c)
{
    switch (c) {
      case FaultClass::NocLinkStall: return trace::StallCause::FaultNoc;
      case FaultClass::DramSpike:    return trace::StallCause::FaultDram;
      case FaultClass::TlbStorm:     return trace::StallCause::FaultTlb;
      case FaultClass::HardSpad:
      case FaultClass::HardTlb:      return trace::StallCause::FaultRecovery;
      // Coherence messages ride the NoC; their injected latency lands in
      // the same stall bucket as organic link congestion.
      case FaultClass::CohMsgDelay:
      case FaultClass::CohMsgDrop:   return trace::StallCause::FaultNoc;
      // ECC correction penalties reuse existing buckets (no new StallCause
      // entries, keeping the trace CSV schema stable): a DRAM-side flip is
      // memory latency, SRAM-side corrections land with recovery overhead.
      case FaultClass::BitFlipDram:  return trace::StallCause::FaultDram;
      case FaultClass::BitFlipL1:
      case FaultClass::BitFlipLlc:
      case FaultClass::BitFlipDir:   return trace::StallCause::FaultRecovery;
      default:                       return trace::StallCause::FaultMmio;
    }
}

trace::Category
categoryOf(FaultClass c)
{
    switch (c) {
      case FaultClass::NocLinkStall: return trace::Category::Noc;
      case FaultClass::CohMsgDelay:  return trace::Category::Noc;
      case FaultClass::CohMsgDrop:   return trace::Category::Noc;
      case FaultClass::DramSpike:    return trace::Category::Mem;
      case FaultClass::BitFlipL1:
      case FaultClass::BitFlipLlc:
      case FaultClass::BitFlipDir:
      case FaultClass::BitFlipDram:  return trace::Category::Mem;
      default:                       return trace::Category::Maple;
    }
}

const char *
instantName(FaultClass c)
{
    switch (c) {
      case FaultClass::NocLinkStall: return "fault:noc_link_stall";
      case FaultClass::DramSpike:    return "fault:dram_spike";
      case FaultClass::TlbStorm:     return "fault:tlb_storm";
      case FaultClass::HardSpad:     return "fault:hard_spad";
      case FaultClass::HardTlb:      return "fault:hard_tlb";
      case FaultClass::CohMsgDelay:  return "fault:coh_msg_delay";
      case FaultClass::CohMsgDrop:   return "fault:coh_msg_drop";
      case FaultClass::BitFlipL1:    return "fault:bitflip_l1";
      case FaultClass::BitFlipLlc:   return "fault:bitflip_llc";
      case FaultClass::BitFlipDir:   return "fault:bitflip_dir";
      case FaultClass::BitFlipDram:  return "fault:bitflip_dram";
      default:                       return "fault:mmio_delay";
    }
}

}  // namespace

sim::Cycle
FaultInjector::inject(FaultClass c)
{
    sim::Cycle extra = plan_.streams.draw(c);
    if (extra == 0)
        return 0;
    ++plan_.counts[static_cast<std::size_t>(c)];
    // Hard faults carry no latency magnitude; log them with extra 0.
    plan_.event_log[plan_.event_count % kEventLog] = {
        eq_.now(), c, isHardFault(c) ? 0 : extra};
    ++plan_.event_count;
    if (trace::TraceManager *t = trace::active(eq_)) {
        if (tr_track_ == trace::TraceManager::kNone)
            tr_track_ = t->track("faults");
        t->instant(tr_track_, instantName(c), categoryOf(c));
    }
    return extra;
}

std::vector<FaultEvent>
FaultInjector::recentFaults() const
{
    std::vector<FaultEvent> out;
    const std::uint64_t total = plan_.event_count;
    const std::uint64_t n = std::min<std::uint64_t>(total, kEventLog);
    out.reserve(n);
    for (std::uint64_t i = total - n; i < total; ++i)
        out.push_back(plan_.event_log[i % kEventLog]);
    return out;
}

void
FaultInjector::maskOwner(const std::string &owner)
{
    masked_owners_.push_back(&owner);
}

void
FaultInjector::unmaskOwner(const std::string &owner)
{
    // Erase one occurrence: masks nest (RAII guard + permanent degradation).
    auto it = std::find(masked_owners_.begin(), masked_owners_.end(), &owner);
    if (it != masked_owners_.end())
        masked_owners_.erase(it);
}

bool
FaultInjector::ownerMasked(const std::string *owner) const
{
    return owner && std::find(masked_owners_.begin(), masked_owners_.end(),
                              owner) != masked_owners_.end();
}

unsigned
FaultInjector::unmaskedParkedWaiters() const
{
    if (masked_owners_.empty())
        return parked_count_;
    unsigned n = 0;
    for (const ParkNode *p = parked_head_; p; p = p->next)
        if (!ownerMasked(p->owner))
            ++n;
    return n;
}

sim::Cycle
FaultInjector::oldestUnmaskedParkCycle() const
{
    if (masked_owners_.empty())
        return oldestParkCycle();
    sim::Cycle oldest = sim::kCycleMax;
    for (const ParkNode *n = parked_head_; n; n = n->next)
        if (!ownerMasked(n->owner))
            oldest = std::min(oldest, n->since);
    return oldest;
}

void
FaultInjector::chargeCycles(FaultClass c, sim::Cycle cycles)
{
    if (cycles == 0)
        return;
    plan_.cycles[static_cast<std::size_t>(c)] += cycles;
    if (trace::TraceManager *t = trace::active(eq_))
        t->attributeStall(stallCauseOf(c), cycles);
}

sim::Cycle
FaultInjector::oldestParkCycle() const
{
    sim::Cycle oldest = sim::kCycleMax;
    for (const ParkNode *n = parked_head_; n; n = n->next)
        oldest = std::min(oldest, n->since);
    return oldest;
}

std::string
FaultInjector::livenessReport() const
{
    std::ostringstream os;
    const sim::Cycle now = eq_.now();
    os << "parked waiters (" << parked_count_ << "):\n";
    if (!parked_head_)
        os << "  (none)\n";
    for (const ParkNode *n = parked_head_; n; n = n->next) {
        os << "  - " << (n->owner ? *n->owner : std::string("?")) << ":"
           << (n->site ? n->site : "?");
        if (n->index != ParkGuard::kNoIndex)
            os << " #" << n->index;
        os << " parked since cycle " << n->since << " (" << (now - n->since)
           << " cycles ago)\n";
    }
    if (!diagnostics_.empty()) {
        os << "component state:\n";
        for (const Diagnostic &d : diagnostics_)
            os << "  " << d.name << ": " << d.fn() << "\n";
    }
    bool any_injected = false;
    for (std::uint64_t n : plan_.counts)
        any_injected |= n != 0;
    if (any_injected) {
        os << "injected faults:\n";
        for (std::size_t i = 0; i < kClasses; ++i) {
            if (plan_.counts[i] == 0)
                continue;
            os << "  " << faultClassName(static_cast<FaultClass>(i)) << ": "
               << plan_.counts[i] << " (" << plan_.cycles[i] << " cycles)\n";
        }
        // The tail of the injection event log makes hang reports
        // self-contained: the last faults before the stall are usually the
        // trigger, and reproducing them needs only (seed, class, cycle).
        os << "recent injected faults (last "
           << std::min<std::uint64_t>(plan_.event_count, kEventLog) << " of "
           << plan_.event_count << "):\n";
        for (const FaultEvent &e : recentFaults()) {
            os << "  - cycle " << e.cycle << ": " << faultClassName(e.cls);
            if (e.extra > 0)
                os << " (+" << e.extra << " cycles)";
            os << "\n";
        }
    }
    if (trace::TraceManager *t = eq_.tracer())
        os << t->stallReport();
    return os.str();
}

namespace {

void
fnvMixRate(std::uint64_t &h, const FaultRate &r)
{
    sim::fnvMix(h, std::bit_cast<std::uint64_t>(r.prob));
    sim::fnvMix(h, r.max_extra);
}

}  // namespace

std::uint64_t
FaultInjector::configFingerprint() const
{
    // Seeded with the standard offset basis, not sim::kFnvOffset: snapshot
    // images and cache keys embed this fingerprint.
    std::uint64_t h = 0xcbf29ce484222325ull;
    sim::fnvMix(h, cfg_.seed);
    sim::fnvMix(h, cfg_.class_mask);
    fnvMixRate(h, cfg_.noc);
    fnvMixRate(h, cfg_.dram);
    fnvMixRate(h, cfg_.tlb);
    fnvMixRate(h, cfg_.mmio);
    fnvMixRate(h, cfg_.hard_spad);
    fnvMixRate(h, cfg_.hard_tlb);
    // Mixed only when enabled so a coherence-free config fingerprints
    // identically to builds that predate these classes.
    if (cfg_.coh_delay.prob > 0)
        fnvMixRate(h, cfg_.coh_delay);
    if (cfg_.coh_drop.prob > 0)
        fnvMixRate(h, cfg_.coh_drop);
    if (cfg_.bitflip_l1.prob > 0)
        fnvMixRate(h, cfg_.bitflip_l1);
    if (cfg_.bitflip_llc.prob > 0)
        fnvMixRate(h, cfg_.bitflip_llc);
    if (cfg_.bitflip_dir.prob > 0)
        fnvMixRate(h, cfg_.bitflip_dir);
    if (cfg_.bitflip_dram.prob > 0)
        fnvMixRate(h, cfg_.bitflip_dram);
    return h;
}

template <class Ar>
void
FaultInjector::PlanState::state(Ar &ar)
{
    streams.state(ar);
    for (std::uint64_t &c : counts)
        ar.u64(c);
    for (std::uint64_t &c : cycles)
        ar.u64(c);
    for (FaultEvent &e : event_log) {
        ar.u64(e.cycle);
        ar.u32(e.cls);
        ar.u64(e.extra);
    }
    ar.u64(event_count);
    recovery_rng.state(ar);
}

template <class Ar>
void
FaultInjector::state(Ar &ar)
{
    MAPLE_ASSERT(parked_count_ == 0 && masked_owners_.empty(),
                 "snapshot/restore with parked waiters or masked owners");
    // The section is always consumed, but it applies only when the
    // restoring injector runs the identical fault configuration. A campaign
    // variant with a different plan reads it into a scratch copy and keeps
    // its own streams.
    std::uint64_t fingerprint = configFingerprint();
    ar.u64(fingerprint);
    if (Ar::kLoading && fingerprint != configFingerprint()) {
        PlanState scratch = plan_;
        scratch.state(ar);
    } else {
        plan_.state(ar);
    }
    // The trace-track handle tracks the tracer's table, which round-trips
    // independently of the fault plan: restore it unconditionally.
    ar.u32(tr_track_);
}

template void FaultInjector::state(ckpt::Sink &);
template void FaultInjector::state(ckpt::Source &);

}  // namespace maple::fault
