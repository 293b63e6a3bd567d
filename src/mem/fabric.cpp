#include "mem/fabric.hpp"

#include "sim/error.hpp"

namespace maple::mem {

const char *
requesterClassName(RequesterClass c)
{
    switch (c) {
    case RequesterClass::Core: return "core";
    case RequesterClass::MapleConsume: return "maple_consume";
    case RequesterClass::MapleProduce: return "maple_produce";
    case RequesterClass::Ptw: return "ptw";
    case RequesterClass::Prefetch: return "prefetch";
    case RequesterClass::Mmio: return "mmio";
    case RequesterClass::Coherence: return "coherence";
    case RequesterClass::kCount: break;
    }
    return "?";
}

const char *
arbPolicyName(ArbPolicy p)
{
    switch (p) {
    case ArbPolicy::Fifo: return "fifo";
    case ArbPolicy::RoundRobinByClass: return "rr";
    case ArbPolicy::CorePriority: return "core-priority";
    }
    return "?";
}

std::optional<ArbPolicy>
parseArbPolicy(std::string_view s)
{
    if (s == "fifo")
        return ArbPolicy::Fifo;
    if (s == "rr" || s == "round-robin" || s == "round-robin-by-class")
        return ArbPolicy::RoundRobinByClass;
    if (s == "core-priority" || s == "core")
        return ArbPolicy::CorePriority;
    return std::nullopt;
}

Arbiter::Arbiter(sim::EventQueue &eq, std::string name, ArbPolicy policy,
                 unsigned flit_bytes)
    : eq_(eq), name_(std::move(name)), policy_(policy), flit_bytes_(flit_bytes)
{
    MAPLE_ASSERT(policy != ArbPolicy::Fifo,
                 "fifo stages keep a null Arbiter; never construct one");
    MAPLE_ASSERT(flit_bytes_ > 0);
}

unsigned
Arbiter::occupancy(std::uint32_t size) const
{
    // Header flit + payload flits: the port ingests one flit per cycle.
    return 1 + (size + flit_bytes_ - 1) / flit_bytes_;
}

sim::Task<void>
Arbiter::admit(const MemRequest &req)
{
    // Copy before any suspension: the reference is only guaranteed for the
    // synchronous prefix of this coroutine.
    unsigned c = static_cast<unsigned>(req.cls);
    unsigned occ = occupancy(req.size);
    if (eq_.now() >= next_free_ && waiting_count_ == 0) {
        // Uncontended: grant in place, occupying the port for our flits.
        next_free_ = eq_.now() + occ;
        ++grants_[c];
        ++total_grants_;
        rr_next_ = (c + 1) % kNumRequesterClasses;
        co_return;
    }
    sim::Cycle enq = eq_.now();
    waiting_[c].push_back(Waiter{sim::Signal{}, occ});
    sim::Signal sig = waiting_[c].back().sig;
    ++waiting_count_;
    if (!pump_running_) {
        pump_running_ = true;
        sim::spawnDetached(eq_, pump());
    }
    co_await sig;
    wait_cycles_ += eq_.now() - enq;
}

unsigned
Arbiter::pick()
{
    // core-priority serves demand agents strictly before MAPLE's decoupled
    // streams, which can always absorb latency (that tolerance is the point
    // of the paper); rr rotates fairly across whoever is waiting.
    static constexpr std::array<RequesterClass, kNumRequesterClasses> kPrio = {
        RequesterClass::Coherence,    RequesterClass::Core,
        RequesterClass::Ptw,          RequesterClass::Mmio,
        RequesterClass::MapleConsume, RequesterClass::MapleProduce,
        RequesterClass::Prefetch,
    };
    if (policy_ == ArbPolicy::CorePriority) {
        for (RequesterClass c : kPrio) {
            unsigned i = static_cast<unsigned>(c);
            if (!waiting_[i].empty())
                return i;
        }
    } else {
        for (unsigned k = 0; k < kNumRequesterClasses; ++k) {
            unsigned i = (rr_next_ + k) % kNumRequesterClasses;
            if (!waiting_[i].empty())
                return i;
        }
    }
    return kNumRequesterClasses;
}

sim::Task<void>
Arbiter::pump()
{
    while (waiting_count_ > 0) {
        if (next_free_ > eq_.now())
            co_await sim::delay(eq_, next_free_ - eq_.now());
        unsigned c = pick();
        MAPLE_ASSERT(c < kNumRequesterClasses, "pump with no waiters");
        Waiter w = std::move(waiting_[c].front());
        waiting_[c].pop_front();
        --waiting_count_;
        next_free_ = eq_.now() + w.occ;
        ++grants_[c];
        ++total_grants_;
        rr_next_ = (c + 1) % kNumRequesterClasses;
        w.sig.set({});
    }
    pump_running_ = false;
}

PortInterposer::PortInterposer(sim::EventQueue &eq, std::string name,
                               Port &downstream, ArbPolicy arb)
    : eq_(eq), name_(std::move(name)), downstream_(downstream),
      stats_(name_)
{
    for (unsigned i = 0; i < kNumRequesterClasses; ++i) {
        auto c = static_cast<RequesterClass>(i);
        std::string cls = requesterClassName(c);
        lat_[i] = &stats_.histogram("latency." + cls, 32.0, 64);
        bytes_[i] = &stats_.counter("bytes." + cls);
        reqs_[i] = &stats_.counter("requests." + cls);
    }
    setArbitration(arb);
}

void
PortInterposer::setArbitration(ArbPolicy p)
{
    if (p == ArbPolicy::Fifo)
        arb_.reset();
    else
        arb_ = std::make_unique<Arbiter>(eq_, name_, p);
}

sim::Task<void>
PortInterposer::request(MemRequest req)
{
    if (arb_)
        co_await arb_->admit(req);
    if (interposer_)
        co_await interposer_->request(req);
    else
        co_await downstream_.request(req);
    auto i = static_cast<std::size_t>(req.cls);
    lat_[i]->sample(static_cast<double>(eq_.now() - req.issue_cycle));
    bytes_[i]->inc(req.size);
    reqs_[i]->inc();
    if (observer_)
        observer_(req);
}

}  // namespace maple::mem
