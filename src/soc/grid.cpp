#include "soc/grid.hpp"

#include "fault/watchdog.hpp"
#include "sim/error.hpp"
#include "sim/log.hpp"
#include "soc/knobs.hpp"

namespace maple::soc {

SocGridConfig
SocGridConfig::uniform(const SocConfig &proto, unsigned chips)
{
    MAPLE_CHECK(chips >= 1, sim::ConfigError, "grid needs at least one chip");
    SocGridConfig cfg;
    cfg.socs.reserve(chips);
    for (unsigned i = 0; i < chips; ++i) {
        SocConfig c = proto;
        c.name = proto.name + "." + std::to_string(i);
        cfg.socs.push_back(std::move(c));
    }
    return cfg;
}

SocGrid::SocGrid(SocGridConfig cfg) : cfg_(std::move(cfg))
{
    MAPLE_CHECK(!cfg_.socs.empty(), sim::ConfigError, "empty SocGrid");
    cfg_.host_threads = resolveHostThreads(cfg_.host_threads);
    socs_.reserve(cfg_.socs.size());
    for (const SocConfig &sc : cfg_.socs) {
        socs_.push_back(std::make_unique<Soc>(sc));
        engine_.addDomain(socs_.back()->eq(), socs_.back()->config().name);
    }
}

mem::CrossDomainPort &
SocGrid::linkPort(unsigned src, unsigned dst)
{
    MAPLE_CHECK(src < size() && dst < size() && src != dst, sim::ConfigError,
                "bad link %u -> %u in a %u-chip grid", src, dst, size());
    links_.push_back(std::make_unique<mem::CrossDomainPort>(
        engine_, src, soc(src).eq(), dst, soc(dst).eq(), soc(dst).llcFront(),
        cfg_.link_latency));
    return *links_.back();
}

sim::Cycle
SocGrid::run(std::vector<sim::Join> joins, sim::Cycle max_cycles)
{
    const sim::Cycle start = socs_[0]->eq().now();
    engine_.setBoundaryHook([this](sim::Cycle) {
        // Per-chip watchdog stall rule, in domain-id order so any deadlock
        // diagnosis is thread-count-independent.
        for (auto &s : socs_) {
            if (s->config().watchdog.enabled)
                fault::Watchdog::checkStall(s->eq(), s->config().watchdog);
        }
    });
    sim::ShardedEngine::RunOptions ro;
    ro.threads = cfg_.host_threads;
    ro.max_cycles = max_cycles;
    ro.quantum = cfg_.quantum;
    bool drained = engine_.run(ro);
    for (const sim::Join &j : joins) {
        if (j.done())
            j.get();  // rethrows workload exceptions
    }
    if (!drained) {
        // Attribute the timeout to the first chip that still has work.
        for (auto &s : socs_) {
            if (s->eq().pending() == 0)
                continue;
            fault::Watchdog::failDeadlock(
                s->eq(), sim::detail::formatString(
                             "grid chip \"%s\" did not quiesce within %llu "
                             "cycles",
                             s->config().name.c_str(),
                             (unsigned long long)(max_cycles - start)));
        }
        fault::Watchdog::failDeadlock(
            socs_[0]->eq(), "grid did not quiesce (messages still in flight)");
    }
    for (const sim::Join &j : joins) {
        if (!j.done()) {
            fault::Watchdog::failDeadlock(
                socs_[0]->eq(),
                "grid drained but a task never finished "
                "(deadlock in simulated software?)");
        }
    }
    return socs_[0]->eq().now() - start;
}

}  // namespace maple::soc
