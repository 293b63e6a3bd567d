#include "workloads/workload.hpp"

#include <deque>
#include <optional>

#include "baselines/desc.hpp"
#include "baselines/droplet.hpp"
#include "baselines/sw_queue.hpp"

namespace maple::app {

namespace {

bool
decouples(Technique t)
{
    return t == Technique::MapleDecouple || t == Technique::SwDecouple ||
           t == Technique::Desc;
}

/** MAPLE queue @p q: the access thread hands MAPLE a pointer and runs on. */
class MaplePairQueue final : public PairQueue {
  public:
    MaplePairQueue(core::MapleApi &api, unsigned q) : api_(api), q_(q) {}

    sim::Task<void>
    supply(cpu::Core &core, sim::Addr vaddr) override
    {
        co_await core.compute(1);  // address generation
        // PRODUCE_PTR: MAPLE fetches the value while the access thread
        // moves on to the next index.
        co_await api_.producePtr(core, q_, vaddr);
    }

    sim::Task<std::uint64_t>
    take(cpu::Core &core) override
    {
        // CONSUME, one MMIO load. Returning the core's Task (no co_await)
        // adds no coroutine frame; the same holds for the ring's take.
        return api_.consume(core, q_);
    }

  private:
    core::MapleApi &api_;
    unsigned q_;
};

/** Ring buffer in shared memory (baselines::SwQueue). */
class SwPairQueue final : public PairQueue {
  public:
    explicit SwPairQueue(os::Process &proc) : ring_(proc, 1024) {}

    sim::Task<void>
    supply(cpu::Core &core, sim::Addr vaddr) override
    {
        // The access thread loads the value itself; on this in-order core
        // the load blocks, which is exactly the ring's loss of runahead.
        std::uint64_t v = co_await core.load(vaddr, 4);
        co_await ring_.produce(core, v);
    }

    sim::Task<std::uint64_t>
    take(cpu::Core &core) override
    {
        // Ring management plus shared loads and stores of the slot and head.
        return ring_.consume(core);
    }

  private:
    baselines::SwQueue ring_;
};

}  // namespace

const char *
techniqueName(Technique t)
{
    switch (t) {
      case Technique::Doall: return "doall";
      case Technique::SwDecouple: return "sw-decouple";
      case Technique::MapleDecouple: return "maple-decouple";
      case Technique::NoPrefetch: return "no-prefetch";
      case Technique::SwPrefetch: return "sw-prefetch";
      case Technique::LimaPrefetch: return "maple-lima";
      case Technique::Desc: return "desc";
      case Technique::Droplet: return "droplet";
    }
    return "?";
}

Chunk
chunkOf(std::uint64_t total, unsigned t, unsigned n)
{
    MAPLE_ASSERT(n > 0 && t < n);
    std::uint64_t per = total / n;
    std::uint64_t rem = total % n;
    std::uint64_t begin = t * per + std::min<std::uint64_t>(t, rem);
    std::uint64_t len = per + (t < rem ? 1 : 0);
    return Chunk{begin, begin + len};
}

void
collectCoreStats(soc::Soc &soc, RunResult &r)
{
    double latency_weighted = 0.0;
    std::uint64_t total_loads = 0;
    for (unsigned i = 0; i < soc.numCores(); ++i) {
        cpu::Core &c = soc.core(i);
        r.instructions += c.instructions();
        r.loads += c.loads();
        r.stores += c.stores();
        std::uint64_t l = c.loads();
        latency_weighted += c.meanLoadLatency() * static_cast<double>(l);
        total_loads += l;
    }
    r.mean_load_latency =
        total_loads ? latency_weighted / static_cast<double>(total_loads) : 0.0;
    r.sim_events = soc.eq().executed();
}

RunResult
runTechnique(const std::string &name, const RunConfig &cfg,
             const WorkloadParts &parts)
{
    RunResult res;
    res.workload = name;
    res.technique = techniqueName(cfg.tech);
    Technique tech = cfg.tech;
    if (decouples(tech) && !parts.access) {
        tech = Technique::Doall;
        res.fell_back_to_doall = true;
    }
    const unsigned threads = tech == Technique::NoPrefetch ||
                                     tech == Technique::SwPrefetch ||
                                     tech == Technique::LimaPrefetch
                                 ? 1
                                 : cfg.threads;
    const unsigned pairs = decouples(tech) ? std::max(1u, threads / 2) : 0;

    soc::SocConfig scfg = cfg.soc;
    scfg.num_cores = std::max(scfg.num_cores, threads);
    soc::Soc soc(scfg);
    os::Process &proc = soc.createProcess(name);
    parts.upload(proc, threads, pairs);

    // Technique setup, before the measured run. Declared after the Soc so
    // they die first: DROPLET's destructor unhooks the LLC front.
    std::optional<core::MapleApi> api;
    std::vector<std::unique_ptr<PairQueue>> pair_queues;
    std::deque<baselines::DescQueue> descs;
    std::optional<baselines::DropletPrefetcher> droplet;
    if (tech == Technique::MapleDecouple || tech == Technique::LimaPrefetch) {
        api.emplace(core::MapleApi::attach(proc, soc.maple()));
        const unsigned queues = tech == Technique::LimaPrefetch
                                    ? (parts.lima_opens_queue ? 1 : 0)
                                    : pairs;
        if (queues > 0) {
            soc.run({sim::spawn(api->initAndOpen(soc.core(0), queues,
                                                 cfg.queue_entries, 4))},
                    cfg.max_cycles);
        }
    }
    if (tech == Technique::MapleDecouple) {
        for (unsigned p = 0; p < pairs; ++p)
            pair_queues.push_back(std::make_unique<MaplePairQueue>(*api, p));
    } else if (tech == Technique::SwDecouple) {
        for (unsigned p = 0; p < pairs; ++p)
            pair_queues.push_back(std::make_unique<SwPairQueue>(proc));
    } else if (tech == Technique::Desc) {
        for (unsigned p = 0; p < pairs; ++p)
            descs.emplace_back(soc.eq(), soc.physMem(),
                               soc.addLlcPort(soc.coreTile(2 * p)));
    } else if (tech == Technique::Droplet) {
        const DropletRegion r = parts.droplet();
        droplet.emplace(soc);
        droplet->bind(proc, r.index, r.count, 4, r.data, 4);
    }

    std::vector<sim::Join> joins;
    auto spawn = [&joins](sim::Task<void> t) {
        joins.push_back(sim::spawn(std::move(t)));
    };
    // Pair p: access on core 2p, then execute on core 2p + 1, over queue q.
    auto spawnPair = [&](const auto &access, const auto &execute, auto &q,
                         unsigned p) {
        spawn(access(soc.core(2 * p), q, p, pairs));
        spawn(execute(soc.core(2 * p + 1), q, p, pairs));
    };
    switch (tech) {
      case Technique::LimaPrefetch:
        spawn(parts.lima(soc.core(0), *api));
        break;
      case Technique::MapleDecouple:
      case Technique::SwDecouple:
        for (unsigned p = 0; p < pairs; ++p)
            spawnPair(parts.access, parts.execute, *pair_queues[p], p);
        break;
      case Technique::Desc:
        for (unsigned p = 0; p < pairs; ++p)
            spawnPair(parts.desc_supply, parts.desc_compute, descs[p], p);
        break;
      default: {  // doall, no-prefetch, sw-prefetch (one thread), droplet
        const unsigned dist = tech == Technique::SwPrefetch ? kPrefetchDistance : 0;
        for (unsigned t = 0; t < threads; ++t)
            spawn(parts.doall(soc.core(t), t, threads, dist));
      }
    }

    res.cycles = soc.run(std::move(joins), cfg.max_cycles);
    parts.check(res);
    collectCoreStats(soc, res);
    return res;
}

std::vector<std::unique_ptr<Workload>>
allWorkloads()
{
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeSdhp());
    ws.push_back(makeSpmm());
    ws.push_back(makeSpmv());
    ws.push_back(makeBfs());
    return ws;
}

}  // namespace maple::app
