#include "cpu/core.hpp"

#include "fault/fault.hpp"
#include "sim/error.hpp"
#include "sim/log.hpp"

namespace maple::cpu {

Core::Core(sim::EventQueue &eq, CoreParams params, CoreWiring wiring)
    : eq_(eq), params_(std::move(params)), w_(wiring),
      mmu_(eq, *wiring.pm, *wiring.walk_port, params_.tlb_entries,
           params_.tile),
      stats_(params_.name)
{
    MAPLE_ASSERT(w_.pm && w_.l1 && w_.walk_port && w_.amap && w_.mesh,
                 "core wiring incomplete");
}

trace::TraceManager *
Core::tracer()
{
    trace::TraceManager *t = trace::active(eq_);
    if (t && tr_track_ == trace::TraceManager::kNone)
        tr_track_ = t->track(params_.name);
    return t;
}

sim::Task<std::uint64_t>
Core::load(sim::Addr vaddr, unsigned size)
{
    MAPLE_ASSERT(size >= 1 && size <= 8);
    co_await issue();
    n_loads_.inc();
    sim::Cycle start = eq_.now();
    trace::TraceManager *tm = tracer();
    if (tm)
        tm->begin(tr_track_, "load", trace::Category::Core);

    mem::Translation tr = co_await mmu_.translate(vaddr, false);
    if (tr.fault)
        MAPLE_THROW(sim::PageFaultError,
                    "%s: load fault at va 0x%llx", params_.name.c_str(),
                    (unsigned long long)vaddr);
    // A TLB hit translates in zero cycles, so elapsed time means a walk ran.
    if (tm && eq_.now() > start)
        tm->complete(tr_track_, "tlb_walk", trace::Category::Mem, start);

    std::uint64_t value;
    if (const auto *win = w_.amap->find(tr.paddr)) {
        sim::Cycle mmio_start = eq_.now();
        value = co_await mmioLoad(*win, tr.paddr, size);
        if (tm)
            tm->complete(tr_track_, "mmio_load", trace::Category::Core, mmio_start);
    } else {
        // The metadata slot lets the hierarchy report data-path state back
        // (RequestMeta::poison): without it, a DRAM uncorrectable error has
        // no way to mark the fill, and containment could never trigger.
        mem::RequestMeta meta;
        co_await w_.l1->request(mem::MemRequest::make(
            eq_, mem::RequesterClass::Core, params_.tile, tr.paddr, size,
            mem::AccessKind::Read, &meta));
        value = 0;
        w_.pm->read(tr.paddr, &value, size);
    }
    if (tm)
        tm->end(tr_track_);
    load_latency_.sample(static_cast<double>(eq_.now() - start));
    co_return value;
}

sim::Task<void>
Core::store(sim::Addr vaddr, std::uint64_t value, unsigned size)
{
    MAPLE_ASSERT(size >= 1 && size <= 8);
    co_await issue();
    n_stores_.inc();

    mem::Translation tr = co_await mmu_.translate(vaddr, true);
    if (tr.fault)
        MAPLE_THROW(sim::PageFaultError,
                    "%s: store fault at va 0x%llx", params_.name.c_str(),
                    (unsigned long long)vaddr);

    // Retire into the store buffer; stall only when it is full.
    {
        fault::ParkGuard park(eq_, "store_buffer", params_.name);
        while (store_buffer_used_ >= params_.store_buffer) {
            n_store_buffer_stalls_.inc();
            co_await store_buffer_waiters_;
        }
    }
    ++store_buffer_used_;
    sim::spawnDetached(eq_, drainStore(tr.paddr, value, size));
}

sim::Task<void>
Core::drainStore(sim::Addr paddr, std::uint64_t value, unsigned size)
{
    if (const auto *win = w_.amap->find(paddr)) {
        co_await mmioStore(*win, paddr, value, size);
    } else {
        mem::RequestMeta meta;  // as in load(): carries poison reports back
        co_await w_.l1->request(mem::MemRequest::make(
            eq_, mem::RequesterClass::Core, params_.tile, paddr, size,
            mem::AccessKind::Write, &meta));
        w_.pm->write(paddr, &value, size);
    }
    --store_buffer_used_;
    store_buffer_waiters_.wakeAll();
}

sim::Task<void>
Core::storeFence()
{
    fault::ParkGuard park(eq_, "store_fence", params_.name);
    while (store_buffer_used_ > 0)
        co_await store_buffer_waiters_;
}

sim::Task<void>
Core::prefetchL1(sim::Addr vaddr)
{
    co_await issue();
    n_prefetches_.inc();
    // Prefetch is a load-class instruction (it occupies a load-issue slot
    // and performs translation); figure 10 counts it accordingly.
    n_loads_.inc();
    mem::Translation tr = co_await mmu_.translate(vaddr, false);
    if (tr.fault)
        co_return;  // prefetches to unmapped pages are dropped, like real HW
    if (w_.l1_cache && !w_.amap->isMmio(tr.paddr))
        w_.l1_cache->prefetch(tr.paddr);
}

sim::Task<std::uint64_t>
Core::amoAdd(sim::Addr vaddr, std::uint64_t delta, unsigned size)
{
    MAPLE_ASSERT(size == 4 || size == 8);
    MAPLE_ASSERT(w_.atomic_port, "core has no atomic port");
    co_await issue();
    n_atomics_.inc();

    mem::Translation tr = co_await mmu_.translate(vaddr, true);
    if (tr.fault)
        MAPLE_THROW(sim::PageFaultError,
                    "%s: amo fault at va 0x%llx", params_.name.c_str(),
                    (unsigned long long)vaddr);
    MAPLE_ASSERT(!w_.amap->isMmio(tr.paddr), "atomics to MMIO unsupported");

    co_await w_.atomic_port->request(mem::MemRequest::make(
        eq_, mem::RequesterClass::Core, params_.tile, tr.paddr, size,
        mem::AccessKind::Write));
    // Functional read-modify-write happens atomically at completion time.
    std::uint64_t old = 0;
    w_.pm->read(tr.paddr, &old, size);
    std::uint64_t updated = old + delta;
    w_.pm->write(tr.paddr, &updated, size);
    co_return old;
}

sim::Task<std::uint64_t>
Core::loadShared(sim::Addr vaddr, unsigned size)
{
    MAPLE_ASSERT(size >= 1 && size <= 8);
    co_await issue();
    n_loads_.inc();
    n_shared_loads_.inc();
    sim::Cycle start = eq_.now();
    trace::TraceManager *tm = tracer();
    if (tm)
        tm->begin(tr_track_, "load_shared", trace::Category::Core);
    mem::Translation tr = co_await mmu_.translate(vaddr, false);
    if (tr.fault)
        MAPLE_THROW(sim::PageFaultError,
                    "%s: shared load fault at va 0x%llx", params_.name.c_str(),
                    (unsigned long long)vaddr);
    mem::Port *shared_port =
        params_.coherent_shared ? w_.l1 : w_.atomic_port;
    co_await shared_port->request(mem::MemRequest::make(
        eq_, mem::RequesterClass::Core, params_.tile, tr.paddr, size,
        mem::AccessKind::Read));
    std::uint64_t value = 0;
    w_.pm->read(tr.paddr, &value, size);
    if (tm)
        tm->end(tr_track_);
    load_latency_.sample(static_cast<double>(eq_.now() - start));
    co_return value;
}

sim::Task<void>
Core::storeShared(sim::Addr vaddr, std::uint64_t value, unsigned size)
{
    MAPLE_ASSERT(size >= 1 && size <= 8);
    co_await issue();
    n_stores_.inc();
    mem::Translation tr = co_await mmu_.translate(vaddr, true);
    if (tr.fault)
        MAPLE_THROW(sim::PageFaultError,
                    "%s: shared store fault at va 0x%llx", params_.name.c_str(),
                    (unsigned long long)vaddr);
    {
        fault::ParkGuard park(eq_, "store_buffer", params_.name);
        while (store_buffer_used_ >= params_.store_buffer) {
            n_store_buffer_stalls_.inc();
            co_await store_buffer_waiters_;
        }
    }
    ++store_buffer_used_;
    auto drain = [](Core *self, sim::Addr paddr, std::uint64_t v,
                    unsigned sz) -> sim::Task<void> {
        mem::Port *p = self->params_.coherent_shared ? self->w_.l1
                                                     : self->w_.atomic_port;
        co_await p->request(mem::MemRequest::make(
            self->eq_, mem::RequesterClass::Core, self->params_.tile, paddr,
            sz, mem::AccessKind::Write));
        self->w_.pm->write(paddr, &v, sz);
        --self->store_buffer_used_;
        self->store_buffer_waiters_.wakeAll();
    };
    sim::spawnDetached(eq_, drain(this, tr.paddr, value, size));
}

sim::Task<std::uint64_t>
Core::mmioLoad(const soc::AddressMap::Window &w, sim::Addr paddr, unsigned size)
{
    n_mmio_loads_.inc();
    const unsigned fb = w_.mesh->params().flit_bytes;
    co_await sim::delay(eq_, params_.l1_bypass + params_.l15_latency +
                                 params_.mmio_extra_latency);
    co_await w_.mesh->transit(params_.tile, w.tile, noc::flitsFor(0, fb),
                              mem::RequesterClass::Mmio);
    std::uint64_t v = co_await w.device->mmioLoad(paddr, size, params_.thread);
    co_await w_.mesh->transit(w.tile, params_.tile, noc::flitsFor(size, fb),
                              mem::RequesterClass::Mmio);
    co_await sim::delay(eq_, params_.l15_latency + params_.l1_bypass +
                                 params_.mmio_extra_latency);
    co_return v;
}

sim::Task<void>
Core::mmioStore(const soc::AddressMap::Window &w, sim::Addr paddr,
                std::uint64_t value, unsigned size)
{
    n_mmio_stores_.inc();
    const unsigned fb = w_.mesh->params().flit_bytes;
    co_await sim::delay(eq_, params_.l1_bypass + params_.l15_latency +
                                 params_.mmio_extra_latency);
    co_await w_.mesh->transit(params_.tile, w.tile, noc::flitsFor(size, fb),
                              mem::RequesterClass::Mmio);
    co_await w.device->mmioStore(paddr, value, size, params_.thread);
    // The ack is a header-only packet.
    co_await w_.mesh->transit(w.tile, params_.tile, noc::flitsFor(0, fb),
                              mem::RequesterClass::Mmio);
    co_await sim::delay(eq_, params_.l15_latency + params_.l1_bypass +
                                 params_.mmio_extra_latency);
}

Core::RoundTrip
Core::mmioRoundTrip(sim::TileId device_tile) const
{
    unsigned hops = w_.mesh->hops(params_.tile, device_tile);
    sim::Cycle hop_cy = w_.mesh->params().hop_latency;
    return RoundTrip{
        params_.l1_bypass,            // L1 out
        params_.l15_latency + params_.mmio_extra_latency,  // L1.5 out
        hops * hop_cy + 1,            // NoC out (+1 header serialization)
        hops * hop_cy + 1,            // NoC back
        params_.l15_latency + params_.mmio_extra_latency,  // L1.5 back
        params_.l1_bypass,            // L1 back
    };
}

}  // namespace maple::cpu
