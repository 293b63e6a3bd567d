#include "os/page_retire.hpp"

#include "mem/physical_memory.hpp"

namespace maple::os {

sim::Task<void>
PageRetirer::contain(sim::Addr line, sim::TileId tile, fault::FaultClass cause)
{
    (void)tile;
    (void)cause;
    sim::EventQueue &eq = kernel_.eventQueue();
    const sim::Addr page = mem::pageBase(line);
    if (auto it = inflight_.find(page); it != inflight_.end()) {
        // Another consumer already machine-checked into this page. Ride its
        // repair: once the first retire completes the frame is fresh, so
        // this consumer just resumes and retries.
        fault::ParkGuard park(eq, "page_retire", "kernel");
        co_await it->second;
        co_return;
    }
    inflight_.try_emplace(page);
    // Machine-check trap delivery + kernel handler cost (same latency class
    // as the MAPLE driver's fault service).
    co_await sim::delay(eq, kernel_.params().fault_latency);
    // Flush every cached copy of the page's poisoned lines. The triggering
    // line first (cache-side poison may not be in the backing set), then any
    // other line of the page the backing store knows is poisoned.
    if (hooks_.flush_line) {
        co_await hooks_.flush_line(line);
        for (sim::Addr l = page; l < page + mem::kPageSize; l += mem::kLineSize) {
            if (l != line && resil_.backingPoisoned(l))
                co_await hooks_.flush_line(l);
        }
    }
    // Retire the frame in every address space that references it.
    bool retired = false;
    for (Process *p : kernel_.processes())
        retired = p->retireFrame(page) || retired;
    resil_.clearBackingPoisonPage(page);
    if (retired)
        resil_.noteRetiredPage();
    auto it = inflight_.find(page);
    sim::WaitList riders = std::move(it->second);
    inflight_.erase(it);
    riders.wakeAll();
}

}  // namespace maple::os
