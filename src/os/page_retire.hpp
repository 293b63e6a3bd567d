/**
 * @file
 * Machine-check containment handler: the OS response to a core (or PTW /
 * coherent-DMA consumer) touching a poisoned line. Mirrors what SMP Linux
 * does on an MCE with a recoverable userspace address (memory_failure()):
 *
 *   1. take the machine-check trap (kernel fault_latency),
 *   2. flush every cached copy of the page's poisoned lines -- through the
 *      home directory in coherent mode, by direct invalidation otherwise,
 *   3. retire the physical frame: remap every process page pointing at it
 *      to a fresh frame (hardware scrubbed the data via ECC history /
 *      software reconstruction; functionally the image was always exact),
 *   4. drop the page's backing-poison state and resume the consumer, which
 *      retries and now refills clean data.
 *
 * Installed by the Soc as ResilManager's containment handler. Concurrent
 * machine checks on the same page coalesce: later consumers park until the
 * first retire completes, then resume without retiring again.
 */
#pragma once

#include <functional>
#include <unordered_map>

#include "fault/fault.hpp"
#include "mem/resil.hpp"
#include "os/kernel.hpp"
#include "sim/coro.hpp"
#include "sim/types.hpp"

namespace maple::os {

/** Soc-provided plumbing the retirer needs but must not know the wiring of. */
struct PageRetireHooks {
    /**
     * Flush-invalidate every cached copy of @p line, however deep it is in
     * the hierarchy (directory recall + LLC slice drop in coherent mode;
     * L1 + LLC drops in legacy mode). Takes protocol time.
     */
    std::function<sim::Task<void>(sim::Addr line)> flush_line;
};

class PageRetirer {
  public:
    PageRetirer(Kernel &kernel, mem::ResilManager &resil, PageRetireHooks hooks)
        : kernel_(kernel), resil_(resil), hooks_(std::move(hooks))
    {
    }

    PageRetirer(const PageRetirer &) = delete;
    PageRetirer &operator=(const PageRetirer &) = delete;

    /**
     * Contain a poisoned consumption of @p line by @p tile (see file
     * comment). Matches ResilManager::ContainFn.
     */
    sim::Task<void> contain(sim::Addr line, sim::TileId tile,
                            fault::FaultClass cause);

  private:
    Kernel &kernel_;
    mem::ResilManager &resil_;
    PageRetireHooks hooks_;
    /** Pages with a retire in flight; later machine checks ride the first,
     *  parked on the page's list. */
    std::unordered_map<sim::Addr, sim::WaitList> inflight_;
};

}  // namespace maple::os
