/**
 * @file
 * Micro-OS for the simulated SoC.
 *
 * Provides just enough of SMP-Linux's role in the paper: physical frame
 * allocation, per-process page tables, eager or demand paging, mapping MAPLE
 * MMIO pages into user address spaces (process-exclusive access), a device
 * driver that resolves MAPLE page faults, and TLB-shootdown broadcast to
 * every MMU that caches translations for a process.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/mmu.hpp"
#include "mem/page_table.hpp"
#include "mem/physical_memory.hpp"
#include "sim/coro.hpp"
#include "sim/error.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace maple::os {

/** Bump allocator over a physical DRAM region (frames are never freed). */
class FrameAllocator {
  public:
    FrameAllocator(sim::Addr base, sim::Addr size) : next_(base), end_(base + size)
    {
        MAPLE_ASSERT((base & mem::kPageMask) == 0 && (size & mem::kPageMask) == 0);
    }

    sim::Addr
    alloc()
    {
        MAPLE_CHECK(next_ < end_, sim::OutOfMemoryError,
                    "frame allocator exhausted at pa 0x%llx (region end 0x%llx)",
                    (unsigned long long)next_, (unsigned long long)end_);
        sim::Addr frame = next_;
        next_ += mem::kPageSize;
        return frame;
    }

    sim::Addr allocated() const { return next_; }

    /**
     * Snapshot support: rewind/advance the bump pointer to a restored
     * watermark. Called after all restore-time allocations (page-table
     * roots of re-created processes) so the next frame handed out matches
     * the snapshotted machine exactly.
     */
    void
    setNext(sim::Addr next)
    {
        MAPLE_ASSERT((next & mem::kPageMask) == 0 && next <= end_,
                     "bad frame-allocator watermark");
        next_ = next;
    }

  private:
    sim::Addr next_;
    sim::Addr end_;
};

class Kernel;

/**
 * A user address space. Workloads allocate named regions from a bump heap;
 * regions are mapped eagerly by default, or lazily (valid but unmapped,
 * faulting on first touch) to exercise the demand-paging / driver path.
 */
class Process {
  public:
    Process(Kernel &kernel, std::string name);

    /** Allocate and eagerly map @p bytes of zeroed memory. */
    sim::Addr alloc(size_t bytes, const char *tag = "");

    /** Reserve @p bytes without mapping; first touch page-faults. */
    sim::Addr allocLazy(size_t bytes, const char *tag = "");

    /** Map a device MMIO page at a fresh user virtual address. */
    sim::Addr mapMmio(sim::Addr mmio_paddr, sim::Addr bytes = mem::kPageSize);

    /** True iff @p vaddr falls in a reserved (alloc'd) region. */
    bool owns(sim::Addr vaddr) const;

    /**
     * Base address of the first region allocated with @p tag. Regions (and
     * their tags) round-trip through snapshots, so a restored process can
     * recover dataset addresses without re-running allocation.
     * Fatal when no region carries the tag.
     */
    sim::Addr regionBase(const std::string &tag) const;

    /**
     * Demand-map the page containing @p vaddr (used by the fault path).
     * @return false when the address is not part of any region.
     */
    bool demandMap(sim::Addr vaddr);

    /** Unmap one page and broadcast a TLB shootdown (tests, reclaim). */
    void unmapPage(sim::Addr vaddr);

    /**
     * Retire the physical frame @p paddr_page (machine-check containment):
     * every leaf mapping in this space that points at the frame is switched
     * to a freshly allocated frame, the page contents are copied over (the
     * functional image in PhysicalMemory is exact; the soft error is a
     * timing/RAS-model event), and a TLB shootdown is broadcast.
     * @return true when at least one mapping was moved.
     */
    bool retireFrame(sim::Addr paddr_page);

    /// @name Functional data access (workload initialization / validation)
    /// @{
    void writeBytes(sim::Addr vaddr, const void *data, size_t len);
    void readBytes(sim::Addr vaddr, void *out, size_t len) const;

    template <typename T>
    void
    writeScalar(sim::Addr vaddr, T v)
    {
        writeBytes(vaddr, &v, sizeof(T));
    }

    template <typename T>
    T
    readScalar(sim::Addr vaddr) const
    {
        T v;
        readBytes(vaddr, &v, sizeof(T));
        return v;
    }
    /// @}

    mem::PageTable &pageTable() { return pt_; }
    const std::string &name() const { return name_; }
    Kernel &kernel() { return kernel_; }

    /** Register an MMU caching this process's translations (shootdowns). */
    void attachMmu(mem::Mmu *mmu);

    /**
     * Snapshot support. The attached-MMU list is host wiring and is rebuilt
     * by the restore path's re-attachment; everything else (page-table root,
     * regions, bump pointers, recorded MMIO windows) round-trips.
     */
    template <class Ar> void state(Ar &ar);

  private:
    struct Region {
        sim::Addr base;
        sim::Addr size;
        std::string tag;
        bool lazy;
    };

    /** A device page mapped into this space (mapMmio bookkeeping). */
    struct MmioMap {
        sim::Addr paddr;
        sim::Addr vaddr;
        sim::Addr bytes;
    };

    sim::Addr allocRegion(size_t bytes, const char *tag, bool lazy);

    Kernel &kernel_;
    std::string name_;
    mem::PageTable pt_;
    std::vector<Region> regions_;
    std::vector<MmioMap> mmio_maps_;
    std::vector<mem::Mmu *> mmus_;
    sim::Addr heap_next_;
    sim::Addr mmio_next_;
};

/** Latency knobs for kernel-mediated events. */
struct KernelParams {
    sim::Cycle fault_latency = 600;  ///< interrupt + driver handling cost
};

class Kernel {
  public:
    Kernel(sim::EventQueue &eq, mem::PhysicalMemory &pm, KernelParams params = {})
        : eq_(eq), pm_(pm), params_(params), frames_(0, pm.size())
    {
    }

    mem::PhysicalMemory &physMem() { return pm_; }
    sim::EventQueue &eventQueue() { return eq_; }
    FrameAllocator &frames() { return frames_; }
    const KernelParams &params() const { return params_; }

    Process &
    createProcess(const std::string &name)
    {
        procs_.push_back(std::make_unique<Process>(*this, name));
        return *procs_.back();
    }

    /**
     * Build the MAPLE-driver fault handler for @p proc: charges the interrupt
     * plus driver latency, then demand-maps the page when the access is valid
     * (mirrors the paper's "driver reads the faulting VA and maps it").
     */
    mem::Mmu::FaultHandler
    makeFaultHandler(Process &proc)
    {
        return [this, &proc](sim::Addr vaddr, bool) -> sim::Task<bool> {
            faults_serviced_.inc();
            co_await sim::delay(eq_, params_.fault_latency);
            co_return proc.demandMap(vaddr);
        };
    }

    std::uint64_t faultsServiced() const { return faults_serviced_.value(); }

    /**
     * Snapshot support. A restore re-creates every process by name (each
     * re-created page table burns fresh frames and scribbles its root page;
     * both are corrected afterwards — the frame watermark is restored last,
     * and PhysicalMemory is restored after the kernel, wiping the scribbles)
     * then adopts the per-process state.
     */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.seq(procs_, [&](std::unique_ptr<Process> &p) {
            if constexpr (Ar::kLoading)
                p = std::make_unique<Process>(*this, "");
            p->state(ar);
        });
        sim::Addr next = frames_.allocated();
        ar.u64(next);
        if constexpr (Ar::kLoading)
            frames_.setNext(next);
        faults_serviced_.state(ar);
    }

    /** Processes in creation order (restore-time re-attachment). */
    std::vector<Process *>
    processes()
    {
        std::vector<Process *> out;
        out.reserve(procs_.size());
        for (auto &p : procs_)
            out.push_back(p.get());
        return out;
    }

  private:
    sim::EventQueue &eq_;
    mem::PhysicalMemory &pm_;
    KernelParams params_;
    FrameAllocator frames_;
    std::vector<std::unique_ptr<Process>> procs_;
    sim::Counter faults_serviced_;
};

}  // namespace maple::os
