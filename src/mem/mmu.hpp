/**
 * @file
 * Memory-management unit: TLB + hardware page-table walker + fault hook.
 *
 * Both cores and MAPLE instances own an Mmu. On a TLB miss the walker issues
 * timed reads for each page-table level through a memory port (so walks cost
 * real cycles and bandwidth). On a page fault the optional fault handler --
 * the MAPLE device driver in `src/os` -- is invoked; if it resolves the fault
 * the translation is retried once.
 */
#pragma once

#include <functional>
#include <optional>

#include "mem/page_table.hpp"
#include "mem/physical_memory.hpp"
#include "mem/port.hpp"
#include "mem/tlb.hpp"
#include "sim/coro.hpp"
#include "sim/stats.hpp"

namespace maple::mem {

struct Translation {
    bool fault = false;
    sim::Addr paddr = sim::kBadAddr;
};

class Mmu {
  public:
    /**
     * A fault handler resolves a page fault (e.g. maps the page) and returns
     * true, or returns false for a truly fatal access error. It may take
     * simulated time (it is a coroutine): interrupt + driver latency.
     */
    using FaultHandler = std::function<sim::Task<bool>(sim::Addr vaddr, bool write)>;

    Mmu(sim::EventQueue &eq, PhysicalMemory &pm, Port &walk_port,
        size_t tlb_entries = 16, sim::TileId tile = 0)
        : eq_(eq), pm_(pm), walk_port_(walk_port), tlb_(tlb_entries),
          tile_(tile)
    {
    }

    /**
     * Point the MMU at an address space (root page-table frame). Re-pointing
     * at the *same* root is a no-op: post-restore re-attachment must not
     * flush a TLB whose warmed contents were just restored.
     */
    void
    setRoot(sim::Addr root_paddr)
    {
        if (root_ == root_paddr)
            return;
        root_ = root_paddr;
        tlb_.flush();
    }

    void setFaultHandler(FaultHandler h) { fault_handler_ = std::move(h); }

    /**
     * Translate @p vaddr, charging TLB/walk/fault latency as appropriate.
     * Returns fault=true only if the fault handler failed (or none is set).
     * A TLB hit with the right permissions is decided at the call and is
     * ready; anything else is the walk's Task. co_await the result in the
     * same expression (sim::Soon).
     */
    sim::Soon<Translation>
    translate(sim::Addr vaddr, bool write)
    {
        if (auto hit = tlbHit(vaddr, write))
            return *hit;
        return walkAndTranslate(vaddr, write);
    }

    /** TLB shootdown for one page (called by the OS on unmap/remap). */
    void invalidate(sim::Addr vaddr) { tlb_.invalidate(vaddr); }

    /** Full TLB shootdown. */
    void flush() { tlb_.flush(); }

    Tlb &tlb() { return tlb_; }
    std::uint64_t walks() const { return walks_.value(); }
    std::uint64_t faults() const { return faults_.value(); }

    /**
     * Snapshot support. The fault handler is host-side std::function state
     * and is not serialized: restore re-installs it via the same attach path
     * that installed it originally.
     */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.u64(root_);
        tlb_.state(ar);
        walks_.state(ar);
        faults_.state(ar);
    }

  private:
    /**
     * The TLB's translation of @p vaddr when it grants the access; a hit
     * with stale permissions is dropped so the walk reloads it.
     */
    std::optional<Translation>
    tlbHit(sim::Addr vaddr, bool write)
    {
        auto pte = tlb_.lookup(vaddr);
        if (!pte)
            return std::nullopt;
        if (pte->readable() && (!write || pte->writable()))
            return Translation{false, pte->paddrBase() | pageOffset(vaddr)};
        tlb_.invalidate(vaddr);  // stale permissions: rewalk
        return std::nullopt;
    }

    /**
     * translate() past a failed TLB lookup: walk, and on a fault let the
     * handler resolve it and retry once from the TLB.
     */
    sim::Task<Translation>
    walkAndTranslate(sim::Addr vaddr, bool write)
    {
        for (int attempt = 0; attempt < 2; ++attempt) {
            if (attempt > 0) {
                if (auto hit = tlbHit(vaddr, write))
                    co_return *hit;
            }
            auto walked = co_await walk(vaddr);
            if (walked && walked->readable() && (!write || walked->writable())) {
                tlb_.insert(vaddr, *walked);
                co_return Translation{
                    false, walked->paddrBase() | pageOffset(vaddr)};
            }
            faults_.inc();
            if (attempt == 1 || !fault_handler_)
                break;
            bool resolved = co_await fault_handler_(vaddr, write);
            if (!resolved)
                break;
        }
        co_return Translation{true, sim::kBadAddr};
    }

    /** Timed three-level walk; nullopt when any level is invalid. */
    sim::Task<std::optional<Pte>>
    walk(sim::Addr vaddr)
    {
        MAPLE_ASSERT(root_ != sim::kBadAddr, "MMU has no address space");
        walks_.inc();
        sim::Addr table = root_;
        for (unsigned level = kPtLevels; level-- > 0;) {
            sim::Addr pte_addr =
                table + vpnField(vaddr, level) * sizeof(std::uint64_t);
            co_await walk_port_.request(
                MemRequest::make(eq_, RequesterClass::Ptw, tile_, pte_addr,
                                 sizeof(std::uint64_t), AccessKind::Read));
            Pte pte{pm_.readU64(pte_addr)};
            if (!pte.valid())
                co_return std::nullopt;
            if (pte.leaf())
                co_return pte;
            table = pte.paddrBase();
        }
        co_return std::nullopt;
    }

    sim::EventQueue &eq_;
    PhysicalMemory &pm_;
    Port &walk_port_;
    Tlb tlb_;
    sim::TileId tile_;
    sim::Addr root_ = sim::kBadAddr;
    FaultHandler fault_handler_;
    sim::Counter walks_, faults_;
};

}  // namespace maple::mem
