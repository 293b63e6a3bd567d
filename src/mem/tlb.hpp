/**
 * @file
 * Fully-associative, LRU translation lookaside buffer.
 *
 * Both the cores and each MAPLE instance embed one of these (the paper uses
 * 16 entries for both). Shootdowns from the OS arrive via invalidate()/flush().
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/page_table.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace maple::mem {

class Tlb {
  public:
    explicit Tlb(size_t entries = 16) : capacity_(entries)
    {
        MAPLE_ASSERT(entries > 0);
        entries_.reserve(capacity_);
    }

    /** Look up the leaf PTE for @p vaddr's page; updates LRU on hit. */
    std::optional<Pte>
    lookup(sim::Addr vaddr)
    {
        auto it = find(vpnOf(vaddr));
        if (it == entries_.end()) {
            misses_.inc();
            return std::nullopt;
        }
        hits_.inc();
        return touch(it).pte;
    }

    /** Install a translation, evicting the LRU entry when full. */
    void
    insert(sim::Addr vaddr, Pte pte)
    {
        sim::Addr vpn = vpnOf(vaddr);
        auto it = find(vpn);
        if (it != entries_.end()) {
            touch(it).pte = pte;
            return;
        }
        if (entries_.size() >= capacity_) {
            entries_.pop_back();
            evictions_.inc();
        }
        entries_.insert(entries_.begin(), Entry{vpn, pte});
    }

    /** Drop the entry covering @p vaddr (TLB shootdown for one page). */
    void
    invalidate(sim::Addr vaddr)
    {
        auto it = find(vpnOf(vaddr));
        if (it == entries_.end())
            return;
        entries_.erase(it);
        shootdowns_.inc();
    }

    /** Drop everything (full shootdown / context switch). */
    void
    flush()
    {
        entries_.clear();
        shootdowns_.inc();
    }

    size_t size() const { return entries_.size(); }
    size_t capacity() const { return capacity_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Snapshot support: entries in LRU order (front = most recent). */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.u64(capacity_);
        ar.seq(entries_, [&ar](Entry &e) {
            ar.u64(e.vpn);
            ar.u64(e.pte.raw);
        });
        hits_.state(ar);
        misses_.state(ar);
        evictions_.state(ar);
        shootdowns_.state(ar);
    }

  private:
    struct Entry {
        sim::Addr vpn;
        Pte pte;
    };
    using Iter = std::vector<Entry>::iterator;

    Iter
    find(sim::Addr vpn)
    {
        return std::find_if(entries_.begin(), entries_.end(),
                            [vpn](const Entry &e) { return e.vpn == vpn; });
    }

    /** Move @p it to the front (most recent) and return the entry. */
    Entry &
    touch(Iter it)
    {
        std::rotate(entries_.begin(), it, it + 1);
        return entries_.front();
    }

    size_t capacity_;
    // At most capacity_ (16 by default) entries, so a linear find beats
    // hashing. Front = most recent.
    std::vector<Entry> entries_;
    sim::Counter hits_, misses_, evictions_, shootdowns_;
};

}  // namespace maple::mem
