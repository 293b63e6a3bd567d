/**
 * @file
 * Fully-associative, LRU translation lookaside buffer.
 *
 * Both the cores and each MAPLE instance embed one of these (the paper uses
 * 16 entries for both). Shootdowns from the OS arrive via invalidate()/flush().
 */
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <optional>
#include <unordered_map>

#include "mem/page_table.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace maple::mem {

class Tlb {
  public:
    explicit Tlb(size_t entries = 16) : capacity_(entries)
    {
        MAPLE_ASSERT(entries > 0);
    }

    /** Look up the leaf PTE for @p vaddr's page; updates LRU on hit. */
    std::optional<Pte>
    lookup(sim::Addr vaddr)
    {
        auto it = map_.find(vpnOf(vaddr));
        if (it == map_.end()) {
            misses_.inc();
            return std::nullopt;
        }
        hits_.inc();
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->pte;
    }

    /** Install a translation, evicting the LRU entry when full. */
    void
    insert(sim::Addr vaddr, Pte pte)
    {
        sim::Addr vpn = vpnOf(vaddr);
        auto it = map_.find(vpn);
        if (it != map_.end()) {
            it->second->pte = pte;
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (map_.size() >= capacity_) {
            map_.erase(lru_.back().vpn);
            lru_.pop_back();
            evictions_.inc();
        }
        lru_.push_front(Entry{vpn, pte});
        map_[vpn] = lru_.begin();
    }

    /** Drop the entry covering @p vaddr (TLB shootdown for one page). */
    void
    invalidate(sim::Addr vaddr)
    {
        auto it = map_.find(vpnOf(vaddr));
        if (it == map_.end())
            return;
        lru_.erase(it->second);
        map_.erase(it);
        shootdowns_.inc();
    }

    /** Drop everything (full shootdown / context switch). */
    void
    flush()
    {
        map_.clear();
        lru_.clear();
        shootdowns_.inc();
    }

    size_t size() const { return map_.size(); }
    size_t capacity() const { return capacity_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Snapshot support: entries in LRU order (front = most recent). */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.u64(capacity_);
        ar.seq(lru_, [&ar](Entry &e) {
            ar.u64(e.vpn);
            ar.u64(e.pte.raw);
        });
        if constexpr (Ar::kLoading) {
            map_.clear();
            for (auto it = lru_.begin(); it != lru_.end(); ++it)
                map_[it->vpn] = it;
        }
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

    size_t capacity_;
    std::list<Entry> lru_;  // front = most recent
    std::unordered_map<sim::Addr, std::list<Entry>::iterator> map_;
    sim::Counter hits_, misses_, evictions_, shootdowns_;
};

}  // namespace maple::mem
