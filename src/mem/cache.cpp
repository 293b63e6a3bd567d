#include "mem/cache.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "sim/log.hpp"

namespace maple::mem {

Cache::Cache(sim::EventQueue &eq, CacheParams params, Port &downstream)
    : eq_(eq), params_(std::move(params)), downstream_(downstream),
      stats_(params_.name)
{
    MAPLE_ASSERT(params_.assoc > 0 && params_.size_bytes > 0);
    MAPLE_ASSERT(params_.size_bytes % (params_.assoc * kLineSize) == 0,
                 "cache size must be a multiple of assoc * line size");
    num_sets_ = params_.size_bytes / (params_.assoc * kLineSize);
    MAPLE_ASSERT((num_sets_ & (num_sets_ - 1)) == 0, "set count must be a power of two");
    sets_.assign(num_sets_, std::vector<Way>(params_.assoc));
    mshrs_.reserve(params_.mshrs);
    recent_inv_.fill(sim::kBadAddr);
}

void
Cache::attachCoherence(CoherenceFabric &fabric)
{
    MAPLE_ASSERT(!fabric_, "attachCoherence called twice");
    MAPLE_ASSERT(mshrs_.empty(), "attachCoherence with traffic in flight");
    fabric_ = &fabric;
    coh_id_ = fabric.registerCache(*this);
}

trace::TraceManager *
Cache::tracer()
{
    trace::TraceManager *t = trace::active(eq_);
    if (t && tr_miss_ == trace::TraceManager::kNone)
        tr_miss_ = t->laneGroup(params_.name + ".miss");
    return t;
}

size_t
Cache::setIndex(sim::Addr line) const
{
    return static_cast<size_t>((line >> kLineShift) & (num_sets_ - 1));
}

Cache::Way *
Cache::lookup(sim::Addr line)
{
    for (Way &w : sets_[setIndex(line)]) {
        if (w.valid && w.tag == line)
            return &w;
    }
    return nullptr;
}

const Cache::Way *
Cache::lookupConst(sim::Addr line) const
{
    for (const Way &w : sets_[setIndex(line)]) {
        if (w.valid && w.tag == line)
            return &w;
    }
    return nullptr;
}

void
Cache::touch(Way &way)
{
    way.lru = lru_clock_++;
}

Cache::Way &
Cache::selectVictim(size_t set)
{
    Way *victim = &sets_[set][0];
    for (Way &w : sets_[set]) {
        if (!w.valid)
            return w;
        if (w.lru < victim->lru)
            victim = &w;
    }
    return *victim;
}

Cache::Way &
Cache::selectVictimCoherent(size_t set)
{
    Way *victim = nullptr;
    for (Way &w : sets_[set]) {
        if (!w.valid)
            return w;
        // A line mid-upgrade (SM, which holds an MSHR) must not be ripped
        // out under its pending GetM: the directory would grant a
        // header-only upgrade to a copy that no longer exists.
        if (findMshr(w.tag))
            continue;
        if (!victim || w.lru < victim->lru)
            victim = &w;
    }
    if (!victim) {
        // Every way of the set is mid-upgrade (needs assoc concurrent SM
        // transactions landing in one set): fall back to plain LRU. The
        // displaced upgrade finds its line gone and installs fresh, which
        // stays protocol-consistent (only the data transfer is under-billed).
        victim = &sets_[set][0];
        for (Way &w : sets_[set]) {
            if (w.lru < victim->lru)
                victim = &w;
        }
    }
    return *victim;
}

bool
Cache::probe(sim::Addr paddr) const
{
    return lookupConst(lineBase(paddr)) != nullptr;
}

EccOutcome
Cache::resilCheckHit(Way &w, const MemRequest &req, sim::Addr line)
{
    if (!resil_ || w.poisoned)
        return EccOutcome::Clean;  // already-poisoned ways skip the draw
    EccOutcome o =
        resil_->check(resil_cls_, req.cls, resil_st_, line, params_.tile);
    if (o == EccOutcome::Uncorrectable)
        w.poisoned = true;
    return o;
}

bool
Cache::resilShouldContain(const MemRequest &req) const
{
    return resil_l1_ && resil_ && resil_->canContain() &&
           req.kind != AccessKind::Prefetch &&
           (req.cls == RequesterClass::Core || req.cls == RequesterClass::Ptw);
}

void
Cache::resilDropLine(sim::Addr line)
{
    Way *w = lookup(line);
    if (!w)
        return;
    if (fabric_ && w->coh != MsiState::I) {
        if (CoherenceChecker *ck = checker())
            ck->onRelease(coh_id_, line);
        noteInvalidated(line);
    }
    *w = Way{};
}

void
Cache::invalidateAll()
{
    for (auto &set : sets_) {
        for (Way &w : set) {
            if (!w.valid) {
                w = Way{};
                continue;
            }
            MAPLE_CHECK(!w.dirty && w.coh != MsiState::M, sim::FatalError,
                        "%s: invalidateAll would silently drop modified line "
                        "0x%llx -- call flushAll() first",
                        params_.name.c_str(), (unsigned long long)w.tag);
            if (fabric_ && w.coh != MsiState::I) {
                if (CoherenceChecker *ck = checker())
                    ck->onRelease(coh_id_, w.tag);
            }
            w = Way{};
        }
    }
}

sim::Task<void>
Cache::flushAll()
{
    for (auto &set : sets_) {
        for (Way &w : set) {
            if (!w.valid) {
                w = Way{};
                continue;
            }
            sim::Addr line = w.tag;
            bool modified = w.dirty || w.coh == MsiState::M;
            bool held = fabric_ && w.coh != MsiState::I;
            if (resil_ && w.poisoned && modified)
                resil_->markBackingPoisoned(line);
            w = Way{};  // release the way before any suspension
            if (modified) {
                n_writebacks_.inc();
                MemRequest wb =
                    MemRequest::make(eq_, RequesterClass::Core, params_.tile,
                                     line, kLineSize, AccessKind::Write);
                if (fabric_) {
                    if (CoherenceChecker *ck = checker())
                        ck->onRelease(coh_id_, line);
                    co_await fabric_->putM(coh_id_, wb, line);
                } else {
                    co_await downstream_.request(wb);
                }
            } else if (held) {
                // Clean coherent copy: silent release, like an S eviction.
                if (CoherenceChecker *ck = checker())
                    ck->onRelease(coh_id_, line);
            }
        }
    }
}

void
Cache::prefetch(sim::Addr paddr)
{
    sim::spawnDetached(eq_,
                       request(MemRequest::make(eq_, RequesterClass::Prefetch,
                                                params_.tile, lineBase(paddr),
                                                kLineSize, AccessKind::Prefetch)));
}

sim::Task<void>
Cache::request(MemRequest req)
{
    MAPLE_ASSERT(req.size > 0);
    sim::Addr first = lineBase(req.paddr);
    sim::Addr last = lineBase(req.paddr + req.size - 1);
    // A one-line request is that line's Task itself: no wrapper frame.
    if (first == last)
        return access(req, first);
    return accessLines(req, first, last);
}

sim::Task<void>
Cache::access(MemRequest req, sim::Addr line)
{
    if (fabric_)
        return accessLineCoherent(req, line);
    return accessLine(req, line);
}

sim::Task<void>
Cache::accessLines(MemRequest req, sim::Addr first, sim::Addr last)
{
    for (sim::Addr line = first; line <= last; line += kLineSize)
        co_await access(req, line);
}

sim::Task<void>
Cache::accessLine(MemRequest req, sim::Addr line)
{
    co_await sim::delay(eq_, params_.hit_latency);

    bool demand = req.kind != AccessKind::Prefetch;
    bool counted = false;
    while (true) {
        if (Way *w = lookup(line)) {
            if (resilCheckHit(*w, req, line) == EccOutcome::Corrected) {
                // Correction bubble; the way can be evicted across the wait,
                // so retry the lookup from scratch.
                co_await sim::delay(eq_, resil_->correctPenalty());
                continue;
            }
            // An LLC-role cache also serves poison recorded against the
            // backing store: recalled dirty data reaches it via detached
            // metadata-free writebacks, so the poison rides the side table.
            bool poisoned =
                w->poisoned ||
                (resil_ && !resil_l1_ && resil_->backingPoisoned(line));
            if (poisoned && demand) {
                if (resilShouldContain(req)) {
                    // Machine check: flush the line's holders, retire the
                    // page, then retry -- the refill returns repaired data.
                    co_await resil_->contain(
                        line, params_.tile,
                        poisonCause(req.meta, resil_cls_));
                    if (req.meta)
                        req.meta->poison = false;
                    continue;
                }
                if (req.meta) {
                    req.meta->poison = true;
                    req.meta->fault_tags |= fault::faultClassBit(resil_cls_);
                }
            }
            touch(*w);
            if (req.kind == AccessKind::Write)
                w->dirty = true;
            if (!counted)
                (demand ? n_demand_hits_ : n_prefetch_hits_).inc();
            co_return;
        }
        if (!counted) {
            counted = true;
            (demand ? n_demand_misses_ : n_prefetch_misses_).inc();
        }

        bool dropped = false;
        co_await handleMiss(req, line, dropped);
        if (dropped)
            co_return;

        // The fill installed the line; a concurrent eviction between
        // resumptions is possible but benign for a timing model -- treat it
        // as present.
        if (req.kind == AccessKind::Write) {
            if (Way *w = lookup(line))
                w->dirty = true;
        }
        if (!resil_)
            co_return;
        // With resilience on, loop so the poison/ECC checks run against the
        // just-installed line: a DRAM-poisoned fill must not be served clean.
    }
}

void
Cache::noteInvalidated(sim::Addr line)
{
    recent_inv_[recent_inv_next_ % recent_inv_.size()] = line;
    ++recent_inv_next_;
}

sim::Task<void>
Cache::accessLineCoherent(MemRequest req, sim::Addr line)
{
    co_await sim::delay(eq_, params_.hit_latency);

    const bool demand = req.kind != AccessKind::Prefetch;
    const bool want_m = req.kind == AccessKind::Write;
    bool counted = false;

    // Retry from scratch after every suspension: an invalidation or
    // downgrade can land between any two resumptions, so nothing observed
    // before a wait survives it. Forward progress is guaranteed because a
    // fill is installed with the home's line lock held and the hit path
    // below completes synchronously upon resumption -- before any
    // later-cycle Inv can land.
    while (true) {
        if (Way *w = lookup(line); w && (!want_m || w->coh == MsiState::M)) {
            if (resilCheckHit(*w, req, line) == EccOutcome::Corrected) {
                // Correction bubble; an Inv can land across the wait, so
                // retry the lookup from scratch like any other resumption.
                co_await sim::delay(eq_, resil_->correctPenalty());
                continue;
            }
            if (w->poisoned && demand) {
                if (resilShouldContain(req)) {
                    // Machine check: the handler recalls every copy through
                    // the home directory and retires the page, so the retry
                    // refetches repaired data.
                    co_await resil_->contain(
                        line, params_.tile,
                        poisonCause(req.meta, resil_cls_));
                    if (req.meta)
                        req.meta->poison = false;
                    continue;
                }
                if (req.meta) {
                    req.meta->poison = true;
                    req.meta->fault_tags |= fault::faultClassBit(resil_cls_);
                }
            }
            touch(*w);
            if (want_m)
                w->dirty = true;
            if (!counted)
                (demand ? n_demand_hits_ : n_prefetch_hits_).inc();
            if (CoherenceChecker *ck = checker()) {
                if (req.kind == AccessKind::Read)
                    ck->onLoad(coh_id_, line);
                else if (req.kind == AccessKind::Write)
                    ck->onStore(coh_id_, line);
            }
            co_return;
        }
        if (!counted) {
            counted = true;
            (demand ? n_demand_misses_ : n_prefetch_misses_).inc();
            if (want_m && lookup(line))
                n_upgrade_misses_.inc();
            else if (std::find(recent_inv_.begin(), recent_inv_.end(), line) !=
                     recent_inv_.end())
                n_coherence_misses_.inc();
        }

        // Merge into an in-flight transaction for the same line, then
        // re-evaluate: the fill may have been S while we need M, or it may
        // already have been invalidated again.
        if (Mshr *m = findMshr(line)) {
            n_mshr_merges_.inc();
            fault::ParkGuard park(eq_, "mshr_merge", params_.name);
            co_await m->merged;
            continue;
        }

        if (mshrs_.size() >= params_.mshrs) {
            if (req.kind == AccessKind::Prefetch) {
                n_prefetch_drops_.inc();
                co_return;
            }
            n_mshr_stalls_.inc();
            {
                fault::ParkGuard park(eq_, "mshr_full", params_.name);
                co_await mshr_waiters_;
            }
            continue;
        }

        // The entry is the line's transient state (IS, IM, or SM when the
        // line is present in S) until the transaction completes.
        trace::LaneSpan span(tracer(), tr_miss_, "miss", trace::Category::Cache);
        mshrs_.push_back(Mshr{line, {}});
        // The home directory runs the whole transaction and installs the
        // line into this cache (cohInstall) before this resumes.
        co_await fabric_->fetch(
            coh_id_,
            req.child(line, kLineSize,
                      want_m ? AccessKind::Write : AccessKind::Read),
            line, want_m);
        completeMshr(line);
        if (req.kind == AccessKind::Prefetch) {
            n_prefetch_fills_.inc();
            co_return;
        }
    }
}

MsiState
Cache::cohTakeLine(sim::Addr line)
{
    n_inv_received_.inc();
    Way *w = lookup(line);
    if (!w)
        return MsiState::I;  // silently evicted, or our PutM is in flight
    MsiState prior = w->coh;
    // Poisoned dirty data travels home with the ack; the memory side of the
    // hierarchy tracks it in the backing-poison set (the recall writeback is
    // detached and carries no metadata).
    if (resil_ && w->poisoned && prior == MsiState::M)
        resil_->markBackingPoisoned(line);
    if (CoherenceChecker *ck = checker())
        ck->onRelease(coh_id_, line);
    noteInvalidated(line);
    *w = Way{};
    return prior;
}

MsiState
Cache::cohState(sim::Addr line) const
{
    const Way *w = lookupConst(line);
    return w ? w->coh : MsiState::I;
}

bool
Cache::cohDowngrade(sim::Addr line)
{
    Way *w = lookup(line);
    if (!w)
        return false;  // our PutM is in flight; the data is already traveling
    if (w->coh != MsiState::M)
        return false;
    if (resil_ && w->poisoned)
        resil_->markBackingPoisoned(line);  // dirty data goes home poisoned
    w->coh = MsiState::S;
    w->dirty = false;
    n_downgrades_.inc();
    if (CoherenceChecker *ck = checker())
        ck->onDowngrade(coh_id_, line);
    return true;
}

void
Cache::cohInstall(sim::Addr line, MsiState st, const MemRequest &req)
{
    CoherenceChecker *ck = checker();
    if (Way *w = lookup(line)) {
        // SM completing: write permission lands on the existing copy.
        MAPLE_ASSERT(w->coh == MsiState::S && st == MsiState::M,
                     "%s: unexpected in-place install on 0x%llx",
                     params_.name.c_str(), (unsigned long long)line);
        w->coh = MsiState::M;
        touch(*w);
        if (ck)
            ck->onUpgrade(coh_id_, line);
        return;
    }
    size_t set = setIndex(line);
    Way &victim = selectVictimCoherent(set);
    if (victim.valid) {
        n_evictions_.inc();
        if (ck)
            ck->onRelease(coh_id_, victim.tag);
        if (victim.coh == MsiState::M) {
            n_writebacks_.inc();
            if (resil_ && victim.poisoned)
                resil_->markBackingPoisoned(victim.tag);
            // The dirty victim goes home as a PutM; nobody waits on it, and
            // the home drops it as stale if the line was recalled first.
            // Detached traffic must not carry the requester's metadata
            // slot -- that pointer dies with the requester's coroutine
            // frame (poison already went home via markBackingPoisoned).
            MemRequest putm = req.child(victim.tag, kLineSize,
                                        AccessKind::Write);
            putm.meta = nullptr;
            sim::spawnDetached(eq_, fabric_->putM(coh_id_, putm, victim.tag));
        }
        // S victims evict silently; the home tolerates the stale sharer bit.
    }
    victim.tag = line;
    victim.valid = true;
    victim.dirty = false;
    victim.poisoned = resil_ && req.meta && req.meta->poison;
    victim.coh = st;
    touch(victim);
    if (ck)
        ck->onInstall(coh_id_, line, st);
}

sim::Task<void>
Cache::handleMiss(MemRequest req, sim::Addr line, bool &dropped)
{
    trace::LaneSpan span(tracer(), tr_miss_, "miss", trace::Category::Cache);

    // Merge into an in-flight fill for the same line.
    if (Mshr *m = findMshr(line)) {
        n_mshr_merges_.inc();
        fault::ParkGuard park(eq_, "mshr_merge", params_.name);
        co_await m->merged;
        co_return;
    }

    // Wait for a free MSHR; prefetches are dropped instead of waiting.
    while (mshrs_.size() >= params_.mshrs) {
        if (req.kind == AccessKind::Prefetch) {
            n_prefetch_drops_.inc();
            dropped = true;
            co_return;
        }
        n_mshr_stalls_.inc();
        {
            fault::ParkGuard park(eq_, "mshr_full", params_.name);
            co_await mshr_waiters_;
        }
        // Re-check everything after waking: the line may have been installed
        // or an MSHR for it allocated while we slept.
        if (lookup(line))
            co_return;
        if (Mshr *m = findMshr(line)) {
            fault::ParkGuard park(eq_, "mshr_merge", params_.name);
            co_await m->merged;
            co_return;
        }
    }

    mshrs_.push_back(Mshr{line, {}});

    // The fill (and any writeback it triggers) keeps the requester's
    // identity so downstream stages attribute the traffic to its true
    // origin. Requests merged into this MSHR are attributed to the first
    // requester -- the one whose fill they ride.
    co_await downstream_.request(req.child(line, kLineSize, AccessKind::Read));

    size_t set = setIndex(line);
    Way &victim = selectVictim(set);
    if (victim.valid) {
        n_evictions_.inc();
        if (victim.dirty) {
            n_writebacks_.inc();
            if (resil_ && victim.poisoned)
                resil_->markBackingPoisoned(victim.tag);
            // Writeback consumes downstream bandwidth but nobody waits on
            // it, so it must not carry the requester's metadata slot: that
            // pointer dies with the requester's coroutine frame (poison
            // already went home via markBackingPoisoned above).
            MemRequest wb = req.child(victim.tag, kLineSize,
                                      AccessKind::Write);
            wb.meta = nullptr;
            sim::spawnDetached(eq_, downstream_.request(wb));
        }
    }
    victim.tag = line;
    victim.valid = true;
    victim.dirty = false;
    victim.poisoned = resil_ && req.meta && req.meta->poison;
    touch(victim);
    if (req.kind == AccessKind::Prefetch)
        n_prefetch_fills_.inc();

    completeMshr(line);
}

Cache::Mshr *
Cache::findMshr(sim::Addr line)
{
    for (Mshr &m : mshrs_) {
        if (m.line == line)
            return &m;
    }
    return nullptr;
}

void
Cache::completeMshr(sim::Addr line)
{
    Mshr *m = findMshr(line);
    MAPLE_ASSERT(m, "%s: fill completed without an MSHR", params_.name.c_str());
    sim::WaitList merged = std::move(m->merged);
    if (m != &mshrs_.back())
        *m = std::move(mshrs_.back());
    mshrs_.pop_back();
    mshr_waiters_.wakeAll();
    merged.wakeAll();
}

}  // namespace maple::mem
