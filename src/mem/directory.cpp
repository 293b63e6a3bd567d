#include "mem/directory.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "mem/resil.hpp"
#include "sim/log.hpp"

namespace maple::mem {

namespace {

/** Sender timeout before a dropped protocol message is retransmitted. */
constexpr sim::Cycle kDropRetransmitTimeout = 256;

bool
contains(const std::vector<unsigned> &v, unsigned x)
{
    return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

Directory::Directory(sim::EventQueue &eq, const CoherenceConfig &cfg,
                     CoherenceFabric &fabric, std::string name,
                     sim::TileId tile, Port &slice_llc)
    : eq_(eq), cfg_(cfg), fabric_(fabric), name_(std::move(name)), tile_(tile),
      slice_llc_(slice_llc), stats_(name_)
{
    MAPLE_ASSERT(cfg_.dir_entries > 0 && cfg_.dir_assoc > 0);
    num_sets_ = std::max<std::size_t>(1, cfg_.dir_entries / cfg_.dir_assoc);
    // Power-of-two set count so setOf() is a mask, mirroring mem::Cache.
    while (num_sets_ & (num_sets_ - 1))
        ++num_sets_;
    sets_.assign(num_sets_, std::vector<Entry>(cfg_.dir_assoc));
}

std::size_t
Directory::setOf(sim::Addr line) const
{
    // Slice-interleaving consumes the low line bits; fold them out so a
    // slice's sets are used uniformly instead of striding by slice count.
    return static_cast<std::size_t>(
        (line >> kLineShift) / std::max(1u, fabric_.numSlices()) &
        (num_sets_ - 1));
}

Directory::Entry *
Directory::find(sim::Addr line)
{
    for (Entry &e : sets_[setOf(line)]) {
        if (e.valid && e.tag == line)
            return &e;
    }
    return nullptr;
}

sim::Task<void>
Directory::lock(sim::Addr line)
{
    while (true) {
        auto held = busy_.try_emplace(line);
        if (held.second)
            co_return;  // the line was free: now it is ours
        n_busy_waits_.inc();
        fault::ParkGuard park(eq_, "dir_busy", name_);
        co_await held.first->second;
    }
}

bool
Directory::tryLock(sim::Addr line)
{
    return busy_.try_emplace(line).second;
}

void
Directory::unlock(sim::Addr line)
{
    auto it = busy_.find(line);
    MAPLE_ASSERT(it != busy_.end(), "unlock of an unlocked directory line");
    sim::WaitList waiters = std::move(it->second);
    busy_.erase(it);
    waiters.wakeAll();
}

void
Directory::writebackToSlice(sim::Addr line)
{
    // Dirty data recalled from an owner updates the LLC slice off the
    // critical path: the response to the requester does not wait for it.
    sim::spawnDetached(
        eq_, slice_llc_.request(MemRequest::make(eq_, RequesterClass::Coherence,
                                                 tile_, line, kLineSize,
                                                 AccessKind::Write)));
}

void
Directory::freeIfUntracked(Entry &e)
{
    if (e.valid && e.owner < 0 && e.sharers.empty()) {
        e.valid = false;
        --live_entries_;
    }
}

void
Directory::noteStalePutM(sim::Addr line, unsigned cache)
{
    stale_putms_[line].push_back(cache);
}

bool
Directory::consumeStalePutM(sim::Addr line, unsigned cache)
{
    auto it = stale_putms_.find(line);
    if (it == stale_putms_.end())
        return false;
    auto &v = it->second;
    auto pos = std::find(v.begin(), v.end(), cache);
    if (pos == v.end())
        return false;
    v.erase(pos);
    if (v.empty())
        stale_putms_.erase(it);
    return true;
}

sim::Task<void>
Directory::invOne(unsigned cache, sim::Addr line)
{
    n_invalidations_.inc();
    CoherentCache &c = fabric_.cacheById(cache);
    co_await fabric_.message(tile_, c.cohTile(), CohMsg::Inv, 0,
                             RequesterClass::Coherence);
    MsiState prior = c.cohTakeLine(line);
    // A sharer never holds M, but a stale sharer bit can point at a cache
    // that re-acquired the line as owner in an earlier serialized
    // transaction removing it from this vector -- by construction that
    // cannot happen while we hold the line lock, so prior is S or I here.
    co_await fabric_.message(c.cohTile(), tile_, CohMsg::InvAck,
                             prior == MsiState::M ? unsigned(kLineSize) : 0,
                             RequesterClass::Coherence);
    if (prior == MsiState::M)
        writebackToSlice(line);
}

sim::Task<void>
Directory::invalidateSharers(Entry &e, sim::Addr line)
{
    if (e.sharers.empty())
        co_return;
    std::vector<unsigned> targets = std::move(e.sharers);
    e.sharers.clear();
    // All Inv legs fly in parallel; the transaction proceeds when the last
    // ack is home. The count and the latch live in this frame, which waits
    // for the last leg.
    auto remaining = static_cast<unsigned>(targets.size());
    sim::Signal all_acked;
    for (unsigned t : targets) {
        auto leg = [](Directory *self, unsigned cache, sim::Addr ln,
                      unsigned *left, sim::Signal *done) -> sim::Task<void> {
            co_await self->invOne(cache, ln);
            if (--*left == 0)
                done->set();
        };
        sim::spawnDetached(eq_, leg(this, t, line, &remaining, &all_acked));
    }
    fault::ParkGuard park(eq_, "dir_inv_acks", name_);
    co_await all_acked;
}

sim::Task<void>
Directory::recallOwner(Entry &e, sim::Addr line)
{
    n_interventions_.inc();
    n_fwd_getm_.inc();
    unsigned owner = static_cast<unsigned>(e.owner);
    CoherentCache &o = fabric_.cacheById(owner);
    e.owner = -1;
    co_await fabric_.message(tile_, o.cohTile(), CohMsg::FwdGetM, 0,
                             RequesterClass::Coherence);
    MsiState prior = o.cohTakeLine(line);
    // prior == I: the owner's PutM is still in flight (it will arrive
    // stale and must be ignored even if the cache re-owns the line by
    // then); the ack is header-only because the copy is already gone.
    if (prior == MsiState::I)
        noteStalePutM(line, owner);
    co_await fabric_.message(o.cohTile(), tile_, CohMsg::InvAck,
                             prior == MsiState::M ? unsigned(kLineSize) : 0,
                             RequesterClass::Coherence);
    if (prior == MsiState::M)
        writebackToSlice(line);
}

sim::Task<void>
Directory::downgradeOwner(Entry &e, sim::Addr line)
{
    n_interventions_.inc();
    n_fwd_gets_.inc();
    unsigned owner = static_cast<unsigned>(e.owner);
    CoherentCache &o = fabric_.cacheById(owner);
    e.owner = -1;
    co_await fabric_.message(tile_, o.cohTile(), CohMsg::FwdGetS, 0,
                             RequesterClass::Coherence);
    bool was_m = o.cohDowngrade(line);
    co_await fabric_.message(o.cohTile(), tile_, CohMsg::Downgrade,
                             was_m ? unsigned(kLineSize) : 0,
                             RequesterClass::Coherence);
    if (was_m) {
        writebackToSlice(line);
        if (!contains(e.sharers, owner))
            e.sharers.push_back(owner);
    } else if (o.cohState(line) == MsiState::I) {
        // The owner's copy was already gone (PutM in flight); it is not a
        // sharer, and its PutM must be dropped on arrival.
        noteStalePutM(line, owner);
    }
}

sim::Task<Directory::Entry *>
Directory::allocate(sim::Addr line)
{
    auto &set = sets_[setOf(line)];
    Entry *victim = nullptr;
    for (;;) {
        for (Entry &e : set) {
            if (!e.valid) {
                victim = &e;
                break;
            }
        }
        if (victim)
            break;
        // Eviction-forced invalidation. Only victims whose line lock is
        // free are candidates: we already hold @p line's lock and must
        // never *wait* for a second one (deadlock), so busy entries are
        // skipped and their lock is taken synchronously (tryLock cannot
        // fail after the scan -- both run without suspension). Under heavy
        // set pressure every way can be mid-transaction at once; holders
        // never await a contended lock themselves (they only tryLock), so
        // they finish in bounded time and polling until a way frees up is
        // deadlock-free. The set can change across the stall (a way freed,
        // or grabbed by another allocator), so each round re-scans from
        // scratch, invalid ways included.
        Entry *best = nullptr;
        for (Entry &e : set) {
            if (!busy_.count(e.tag) && (!best || e.lru < best->lru))
                best = &e;
        }
        if (!best) {
            n_alloc_stalls_.inc();
            fault::ParkGuard park(eq_, "dir_alloc", name_);
            co_await sim::delay(eq_, cfg_.dir_latency);
            continue;
        }
        bool locked = tryLock(best->tag);
        MAPLE_ASSERT(locked);
        sim::Addr victim_line = best->tag;
        n_recalls_.inc();
        if (best->owner >= 0)
            co_await recallOwner(*best, victim_line);
        co_await invalidateSharers(*best, victim_line);
        best->valid = false;
        --live_entries_;
        unlock(victim_line);
        victim = best;
        break;
    }
    victim->tag = line;
    victim->valid = true;
    victim->owner = -1;
    victim->sharers.clear();
    victim->lru = lru_clock_++;
    ++live_entries_;
    co_return victim;
}

sim::Cycle
Directory::resilCheckLookup(sim::Addr line, RequesterClass rc)
{
    ResilManager *r = fabric_.resil();
    if (!r)
        return 0;
    EccOutcome o = r->check(fault::FaultClass::BitFlipDir, rc,
                            ResilStructure::Directory, line, tile_);
    if (o == EccOutcome::Corrected)
        return r->correctPenalty();
    if (o == EccOutcome::Uncorrectable)
        corruptEntry(line);
    return 0;
}

void
Directory::corruptEntry(sim::Addr line)
{
    Entry *e = find(line);
    if (!e || e->owner >= 0 || e->sharers.size() >= cfg_.max_sharers)
        return;
    for (unsigned id = 0; id < fabric_.numCaches(); ++id) {
        if (!contains(e->sharers, id) &&
            fabric_.cacheById(id).cohState(line) == MsiState::I) {
            e->sharers.push_back(id);
            n_corrupt_sharers_.inc();
            return;
        }
    }
}

sim::Task<void>
Directory::recallLine(sim::Addr line)
{
    co_await lock(line);
    co_await sim::delay(eq_, cfg_.dir_latency);
    if (Entry *e = find(line)) {
        n_resil_recalls_.inc();
        if (e->owner >= 0)
            co_await recallOwner(*e, line);
        co_await invalidateSharers(*e, line);
        freeIfUntracked(*e);
    }
    unlock(line);
}

unsigned
Directory::scrubAudit(std::uint64_t slot)
{
    Entry &e = sets_[static_cast<std::size_t>(slot / cfg_.dir_assoc)]
                    [static_cast<std::size_t>(slot % cfg_.dir_assoc)];
    if (!e.valid || e.owner >= 0 || e.sharers.empty() || busy_.count(e.tag))
        return 0;
    unsigned repaired = 0;
    for (auto it = e.sharers.begin(); it != e.sharers.end();) {
        if (fabric_.cacheById(*it).cohState(e.tag) == MsiState::I) {
            it = e.sharers.erase(it);
            ++repaired;
        } else {
            ++it;
        }
    }
    if (repaired) {
        n_scrub_repairs_.inc(repaired);
        freeIfUntracked(e);
    }
    return repaired;
}

sim::Task<void>
Directory::fetchTransaction(unsigned requester, MemRequest req, sim::Addr line,
                            bool want_m)
{
    CoherentCache &c = fabric_.cacheById(requester);
    co_await lock(line);
    const sim::Cycle txn_start = eq_.now();
    co_await sim::delay(eq_, cfg_.dir_latency);
    if (sim::Cycle bubble = resilCheckLookup(line, req.cls))
        co_await sim::delay(eq_, bubble);
    (want_m ? n_getm_ : n_gets_).inc();

    Entry *e = find(line);
    bool data_needed = true;
    if (want_m) {
        if (e) {
            if (e->owner == static_cast<int>(requester)) {
                // Stale self-ownership: the requester's PutM for this line
                // is still in flight. Its copy is gone; a full fill is due,
                // and since the requester is about to be the *current*
                // owner again, that PutM must be ignored when it lands.
                e->owner = -1;
                noteStalePutM(line, requester);
            } else if (e->owner >= 0) {
                co_await recallOwner(*e, line);
            }
            bool was_sharer = false;
            for (auto it = e->sharers.begin(); it != e->sharers.end(); ++it) {
                if (*it == requester) {
                    e->sharers.erase(it);
                    was_sharer = true;
                    break;
                }
            }
            co_await invalidateSharers(*e, line);
            if (was_sharer) {
                if (c.cohState(line) == MsiState::S) {
                    // Upgrade grant: the requester's S copy becomes
                    // writable; the response is header-only.
                    n_upgrades_.inc();
                    data_needed = false;
                } else {
                    // Stale sharer bit: the S copy was silently evicted
                    // since, so the grant needs a full fill (and its LLC
                    // read) after all.
                    n_stale_upgrades_.inc();
                }
            }
        } else {
            e = co_await allocate(line);
        }
        if (data_needed) {
            co_await slice_llc_.request(
                req.child(line, kLineSize, AccessKind::Read));
        }
        e->owner = static_cast<int>(requester);
        e->sharers.clear();
    } else {
        if (e) {
            if (e->owner == static_cast<int>(requester)) {
                // Stale self-ownership, see above.
                e->owner = -1;
                noteStalePutM(line, requester);
            } else if (e->owner >= 0) {
                co_await downgradeOwner(*e, line);
            }
        } else {
            e = co_await allocate(line);
        }
        co_await slice_llc_.request(
            req.child(line, kLineSize, AccessKind::Read));
        if (!contains(e->sharers, requester)) {
            if (e->sharers.size() >= cfg_.max_sharers) {
                // Limited-pointer overflow: the oldest tracked sharer is
                // invalidated to make room.
                n_sharer_overflows_.inc();
                unsigned oldest = e->sharers.front();
                e->sharers.erase(e->sharers.begin());
                co_await invOne(oldest, line);
            }
            e->sharers.push_back(requester);
        }
    }
    e->lru = lru_clock_++;

    // Response transit and install inside the lock: a later transaction's
    // Inv for this line cannot overtake the fill.
    co_await fabric_.message(tile_, c.cohTile(), CohMsg::Data,
                             data_needed ? unsigned(kLineSize) : 0, req.cls);
    c.cohInstall(line, want_m ? MsiState::M : MsiState::S, req);
    txn_cycles_.sample(static_cast<double>(eq_.now() - txn_start));
    unlock(line);
}

sim::Task<void>
Directory::putMTransaction(unsigned requester, MemRequest req, sim::Addr line)
{
    CoherentCache &c = fabric_.cacheById(requester);
    co_await fabric_.message(c.cohTile(), tile_, CohMsg::PutM,
                             unsigned(kLineSize), req.cls);
    co_await lock(line);
    co_await sim::delay(eq_, cfg_.dir_latency);
    Entry *e = find(line);
    if (consumeStalePutM(line, requester)) {
        // Superseded in flight: the home already observed this eviction (a
        // recall or downgrade found the copy gone, or the cache's own
        // re-fetch cleared stale self-ownership). The requester may have
        // re-acquired M since, so `owner == requester` proves nothing here
        // -- clearing it would detach a live M copy (ABA).
        n_putm_stale_.inc();
    } else if (e && e->owner == static_cast<int>(requester)) {
        n_putm_.inc();
        e->owner = -1;
        freeIfUntracked(*e);
        // Detached: strip the sender's metadata slot (its coroutine frame
        // may be gone by the time the LLC write lands).
        MemRequest wb = req.child(line, kLineSize, AccessKind::Write);
        wb.meta = nullptr;
        sim::spawnDetached(eq_, slice_llc_.request(wb));
    } else {
        // The line's entry was evicted and re-allocated while this PutM
        // flew; every such path notes the PutM as superseded, so this is
        // defensive only. Drop it.
        n_putm_stale_.inc();
    }
    unlock(line);
    co_await fabric_.message(tile_, c.cohTile(), CohMsg::WbAck, 0,
                             RequesterClass::Coherence);
}

sim::Task<void>
Directory::dmaTransaction(MemRequest req, sim::Addr line, bool write)
{
    co_await lock(line);
    co_await sim::delay(eq_, cfg_.dir_latency);
    if (sim::Cycle bubble = resilCheckLookup(line, req.cls))
        co_await sim::delay(eq_, bubble);
    (write ? n_dma_writes_ : n_dma_reads_).inc();
    Entry *e = find(line);
    if (e) {
        if (write) {
            if (e->owner >= 0)
                co_await recallOwner(*e, line);
            co_await invalidateSharers(*e, line);
            freeIfUntracked(*e);
        } else if (e->owner >= 0) {
            co_await downgradeOwner(*e, line);
        }
    }
    if (CoherenceChecker *ck = fabric_.checker()) {
        if (write)
            ck->onDmaWrite(line);
        else if (req.kind != AccessKind::Prefetch)
            ck->onDmaRead(line);
    }
    co_await slice_llc_.request(req);
    unlock(line);
}

template <class Ar>
void
Directory::state(Ar &ar)
{
    MAPLE_ASSERT(busy_.empty() && stale_putms_.empty(),
                 "snapshot/restore with directory transactions or PutMs live");
    ar.expect64(num_sets_, "directory set count");
    ar.expect64(cfg_.dir_assoc, "directory associativity");
    for (auto &set : sets_) {
        for (Entry &e : set) {
            ar.u64(e.tag);
            ar.b(e.valid);
            auto owner = static_cast<std::uint64_t>(e.owner + 1);
            ar.u64(owner);
            if constexpr (Ar::kLoading)
                e.owner = static_cast<int>(owner) - 1;
            ar.seq(e.sharers, [&ar](unsigned &s) { ar.u32(s); });
            ar.u64(e.lru);
        }
    }
    ar.u64(lru_clock_);
    ar.u64(live_entries_);
    stats_.state(ar);
}

template void Directory::state(ckpt::Sink &);
template void Directory::state(ckpt::Source &);

CoherenceFabric::CoherenceFabric(sim::EventQueue &eq, CoherenceConfig cfg,
                                 noc::Mesh &mesh)
    : eq_(eq), cfg_(cfg), mesh_(mesh)
{
    MAPLE_ASSERT(cfg_.enabled(), "CoherenceFabric in mode none");
    if (cfg_.checker)
        checker_ = std::make_unique<CoherenceChecker>();
}

unsigned
CoherenceFabric::registerCache(CoherentCache &cache)
{
    caches_.push_back(&cache);
    unsigned id = static_cast<unsigned>(caches_.size() - 1);
    if (checker_) {
        unsigned cid = checker_->registerCache(cache.cohName());
        MAPLE_ASSERT(cid == id, "checker/fabric cache ids diverged");
    }
    return id;
}

Directory &
CoherenceFabric::addSlice(sim::TileId tile, Port &slice_llc)
{
    std::string name = "dir." + std::to_string(slices_.size());
    slices_.push_back(std::make_unique<Directory>(eq_, cfg_, *this,
                                                  std::move(name), tile,
                                                  slice_llc));
    return *slices_.back();
}

sim::Task<void>
CoherenceFabric::fetch(unsigned requester, MemRequest req, sim::Addr line,
                       bool want_m)
{
    Directory &d = *slices_[homeSlice(line)];
    CoherentCache &c = *caches_[requester];
    co_await message(c.cohTile(), d.tile(), want_m ? CohMsg::GetM : CohMsg::GetS,
                     0, req.cls);
    co_await d.fetchTransaction(requester, req, line, want_m);
}

sim::Task<void>
CoherenceFabric::putM(unsigned requester, MemRequest req, sim::Addr line)
{
    co_await slices_[homeSlice(line)]->putMTransaction(requester, req, line);
}

sim::Task<void>
CoherenceFabric::dmaLine(MemRequest req, sim::Addr line, bool write)
{
    Directory &d = *slices_[homeSlice(line)];
    co_await message(req.tile, d.tile(), write ? CohMsg::GetM : CohMsg::GetS,
                     write ? req.size : 0, req.cls);
    co_await d.dmaTransaction(req, line, write);
    co_await message(d.tile(), req.tile, CohMsg::Data, write ? 0 : req.size,
                     req.cls);
}

sim::Task<void>
CoherenceFabric::message(sim::TileId src, sim::TileId dst, CohMsg kind,
                         unsigned payload_bytes, RequesterClass cls)
{
    ++msg_counts_[static_cast<std::size_t>(kind)];
    unsigned flits = noc::flitsFor(payload_bytes, mesh_.params().flit_bytes);
    if (fault::FaultInjector *f = fault::active(eq_)) {
        if (sim::Cycle d = f->inject(fault::FaultClass::CohMsgDelay, cls)) {
            f->chargeCycles(fault::FaultClass::CohMsgDelay, d);
            co_await sim::delay(eq_, d);
        }
        if (f->inject(fault::FaultClass::CohMsgDrop, cls)) {
            // The lost copy still burns link bandwidth; the sender times
            // out and retransmits, so protocol liveness survives a drop --
            // the transaction's latency does not.
            co_await mesh_.transit(src, dst, flits, cls);
            f->chargeCycles(fault::FaultClass::CohMsgDrop,
                            kDropRetransmitTimeout);
            co_await sim::delay(eq_, kDropRetransmitTimeout);
        }
    }
    co_await mesh_.transit(src, dst, flits, cls);
}

std::uint64_t
CoherenceFabric::totalInvalidations() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->stats().counterValue("invalidations");
    return n;
}

std::uint64_t
CoherenceFabric::totalInterventions() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->stats().counterValue("interventions");
    return n;
}

template <class Ar>
void
CoherenceFabric::state(Ar &ar)
{
    for (std::uint64_t &c : msg_counts_)
        ar.u64(c);
    ar.expect64(slices_.size(), "coherence slice count");
    for (auto &s : slices_)
        s->state(ar);
}

template void CoherenceFabric::state(ckpt::Sink &);
template void CoherenceFabric::state(ckpt::Source &);

sim::Task<void>
CoherentDmaPort::request(MemRequest req)
{
    MAPLE_ASSERT(req.size > 0);
    const bool write = req.kind == AccessKind::Write;
    // A core/PTW-class read that returns poison must machine-check, so make
    // sure a metadata slot exists for the poison to land in.
    const bool contain_consumer =
        resil_ && resil_->canContain() && !write &&
        (req.cls == RequesterClass::Core || req.cls == RequesterClass::Ptw);
    RequestMeta local;
    if (contain_consumer && !req.meta)
        req.meta = &local;
    while (true) {
        sim::Addr poisoned = sim::kBadAddr;
        sim::Addr first = lineBase(req.paddr);
        sim::Addr last = lineBase(req.paddr + req.size - 1);
        for (sim::Addr line = first; line <= last; line += kLineSize) {
            bool before = req.meta && req.meta->poison;
            sim::Addr lo = std::max(req.paddr, line);
            sim::Addr hi = std::min(req.paddr + req.size, line + kLineSize);
            co_await fabric_.dmaLine(
                req.child(lo, static_cast<std::uint32_t>(hi - lo), req.kind),
                line, write);
            if (!before && req.meta && req.meta->poison &&
                poisoned == sim::kBadAddr)
                poisoned = line;
        }
        if (!contain_consumer || poisoned == sim::kBadAddr)
            co_return;
        // Containment flushes the poisoned line's holders and retires its
        // page; one clean retry of the whole access then succeeds.
        co_await resil_->contain(
            poisoned, req.tile,
            poisonCause(req.meta, fault::FaultClass::BitFlipLlc));
        req.meta->poison = false;
    }
}

}  // namespace maple::mem
