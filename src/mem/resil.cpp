#include "mem/resil.hpp"

#include <sstream>

#include "mem/physical_memory.hpp"
#include "sim/log.hpp"

namespace maple::mem {

fault::FaultClass
poisonCause(const RequestMeta *m, fault::FaultClass fallback)
{
    static constexpr fault::FaultClass kBitFlips[] = {
        fault::FaultClass::BitFlipL1, fault::FaultClass::BitFlipLlc,
        fault::FaultClass::BitFlipDir, fault::FaultClass::BitFlipDram};
    if (m) {
        for (fault::FaultClass c : kBitFlips) {
            if (m->fault_tags & fault::faultClassBit(c))
                return c;
        }
    }
    return fallback;
}

namespace {

/** Structure a BitFlip* cause names (MCA encoding of consumed poison). */
ResilStructure
structureOfCause(fault::FaultClass c)
{
    switch (c) {
      case fault::FaultClass::BitFlipL1:   return ResilStructure::L1;
      case fault::FaultClass::BitFlipDir:  return ResilStructure::Directory;
      case fault::FaultClass::BitFlipDram: return ResilStructure::Dram;
      default:                             return ResilStructure::Llc;
    }
}

}  // namespace

const char *
resilStructureName(ResilStructure s)
{
    switch (s) {
      case ResilStructure::L1:        return "l1";
      case ResilStructure::Llc:       return "llc";
      case ResilStructure::Directory: return "dir";
      case ResilStructure::Dram:      return "dram";
      default:                        return "?";
    }
}

ResilManager::ResilManager(sim::EventQueue &eq, ResilConfig cfg,
                           unsigned num_tiles)
    : eq_(eq), cfg_(cfg), stats_("resil"), mca_(num_tiles)
{
    for (std::size_t s = 0; s < kStructures; ++s) {
        const char *n = resilStructureName(static_cast<ResilStructure>(s));
        corrected_[s] = &stats_.counter(std::string("corrected_") + n);
        uncorrectable_[s] = &stats_.counter(std::string("uncorrectable_") + n);
    }
    containments_ = &stats_.counter("containments");
    retired_pages_ = &stats_.counter("retired_pages");
    mca_records_ = &stats_.counter("mca_records");
    scrub_passes_ = &stats_.counter("scrub_passes");
    scrub_repairs_ = &stats_.counter("scrub_repairs");
}

EccOutcome
ResilManager::check(fault::FaultClass cls, RequesterClass rc,
                    ResilStructure st, sim::Addr line, sim::TileId tile)
{
    if (!cfg_.ecc)
        return EccOutcome::Clean;
    fault::FaultInjector *f = fault::active(eq_);
    if (!f)
        return EccOutcome::Clean;
    sim::Cycle severity = f->inject(cls, rc);
    if (severity == 0)
        return EccOutcome::Clean;
    if (severity == 1) {
        // Single-bit: SECDED corrects in place. The caller models the
        // correction pipeline bubble by delaying correctPenalty() cycles;
        // the stall attribution is accounted here so every site agrees.
        corrected_[static_cast<std::size_t>(st)]->inc();
        f->chargeCycles(cls, cfg_.correct_latency);
        return EccOutcome::Corrected;
    }
    // Multi-bit: detected but uncorrectable. Latch the machine check; the
    // caller poisons the affected line (or rebuilds the directory entry).
    uncorrectable_[static_cast<std::size_t>(st)]->inc();
    recordMca(tile, st, cls, line);
    return EccOutcome::Uncorrectable;
}

void
ResilManager::markBackingPoisoned(sim::Addr line)
{
    backing_poison_.insert(line);
}

void
ResilManager::clearBackingPoisonPage(sim::Addr page_base)
{
    auto it = backing_poison_.lower_bound(page_base);
    while (it != backing_poison_.end() && *it < page_base + kPageSize)
        it = backing_poison_.erase(it);
}

void
ResilManager::recordMca(sim::TileId tile, ResilStructure st,
                        fault::FaultClass cause, sim::Addr addr)
{
    mca_records_->inc();
    McaBank &b = mca_.at(tile);
    b.count += 1;
    if (b.valid)
        return;  // sticky: first cause/addr win until software clears
    b.valid = true;
    b.structure = static_cast<std::uint8_t>(st);
    b.cause = static_cast<std::uint8_t>(cause);
    b.addr = addr;
    b.first_cycle = eq_.now();
}

sim::Task<void>
ResilManager::contain(sim::Addr line, sim::TileId tile,
                      fault::FaultClass cause)
{
    containments_->inc();
    // Latch the consumer's machine check too: detection latched the bank of
    // the tile that found the error, this records the tile that ate it.
    recordMca(tile, structureOfCause(cause), cause, line);
    if (contain_)
        co_await contain_(line, tile, cause);
    co_return;
}

void
ResilManager::kickScrub()
{
    if (scrub_running_ || cfg_.scrub_interval == 0 || !scrub_auditor_)
        return;
    scrub_running_ = true;
    sim::spawnDetached(eq_, scrubLoop());
}

sim::Task<void>
ResilManager::scrubLoop()
{
    while (true) {
        co_await sim::delay(eq_, cfg_.scrub_interval);
        // Our wake was popped before resuming: pending() == 0 means the
        // machine is otherwise idle. Stop instead of rescheduling, so the
        // run phase drains and the SoC can quiesce; the next run phase
        // kicks the loop again from the preserved cursor.
        if (eq_.pending() == 0)
            break;
        scrub_passes_->inc();
        scrub_repairs_->inc(scrub_auditor_(scrub_cursor_, cfg_.scrub_batch));
    }
    scrub_running_ = false;
}

std::uint64_t
ResilManager::correctedTotal() const
{
    std::uint64_t n = 0;
    for (const sim::Counter *c : corrected_)
        n += c->value();
    return n;
}

std::uint64_t
ResilManager::uncorrectableTotal() const
{
    std::uint64_t n = 0;
    for (const sim::Counter *c : uncorrectable_)
        n += c->value();
    return n;
}

std::string
ResilManager::summary() const
{
    std::ostringstream os;
    os << "corrected=" << correctedTotal()
       << " uncorrectable=" << uncorrectableTotal()
       << " containments=" << containments()
       << " retired_pages=" << retiredPages()
       << " backing_poisoned=" << backing_poison_.size()
       << " scrub_passes=" << scrubPasses()
       << " scrub_repairs=" << scrubRepairs();
    unsigned latched = 0;
    for (const McaBank &b : mca_)
        latched += b.valid ? 1 : 0;
    os << " mca_latched=" << latched;
    return os.str();
}

template <class Ar>
void
ResilManager::state(Ar &ar)
{
    MAPLE_ASSERT(!scrub_running_, "snapshot/restore with the scrub loop on");
    ar.u64(scrub_cursor_);
    ar.expect64(mca_.size(), "resil tile count");
    for (McaBank &b : mca_) {
        ar.b(b.valid);
        ar.u8(b.structure);
        ar.u8(b.cause);
        ar.u64(b.addr);
        ar.u64(b.count);
        ar.u64(b.first_cycle);
    }
    // std::set iterates sorted.
    ar.seq(backing_poison_, [&ar](auto &line) { ar.u64(line); });
    stats_.state(ar);
}

template void ResilManager::state(ckpt::Sink &);
template void ResilManager::state(ckpt::Source &);

}  // namespace maple::mem
