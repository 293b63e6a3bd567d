#include "ckpt/snapshot.hpp"

#include <istream>
#include <ostream>

#include "ckpt/serial.hpp"
#include "sim/error.hpp"
#include "soc/knobs.hpp"
#include "soc/soc.hpp"

namespace maple::ckpt {

namespace {

using sim::fnvMix;

void
mixCache(std::uint64_t &h, const mem::CacheParams &p)
{
    fnvMix(h, p.size_bytes);
    fnvMix(h, p.assoc);
    fnvMix(h, p.hit_latency);
    fnvMix(h, p.mshrs);
}

}  // namespace

std::uint64_t
configHash(const soc::SocConfig &raw)
{
    // Resolve exactly as Soc's constructor does, so hashing a
    // pre-construction config matches hashing soc.config() afterwards
    // (resolution is idempotent).
    soc::SocConfig cfg = raw;
    soc::resolveConfig(cfg);

    std::uint64_t h = sim::kFnvOffset;
    fnvMix(h, cfg.num_cores);
    fnvMix(h, cfg.num_maples);
    fnvMix(h, cfg.mesh_width);
    fnvMix(h, cfg.mesh_height);
    fnvMix(h, cfg.dram_bytes);
    mixCache(h, cfg.l1);
    mixCache(h, cfg.llc);
    fnvMix(h, cfg.dram.latency);
    fnvMix(h, cfg.dram.cycles_per_line);
    fnvMix(h, cfg.dram.channels);
    fnvMix(h, static_cast<std::uint64_t>(cfg.dram.arb));
    fnvMix(h, static_cast<std::uint64_t>(cfg.llc_arb));
    fnvMix(h, cfg.mesh.hop_latency);
    fnvMix(h, cfg.mesh.flit_bytes);
    fnvMix(h, cfg.core_proto.issue_cycles);
    fnvMix(h, cfg.core_proto.tlb_entries);
    fnvMix(h, cfg.core_proto.l1_bypass);
    fnvMix(h, cfg.core_proto.l15_latency);
    fnvMix(h, cfg.core_proto.store_buffer);
    fnvMix(h, cfg.core_proto.mmio_extra_latency);
    fnvMix(h, cfg.maple_proto.scratchpad_bytes);
    fnvMix(h, cfg.maple_proto.max_queues);
    fnvMix(h, cfg.maple_proto.produce_buffer);
    fnvMix(h, cfg.maple_proto.lima_cmds);
    fnvMix(h, cfg.maple_proto.pipe_latency);
    fnvMix(h, cfg.maple_proto.tlb_entries);
    fnvMix(h, cfg.maple_proto.fetch_via_llc ? 1 : 0);
    fnvMix(h, cfg.maple_proto.shared_pipeline_hazard ? 1 : 0);
    fnvMix(h, cfg.kernel.fault_latency);
    // Mixed only when a protocol is enabled, so a coherence-free config
    // hashes identically to builds that predate coherence (their snapshots
    // would still be rejected by the format-version bump, but warm images
    // taken by *this* build in none mode stay portable across the flag).
    const mem::CoherenceConfig &coh = cfg.coherence;
    if (coh.enabled()) {
        fnvMix(h, static_cast<std::uint64_t>(coh.mode));
        fnvMix(h, coh.dir_entries);
        fnvMix(h, coh.dir_assoc);
        fnvMix(h, coh.max_sharers);
        fnvMix(h, coh.dir_latency);
        fnvMix(h, cfg.llc_slices);
    }
    return h;
}

}  // namespace maple::ckpt

namespace maple::soc {

void
Soc::snapshot(std::ostream &os)
{
    // Quiesce check: with live coroutine frames (pending events or waiters
    // parked in the fault injector) the machine state is not serializable.
    MAPLE_CHECK(eq_.pending() == 0, ckpt::SnapshotError,
                "snapshot requires a quiesced SoC: %llu events still pending",
                (unsigned long long)eq_.pending());
    MAPLE_CHECK(fault_->parkedWaiters() == 0, ckpt::SnapshotError,
                "snapshot requires a quiesced SoC: %u waiters parked in the "
                "fault injector",
                fault_->parkedWaiters());

    ckpt::Sink out(os);
    out.u64(ckpt::kMagic);
    out.u32(ckpt::kFormatVersion);
    out.u64(ckpt::configHash(cfg_));
    out.u64(eq_.now());

    auto writeSection = [&out](ckpt::Section tag, auto &&fill) {
        ckpt::SectionWriter w(out, static_cast<std::uint32_t>(tag));
        fill(w.sink());
        w.finish();
    };

    writeSection(ckpt::Section::Engine,
                 [this](ckpt::Sink &s) { eq_.engineState().state(s); });
    writeSection(ckpt::Section::Kernel,
                 [this](ckpt::Sink &s) { kernel_->state(s); });
    writeSection(ckpt::Section::PhysMem,
                 [this](ckpt::Sink &s) { pm_->state(s); });
    writeSection(ckpt::Section::Mesh,
                 [this](ckpt::Sink &s) { mesh_->state(s); });
    writeSection(ckpt::Section::Dram,
                 [this](ckpt::Sink &s) { dram_->state(s); });
    writeSection(ckpt::Section::LlcFront,
                 [this](ckpt::Sink &s) { llc_front_->state(s); });
    writeSection(ckpt::Section::Llc,
                 [this](ckpt::Sink &s) { llc_->state(s); });
    // Extra LLC slices and the coherence fabric (msi mode only). Written
    // before the Core sections: restore resets the reference checker when
    // it sees the Directory section, and the per-core L1 walks that follow
    // re-seed the checker with every held line.
    if (coh_) {
        for (unsigned s = 1; s < cfg_.llc_slices; ++s) {
            writeSection(ckpt::Section::SliceLlc, [this, s](ckpt::Sink &sk) {
                sk.u32(s);
                slice_llcs_[s - 1]->state(sk);
            });
        }
        writeSection(ckpt::Section::Directory,
                     [this](ckpt::Sink &s) { coh_->state(s); });
    }
    for (unsigned i = 0; i < numCores(); ++i) {
        writeSection(ckpt::Section::Core, [this, i](ckpt::Sink &s) {
            s.u32(i);
            l1s_[i]->state(s);
            cores_[i]->state(s);
        });
    }
    for (unsigned i = 0; i < numMaples(); ++i) {
        writeSection(ckpt::Section::Maple, [this, i](ckpt::Sink &s) {
            s.u32(i);
            maples_[i]->state(s);
        });
    }
    writeSection(ckpt::Section::Fault,
                 [this](ckpt::Sink &s) { fault_->state(s); });
    if (resil_) {
        writeSection(ckpt::Section::Resil,
                     [this](ckpt::Sink &s) { resil_->state(s); });
    }
    if (tracer_) {
        writeSection(ckpt::Section::Trace,
                     [this](ckpt::Sink &s) { tracer_->state(s); });
    }

    // Integrity footer: FNV-1a over every byte written so far, captured
    // before this section's own tag so the reader can compare it against
    // its running hash at the same point.
    const std::uint64_t content_hash = out.hash();
    out.u32(static_cast<std::uint32_t>(ckpt::Section::Checksum));
    out.u64(sizeof content_hash);
    out.u64(content_hash);

    MAPLE_CHECK(out.good(), ckpt::SnapshotError,
                "snapshot stream write failed");
}

void
Soc::restore(std::istream &is)
{
    MAPLE_CHECK(eq_.pending() == 0, ckpt::SnapshotError,
                "restore requires a freshly-constructed (idle) SoC");

    ckpt::Source in(is);
    std::uint64_t magic = in.u64();
    MAPLE_CHECK(magic == ckpt::kMagic, ckpt::SnapshotError,
                "not a MAPLE snapshot (bad magic 0x%llx)",
                (unsigned long long)magic);
    std::uint32_t version = in.u32();
    MAPLE_CHECK(version == ckpt::kFormatVersion, ckpt::SnapshotError,
                "snapshot format version %u, this build reads %u", version,
                ckpt::kFormatVersion);
    std::uint64_t hash = in.u64();
    std::uint64_t want = ckpt::configHash(cfg_);
    MAPLE_CHECK(hash == want, ckpt::SnapshotError,
                "snapshot config hash 0x%llx does not match this SoC's "
                "structural config 0x%llx",
                (unsigned long long)hash, (unsigned long long)want);
    std::uint64_t cycle = in.u64();
    (void)cycle;  // informational; the Engine section carries the clock

    bool checksum_seen = false;
    while (!checksum_seen && !in.atEof()) {
        const std::uint64_t pre_section_hash = in.hash();
        std::uint32_t tag = in.u32();
        std::uint64_t len = in.u64();
        const std::uint64_t start = in.pos();
        in.beginSection(len);
        switch (static_cast<ckpt::Section>(tag)) {
        case ckpt::Section::Engine: {
            sim::EventQueue::EngineState st;
            st.state(in);
            eq_.setEngineState(st);
            break;
        }
        case ckpt::Section::Kernel:
            kernel_->state(in);
            break;
        case ckpt::Section::PhysMem:
            pm_->state(in);
            // Process address spaces exist again and physical memory holds
            // the snapshot's page tables: re-create the core-MMU wiring that
            // Soc::createProcess() installs. Per-core MMU root and TLB
            // contents are overwritten by the Core sections that follow.
            for (os::Process *proc : kernel_->processes())
                for (auto &core : cores_)
                    proc->attachMmu(&core->mmu());
            break;
        case ckpt::Section::Mesh:
            mesh_->state(in);
            break;
        case ckpt::Section::Dram:
            dram_->state(in);
            break;
        case ckpt::Section::LlcFront:
            llc_front_->state(in);
            break;
        case ckpt::Section::Llc:
            llc_->state(in);
            break;
        case ckpt::Section::SliceLlc: {
            std::uint32_t s = in.u32();
            MAPLE_CHECK(coh_ && s >= 1 && s < cfg_.llc_slices,
                        ckpt::SnapshotError,
                        "snapshot LLC slice index %u out of range", s);
            slice_llcs_[s - 1]->state(in);
            break;
        }
        case ckpt::Section::Directory:
            // Config-hash gating means an msi stream only restores into an
            // msi Soc, so coh_ exists. Start the reference checker from a
            // clean slate here; the Core sections that follow re-seed it
            // via Cache::state with exactly the lines each L1 holds.
            MAPLE_CHECK(coh_ != nullptr, ckpt::SnapshotError,
                        "snapshot has coherence state but this SoC runs "
                        "--coherence=none");
            if (mem::CoherenceChecker *ck = coh_->checker())
                ck->reset();
            coh_->state(in);
            break;
        case ckpt::Section::Core: {
            std::uint32_t i = in.u32();
            MAPLE_CHECK(i < numCores(), ckpt::SnapshotError,
                        "snapshot core index %u out of range", i);
            l1s_[i]->state(in);
            cores_[i]->state(in);
            break;
        }
        case ckpt::Section::Maple: {
            std::uint32_t i = in.u32();
            MAPLE_CHECK(i < numMaples(), ckpt::SnapshotError,
                        "snapshot MAPLE index %u out of range", i);
            maples_[i]->state(in);
            break;
        }
        case ckpt::Section::Fault:
            fault_->state(in);
            break;
        case ckpt::Section::Resil:
            // Like Trace, a runtime variant axis: a stream captured with
            // the resilience model on may restore into a SoC running
            // without it (the warm image is identical; only RAS telemetry
            // and poison bookkeeping are dropped).
            if (resil_)
                resil_->state(in);
            else
                in.skip(len);
            break;
        case ckpt::Section::Trace:
            if (tracer_)
                tracer_->state(in);
            else
                in.skip(len);
            break;
        case ckpt::Section::Checksum: {
            MAPLE_CHECK(len == 8, ckpt::SnapshotError,
                        "checksum section has length %llu, expected 8",
                        (unsigned long long)len);
            const std::uint64_t want = in.u64();
            MAPLE_CHECK(want == pre_section_hash,
                        ckpt::SnapshotError::BadChecksum,
                        "snapshot checksum mismatch: stream content hashes "
                        "to 0x%llx but the footer says 0x%llx — the "
                        "snapshot is corrupt; discard this SoC",
                        (unsigned long long)pre_section_hash,
                        (unsigned long long)want);
            // The footer is always last; stop here so concatenated
            // per-chip streams stay individually restorable.
            checksum_seen = true;
            break;
        }
        default:
            in.skip(len);  // unknown section from a richer writer
            break;
        }
        MAPLE_CHECK(in.pos() - start == len, ckpt::SnapshotError,
                    "section tag %u consumed %llu bytes, expected %llu", tag,
                    (unsigned long long)(in.pos() - start),
                    (unsigned long long)len);
    }
    // A v2 stream always ends with the footer: running off the end of the
    // stream without seeing one means the tail was cut off at a section
    // boundary — indistinguishable from an older truncated-but-parseable
    // stream without this check.
    MAPLE_CHECK(checksum_seen, ckpt::SnapshotError::BadChecksum,
                "snapshot ends without a checksum footer (truncated?)");
}

}  // namespace maple::soc
