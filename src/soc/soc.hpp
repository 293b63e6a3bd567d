/**
 * @file
 * Full-SoC assembly: tiles on a 2D mesh, per-core L1s, a shared LLC + DRAM
 * memory tile, any number of MAPLE tiles, the micro-OS, and the physical
 * address map. This is the simulation analogue of the OpenPiton+Ariane FPGA
 * prototype (Table 2) and of the MosaicSim configuration (Table 3).
 *
 * Tile placement: cores occupy tiles [0, num_cores), MAPLE instances the next
 * num_maples tiles, and the memory controller/LLC home the last tile. With
 * coherence enabled the LLC may be split into llc_slices address-interleaved
 * slices occupying the last llc_slices tiles, each with a sparse MSI
 * directory co-located on its tile (memTile() is then slice 0's tile).
 */
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/maple.hpp"
#include "cpu/core.hpp"
#include "fault/fault.hpp"
#include "fault/watchdog.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/dram.hpp"
#include "mem/fabric.hpp"
#include "mem/physical_memory.hpp"
#include "mem/resil.hpp"
#include "noc/mesh.hpp"
#include "os/kernel.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "soc/address_map.hpp"
#include "trace/trace.hpp"

namespace maple::os {
class PageRetirer;
}

namespace maple::soc {

class McaMmio;

/** Role of a Soc-owned NoC port: what traffic class it was wired for. */
enum class PortUse : std::uint8_t {
    CoreDemand,  ///< L1 miss path to the shared LLC
    CoreAtomic,  ///< core RMW / shared-data path to the LLC
    MapleDram,   ///< MAPLE's non-coherent direct-to-DRAM path
    MapleLlc,    ///< MAPLE's coherent path through the LLC
    MapleWalk,   ///< MAPLE's page-table-walker path
    Extra,       ///< baseline hardware added via addLlcPort()
};

struct SocConfig {
    std::string name = "soc";
    unsigned num_cores = 2;
    unsigned num_maples = 1;
    unsigned mesh_width = 2;   ///< 0 = auto square-ish layout
    unsigned mesh_height = 2;
    sim::Addr dram_bytes = 1ull << 30;

    mem::CacheParams l1{"l1", 8 * 1024, 4, /*hit=*/2, /*mshrs=*/8};
    mem::CacheParams llc{"llc", 64 * 1024, 8, /*hit=*/26, /*mshrs=*/32};
    mem::DramParams dram{};          // 300-cycle latency
    /** Arbitration at the shared-LLC front-end (MAPLE_LLC_ARB env; the DRAM
     *  queue policy is dram.arb, MAPLE_DRAM_ARB env). */
    mem::ArbPolicy llc_arb = mem::ArbPolicy::Fifo;
    /**
     * Coherence protocol selection (MAPLE_COHERENCE env, --coherence flag).
     * The default (none) keeps the historical latency-only hierarchy and is
     * byte-identical to builds that predate the protocol.
     */
    mem::CoherenceConfig coherence{};
    /**
     * Address-interleaved LLC/directory slices (MAPLE_LLC_SLICES env). Only
     * meaningful with coherence enabled; forced to 1 otherwise. Slices (and
     * their home directories) occupy the last llc_slices mesh tiles.
     */
    unsigned llc_slices = 1;
    noc::MeshParams mesh{};          // filled from mesh_width/height
    cpu::CoreParams core_proto{};    // per-core parameters
    ::maple::core::MapleParams maple_proto{};
    os::KernelParams kernel{};
    trace::TraceConfig trace{};      // off unless set or MAPLE_TRACE is present
    fault::FaultConfig fault{};      // off unless set or MAPLE_FAULT_* present
    fault::WatchdogConfig watchdog{}; // on by default; MAPLE_WATCHDOG=0 disables
    /**
     * Soft-error resilience (mem/resil.hpp): SECDED ECC, poison tracking,
     * MCA banks and the directory scrub engine (MAPLE_ECC / MAPLE_SCRUB_*
     * env, --ecc / --scrub-interval harness flags). Off by default: no
     * ResilManager is constructed and every downstream byte is identical to
     * builds that predate the subsystem.
     */
    mem::ResilConfig resil{};

    /** Table 2: the FPGA-emulated OpenPiton+Ariane SoC (2 cores, 1 MAPLE). */
    static SocConfig fpga();

    /** Table 3: the simulator configuration used against prior work. */
    static SocConfig simulated(unsigned cores = 2);
};

class Soc {
  public:
    /** Build the SoC @p cfg describes, after soc::resolveConfig (the MAPLE_*
     *  environment knobs and mesh sizing, soc/knobs.hpp); config() returns
     *  the resolved copy. */
    explicit Soc(SocConfig cfg = SocConfig::fpga());
    ~Soc();

    sim::EventQueue &eq() { return eq_; }
    os::Kernel &kernel() { return *kernel_; }
    mem::PhysicalMemory &physMem() { return *pm_; }
    noc::Mesh &mesh() { return *mesh_; }
    mem::Cache &llc() { return *llc_; }
    mem::Dram &dram() { return *dram_; }
    AddressMap &addressMap() { return amap_; }
    const SocConfig &config() const { return cfg_; }

    /**
     * The reusable interposer stage in front of the shared LLC. All tiles
     * reach the LLC through it, so it is where per-requester-class latency
     * and bandwidth are sampled, where memory-side baseline hardware (e.g.
     * the DROPLET prefetch buffer) interposes, and where non-fifo LLC
     * arbitration lives.
     */
    mem::PortInterposer &llcFront() { return *llc_front_; }

    /** The SoC's tracer, or nullptr when tracing is disabled. */
    trace::TraceManager *tracer() { return tracer_.get(); }

    /**
     * The SoC's fault injector. Always present: even with injection off it
     * tracks parked waiters for the liveness watchdog and deadlock report.
     */
    fault::FaultInjector &faultInjector() { return *fault_; }

    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    cpu::Core &core(unsigned i) { return *cores_.at(i); }
    mem::Cache &l1(unsigned i) { return *l1s_.at(i); }

    unsigned numMaples() const { return static_cast<unsigned>(maples_.size()); }
    ::maple::core::Maple &maple(unsigned i = 0) { return *maples_.at(i); }

    sim::TileId coreTile(unsigned i) const { return i; }
    sim::TileId mapleTile(unsigned i = 0) const { return cfg_.num_cores + i; }

    /** Tile of LLC/directory slice @p s (the last llc_slices mesh tiles). */
    sim::TileId sliceTile(unsigned s) const
    {
        return mesh_->numTiles() - cfg_.llc_slices + s;
    }
    /** Slice 0's tile; identical to the historical last-tile home when
     *  llc_slices == 1 (always true without coherence). */
    sim::TileId memTile() const { return sliceTile(0); }

    /** The coherence fabric, or nullptr when running --coherence=none. */
    mem::CoherenceFabric *coherence() { return coh_.get(); }

    /** The resilience manager, or nullptr when the subsystem is off. */
    mem::ResilManager *resil() { return resil_.get(); }

    /**
     * Base of the per-tile MCA-bank MMIO window (one page right above the
     * MAPLE device pages; registered only when resil() is live). Each tile
     * owns 32 bytes: status, line address, count, first-error cycle; any
     * store into a tile's window clears its bank.
     */
    sim::Addr mcaMmioBase() const
    {
        return cfg_.dram_bytes + sim::Addr(cfg_.num_maples) * mem::kPageSize;
    }

    unsigned numLlcSlices() const { return cfg_.llc_slices; }
    /** LLC slice @p s; slice 0 is the historical shared LLC. */
    mem::Cache &llcSlice(unsigned s)
    {
        return s == 0 ? *llc_ : *slice_llcs_.at(s - 1);
    }

    os::Process &createProcess(const std::string &name);

    /**
     * Registered NoC port for (tile, use), or nullptr. Public as a wiring
     * probe: tests assert e.g. that msi mode registers no direct MapleWalk
     * port (walks ride the coherent DMA path instead).
     */
    noc::RemotePort *findPort(sim::TileId tile, PortUse use);

    /**
     * Create an extra LLC-reaching port from @p tile (owned by the Soc).
     * Used by memory-side baseline hardware, e.g. DeSC's supply buffer.
     */
    noc::RemotePort &addLlcPort(sim::TileId tile);

    /**
     * Run the event queue until it drains (or @p max_cycles), then surface
     * any exception stored in the given joins. Returns total cycles elapsed.
     */
    sim::Cycle run(std::vector<sim::Join> joins, sim::Cycle max_cycles = sim::kCycleMax);

    /// @name Deterministic snapshot/restore (implemented in src/ckpt)
    /// @{

    /**
     * Serialize full simulator state to @p out. Only valid at a quiesced
     * point (event queue drained, no parked waiters — i.e. between run()
     * phases): coroutine frames are not serializable, so a snapshot captures
     * the machine between simulated activity, with warm caches/TLBs, queue
     * contents, advanced RNG streams, stats and trace buffers intact.
     * Throws ckpt::SnapshotError when the SoC is not quiescent.
     */
    void snapshot(std::ostream &out);

    /**
     * Restore a snapshot into this freshly-constructed Soc. The stream's
     * config hash must match this SoC's structural configuration (core/
     * MAPLE counts, cache geometry, DRAM/mesh/arbitration parameters) or
     * ckpt::SnapshotError is thrown. After restore, resumed runs are
     * byte-identical to an uninterrupted simulation. Host-side wiring that
     * MMIO attach paths install (driver fault handlers, error callbacks)
     * must be re-installed by re-running the attach calls; those paths are
     * idempotent against restored state.
     */
    void restore(std::istream &in);

    /// @}

  private:
    /** Register the telemetry probes once all components exist. */
    void registerProbes();

    /** Register component-state dumps for the deadlock diagnostic. */
    void registerDiagnostics();

    SocConfig cfg_;
    sim::EventQueue eq_;
    // Declared right after eq_ (destroyed before it) so the tracer detaches
    // from a still-live EventQueue; probe lambdas only run while components
    // (declared below, destroyed first) are alive, i.e. while eq_ runs.
    std::unique_ptr<trace::TraceManager> tracer_;
    // Same lifetime argument as the tracer: the injector detaches from eq_
    // in its destructor, and its diagnostic lambdas only run while eq_ runs.
    std::unique_ptr<fault::FaultInjector> fault_;
    // Same ordering argument again: every protected structure below holds a
    // raw ResilManager pointer, so the manager must outlive all of them.
    std::unique_ptr<mem::ResilManager> resil_;
    std::unique_ptr<mem::PhysicalMemory> pm_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<mem::Dram> dram_;
    std::unique_ptr<mem::Cache> llc_;
    std::unique_ptr<mem::PortInterposer> llc_front_;
    // Coherence plumbing (msi mode only; all null under --coherence=none).
    // Declared before the L1s/cores/MAPLEs that hold pointers into them so
    // those users are destroyed first.
    std::unique_ptr<mem::CoherenceFabric> coh_;
    std::vector<std::unique_ptr<mem::Cache>> slice_llcs_;  ///< slices 1..S-1
    std::unique_ptr<mem::CoherentDmaPort> coh_dma_;
    AddressMap amap_;

    /**
     * Owned registry of every Soc-created NoC port, keyed by (tile, use).
     * One container instead of a vector per role: the port objects are
     * heap-allocated, so registry growth never moves them and wiring can
     * hand out references while later ports are still being added.
     */
    struct PortEntry {
        sim::TileId tile;
        PortUse use;
        std::unique_ptr<noc::RemotePort> port;
    };
    std::vector<PortEntry> ports_;

    /** Create, register and return a port for (tile, use) -> @p target. */
    noc::RemotePort &makePort(sim::TileId tile, PortUse use, mem::Port &target);

    // Components (order matters: the registry above outlives them all, and
    // ports are wired before the cores/MAPLEs that use them).
    std::vector<std::unique_ptr<mem::Cache>> l1s_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<::maple::core::Maple>> maples_;

    // Containment plumbing (references the kernel and resil_ above, so it
    // is declared last and destroyed first).
    std::unique_ptr<os::PageRetirer> retirer_;
    std::unique_ptr<McaMmio> mca_mmio_;
};

}  // namespace maple::soc
