/**
 * @file
 * Packet-level 2D-mesh network-on-chip (OpenPiton P-Mesh flavoured).
 *
 * Dimension-ordered (XY) routing, one cycle per hop by default, and per-link
 * serialization modeled with link reservation: a packet of F flits occupies
 * each directed link for F cycles, so contention shows up as queueing delay.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "mem/port.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"

namespace maple::noc {

struct MeshParams {
    unsigned width = 2;
    unsigned height = 1;
    sim::Cycle hop_latency = 1;     ///< router+link traversal per hop
    unsigned flit_bytes = 16;       ///< payload bytes per body flit
};

/** Number of flits for a packet carrying @p payload_bytes (1 header flit). */
inline unsigned
flitsFor(unsigned payload_bytes, unsigned flit_bytes = 16)
{
    return 1 + (payload_bytes + flit_bytes - 1) / flit_bytes;
}

class Mesh {
  public:
    // Link-reservation state is sized to its final extent here; transit()
    // never grows it, so the hot path cannot reallocate.
    Mesh(sim::EventQueue &eq, MeshParams params)
        : eq_(eq), params_(params),
          link_free_(static_cast<size_t>(params.width) * params.height * 4, 0),
          link_flits_(link_free_.size(), 0)
    {
        MAPLE_ASSERT(params.width > 0 && params.height > 0);
    }

    unsigned xOf(sim::TileId t) const { return t % params_.width; }
    unsigned yOf(sim::TileId t) const { return t / params_.width; }

    sim::TileId
    tileAt(unsigned x, unsigned y) const
    {
        MAPLE_ASSERT(x < params_.width && y < params_.height);
        return y * params_.width + x;
    }

    unsigned numTiles() const { return params_.width * params_.height; }

    unsigned
    hops(sim::TileId src, sim::TileId dst) const
    {
        unsigned dx = xOf(src) > xOf(dst) ? xOf(src) - xOf(dst) : xOf(dst) - xOf(src);
        unsigned dy = yOf(src) > yOf(dst) ? yOf(src) - yOf(dst) : yOf(dst) - yOf(src);
        return dx + dy;
    }

    /**
     * Move a packet of @p flits flits from @p src to @p dst on behalf of
     * requester class @p cls (attribution + class-keyed fault injection).
     * The XY route is reserved at the call; the returned Delay lasts until
     * the head flit is ejected at the destination, so co_await it in the
     * same expression (sim::Delay).
     */
    sim::Delay
    transit(sim::TileId src, sim::TileId dst, unsigned flits,
            mem::RequesterClass cls = mem::RequesterClass::Core)
    {
        MAPLE_ASSERT(src < numTiles() && dst < numTiles());
        packets_.inc();
        flits_.inc(flits);
        class_flits_[static_cast<std::size_t>(cls)] += flits;
        sim::Cycle start = eq_.now();
        sim::Cycle t = start;
        sim::Cycle queued = 0;

        // XY route: resolve X first, then Y; reserve each directed link.
        unsigned x = xOf(src), y = yOf(src);
        const unsigned tx = xOf(dst), ty = yOf(dst);
        while (x != tx || y != ty) {
            unsigned dir;
            unsigned nx = x, ny = y;
            if (x != tx) {
                dir = x < tx ? kEast : kWest;
                nx = x < tx ? x + 1 : x - 1;
            } else {
                dir = y < ty ? kSouth : kNorth;
                ny = y < ty ? y + 1 : y - 1;
            }
            size_t link = linkIndex(tileAt(x, y), dir);
            sim::Cycle &free = link_free_[link];
            sim::Cycle depart = std::max(t, free);
            queued += depart - t;
            // Injected transient link stall: the link is unavailable for a
            // few extra cycles (charged to FaultNoc, not NocBackpressure).
            if (fault::FaultInjector *f = fault::active(eq_)) {
                if (sim::Cycle d = f->inject(fault::FaultClass::NocLinkStall, cls)) {
                    depart += d;
                    f->chargeCycles(fault::FaultClass::NocLinkStall, d);
                }
            }
            free = depart + flits;  // serialization: one flit per cycle
            link_flits_[link] += flits;
            t = depart + params_.hop_latency;
            x = nx;
            y = ny;
        }
        latency_.sample(static_cast<double>(t - start));
        if (queued > 0) {
            if (trace::TraceManager *tr = trace::active(eq_))
                tr->attributeStall(trace::StallCause::NocBackpressure, queued);
        }
        return sim::delay(eq_, t - start);
    }

    const MeshParams &params() const { return params_; }
    std::uint64_t packets() const { return packets_.value(); }
    std::uint64_t flitsSent() const { return flits_.value(); }
    double meanLatency() const { return latency_.mean(); }

    /** Directed links in the mesh (4 per tile: E, W, N, S). */
    size_t numLinks() const { return link_flits_.size(); }

    /** Cumulative flits that traversed directed link @p link (telemetry). */
    std::uint64_t linkFlits(size_t link) const { return link_flits_[link]; }

    /** Cumulative flits injected on behalf of one requester class. */
    std::uint64_t
    classFlits(mem::RequesterClass cls) const
    {
        return class_flits_[static_cast<std::size_t>(cls)];
    }

    /** Snapshot support: link reservations and traffic counters. */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.expect64(link_free_.size(), "mesh link count");
        for (sim::Cycle &c : link_free_)
            ar.u64(c);
        ar.expect64(link_flits_.size(), "mesh link-counter count");
        for (std::uint64_t &f : link_flits_)
            ar.u64(f);
        for (std::uint64_t &f : class_flits_)
            ar.u64(f);
        packets_.state(ar);
        flits_.state(ar);
        latency_.state(ar);
    }

  private:
    static constexpr unsigned kEast = 0, kWest = 1, kNorth = 2, kSouth = 3;

    size_t
    linkIndex(sim::TileId tile, unsigned dir) const
    {
        return static_cast<size_t>(tile) * 4 + dir;
    }

    sim::EventQueue &eq_;
    MeshParams params_;
    std::vector<sim::Cycle> link_free_;
    std::vector<std::uint64_t> link_flits_;
    std::array<std::uint64_t, mem::kNumRequesterClasses> class_flits_{};
    sim::Counter packets_, flits_;
    sim::Average latency_;
};

/**
 * Port adaptor that reaches a remote memory-side component across the
 * mesh: request packet out, target access, response packet back. The
 * request's class rides along so the mesh attributes both packets (and any
 * injected link faults) to the true originator.
 */
class RemotePort : public mem::Port {
  public:
    RemotePort(Mesh &mesh, sim::TileId src, sim::TileId dst, mem::Port &target)
        : mesh_(mesh), src_(src), dst_(dst), target_(target)
    {
    }

    sim::Task<void>
    request(mem::MemRequest req) override
    {
        const bool write = req.kind == mem::AccessKind::Write;
        unsigned req_bytes = write ? req.size : 0;   // writes carry data out
        unsigned resp_bytes = write ? 0 : req.size;  // reads carry data back
        co_await mesh_.transit(src_, dst_,
                               flitsFor(req_bytes, mesh_.params().flit_bytes),
                               req.cls);
        co_await target_.request(req);
        co_await mesh_.transit(dst_, src_,
                               flitsFor(resp_bytes, mesh_.params().flit_bytes),
                               req.cls);
    }

    sim::TileId destination() const { return dst_; }

  private:
    Mesh &mesh_;
    sim::TileId src_;
    sim::TileId dst_;
    mem::Port &target_;
};

}  // namespace maple::noc
