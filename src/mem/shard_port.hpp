/**
 * @file
 * Cross-domain port proxy: the mem::Port cut point between two simulation
 * domains of a sim::ShardedEngine (soc/grid.hpp wires one per directed
 * chip-to-chip link).
 *
 * A request issued in the source domain never touches the target domain's
 * state directly. Instead the proxy posts a mailbox message that, one link
 * latency later, spawns the real access against the target port *inside the
 * destination domain*; the completion travels back the same way and sets a
 * Signal in the issuing coroutine's frame, where it is parked. Both hops
 * carry the declared link latency, which is exactly the lookahead bound that
 * lets the engine run both domains concurrently: nothing either side does
 * within a quantum can reach the other until the next quantum boundary.
 *
 * Timing model: a fixed-latency inter-chip hop per direction (think serdes
 * link, not the on-chip mesh — contention is modeled by whatever target
 * port the request lands on, e.g. the remote SoC's LLC front-end).
 */
#pragma once

#include "mem/port.hpp"
#include "sim/coro.hpp"
#include "sim/sharded.hpp"

namespace maple::mem {

class CrossDomainPort : public Port {
  public:
    /**
     * Wire a proxy in domain @p src whose requests execute against
     * @p target, which lives in domain @p dst. Declares @p link_latency on
     * the engine (both hops carry it), binding the engine's lookahead.
     */
    CrossDomainPort(sim::ShardedEngine &engine,
                    sim::ShardedEngine::DomainId src, sim::EventQueue &src_eq,
                    sim::ShardedEngine::DomainId dst, sim::EventQueue &dst_eq,
                    Port &target, sim::Cycle link_latency)
        : engine_(engine), src_(src), dst_(dst), src_eq_(src_eq),
          dst_eq_(dst_eq), target_(target), latency_(link_latency)
    {
        engine_.declareChannelLatency(link_latency);
    }

    sim::Task<void>
    request(MemRequest req) override
    {
        // Lives in this frame, which cannot finish before the response hop
        // sets it; only the source domain ever touches it.
        sim::Signal done;
        // Deliver into the destination domain one link hop from now; the
        // callback runs on whichever host thread owns dst in that window
        // and only touches dst state (it carries the pointer, unread).
        engine_.post(src_, dst_, src_eq_.now() + latency_,
                     [this, req, d = &done] {
                         sim::spawnDetached(dst_eq_, serve(req, d));
                     });
        co_await done;
    }

    sim::Cycle linkLatency() const { return latency_; }

  private:
    sim::Task<void>
    serve(MemRequest req, sim::Signal *done)
    {
        co_await target_.request(req);
        // The response hop: set the issuer's signal back in the source
        // domain. Signal::set resumes waiters inline, so the wakeup executes
        // as a src-domain event at the delivery cycle.
        engine_.post(dst_, src_, dst_eq_.now() + latency_,
                     [done] { done->set(); });
    }

    sim::ShardedEngine &engine_;
    sim::ShardedEngine::DomainId src_;
    sim::ShardedEngine::DomainId dst_;
    sim::EventQueue &src_eq_;
    sim::EventQueue &dst_eq_;
    Port &target_;
    sim::Cycle latency_;
};

}  // namespace maple::mem
