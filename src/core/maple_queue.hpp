/**
 * @file
 * A MAPLE hardware queue: a circular FIFO carved out of the device's
 * scratchpad, with slot reservation and per-slot valid bits.
 *
 * Pointer-produces reserve a slot at the tail immediately (in program order)
 * and the DRAM response fills it later, using the slot index as the memory
 * transaction ID -- this is how out-of-order memory responses are re-ordered
 * back into program order. Consumers pop only when the head slot is valid.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/coro.hpp"
#include "sim/error.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"

namespace maple::core {

class MapleQueue {
  public:
    /** (Re)configure the queue geometry; resets all state. */
    void
    configure(unsigned capacity, unsigned entry_bytes)
    {
        MAPLE_CHECK(capacity > 0, sim::QueueMisuseError,
                    "queue capacity must be nonzero");
        MAPLE_CHECK(entry_bytes == 4 || entry_bytes == 8, sim::QueueMisuseError,
                    "entry size must be 4 or 8 bytes (got %u)", entry_bytes);
        capacity_ = capacity;
        entry_bytes_ = entry_bytes;
        data_.assign(capacity, 0);
        valid_.assign(capacity, false);
        poisoned_.assign(capacity, false);
        head_ = tail_ = reserved_ = 0;
        peak_occupancy_ = 0;
        open_ = false;
        configured_ = true;
        wakeSpace();
        wakeData();
    }

    void
    reset()
    {
        configured_ = false;
        open_ = false;
        capacity_ = 0;
        data_.clear();
        valid_.clear();
        poisoned_.clear();
        head_ = tail_ = reserved_ = 0;
        peak_occupancy_ = 0;
        wakeSpace();
        wakeData();
    }

    bool configured() const { return configured_; }
    bool open() const { return open_; }
    unsigned capacity() const { return capacity_; }
    unsigned entryBytes() const { return entry_bytes_; }
    unsigned occupancy() const { return reserved_; }

    /** High-water mark of occupancy since configure() (telemetry). */
    unsigned peakOccupancy() const { return peak_occupancy_; }
    bool full() const { return reserved_ == capacity_; }
    bool empty() const { return reserved_ == 0; }

    /** Try to bind the queue to a software context. */
    bool
    tryOpen()
    {
        if (!configured_ || open_)
            return false;
        open_ = true;
        return true;
    }

    /** Release the queue; in-flight entries are discarded. */
    void
    close()
    {
        open_ = false;
        head_ = tail_ = reserved_ = 0;
        valid_.assign(valid_.size(), false);
        poisoned_.assign(poisoned_.size(), false);
        wakeSpace();
        wakeData();
    }

    /**
     * Drop the queue contents (DeviceReset): every entry — valid, reserved
     * or in-flight — is discarded, geometry and the open binding survive.
     * In-flight fills for dropped slots are fenced off by the device's
     * per-queue generation counter, not by this class.
     */
    void
    flushContents()
    {
        head_ = tail_ = reserved_ = 0;
        valid_.assign(valid_.size(), false);
        poisoned_.assign(poisoned_.size(), false);
        wakeSpace();
        wakeData();
    }

    /**
     * Reserve the tail slot (caller must have checked !full()).
     * @return the slot index, used as the memory transaction ID.
     */
    unsigned
    reserveSlot()
    {
        MAPLE_CHECK(configured_ && !full(), sim::QueueMisuseError,
                    "reserve on full/unconfigured queue");
        unsigned slot = tail_;
        tail_ = (tail_ + 1) % capacity_;
        ++reserved_;
        peak_occupancy_ = std::max(peak_occupancy_, reserved_);
        return slot;
    }

    /** Fill a reserved slot with data (memory response or data-produce). */
    void
    fillSlot(unsigned slot, std::uint64_t value)
    {
        MAPLE_CHECK(slot < capacity_ && !valid_[slot], sim::QueueMisuseError,
                    "fill of slot %u is out of range or already valid", slot);
        data_[slot] = value;
        valid_[slot] = true;
        wakeData();
    }

    /**
     * Fill a reserved slot whose data a hard fault corrupted en route. The
     * slot becomes valid (it keeps FIFO order) but carries a poison bit the
     * consume pipeline surfaces as MapleStatus::Poisoned instead of data.
     */
    void
    fillSlotPoisoned(unsigned slot, std::uint64_t value)
    {
        fillSlot(slot, value);
        poisoned_[slot] = true;
    }

    /** True when the head entry is valid but poisoned. */
    bool
    headPoisoned(unsigned n = 1) const
    {
        for (unsigned i = 0; i < n; ++i) {
            if (poisoned_[(head_ + i) % capacity_])
                return true;
        }
        return false;
    }

    /** True when the next @p n entries at the head are ready to pop. */
    bool
    headValid(unsigned n = 1) const
    {
        if (!configured_ || reserved_ < n)
            return false;
        for (unsigned i = 0; i < n; ++i) {
            if (!valid_[(head_ + i) % capacity_])
                return false;
        }
        return true;
    }

    /** Pop the head entry (caller must have checked headValid()). */
    std::uint64_t
    pop()
    {
        MAPLE_CHECK(headValid(), sim::QueueMisuseError,
                    "pop on empty/invalid head");
        std::uint64_t v = data_[head_];
        valid_[head_] = false;
        poisoned_[head_] = false;
        head_ = (head_ + 1) % capacity_;
        --reserved_;
        wakeSpace();
        return v;
    }

    /// @name Wait points used by the produce/consume pipelines
    /// Waiters loop: await the list, re-check their condition. A list
    /// resumes its waiters FIFO, preserving program order.
    /// @{
    sim::WaitList &spaceWaiters() { return space_waiters_; }
    sim::WaitList &dataWaiters() { return data_waiters_; }

    /**
     * Spuriously wake every parked waiter so it re-evaluates its predicate.
     * Used when queue state other than occupancy changes under a waiter
     * (e.g. StoreOp::QueueTimeout re-arms the wait bound); waiters that find
     * their condition unchanged simply re-park in the same FIFO order.
     */
    void
    pulseWaiters()
    {
        wakeSpace();
        wakeData();
    }
    /// @}

    /**
     * Snapshot support. The wait lists are not serialized: at a quiesced
     * point no producer/consumer coroutine is parked on them.
     */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.b(configured_);
        ar.b(open_);
        ar.u32(capacity_);
        ar.u32(entry_bytes_);
        ar.vecU64(data_);
        ar.bits(valid_);
        ar.bits(poisoned_);
        ar.u32(head_);
        ar.u32(tail_);
        ar.u32(reserved_);
        ar.u32(peak_occupancy_);
        if constexpr (Ar::kLoading)
            pulseWaiters();
    }

  private:
    void wakeSpace() { space_waiters_.wakeAll(); }
    void wakeData() { data_waiters_.wakeAll(); }

    bool configured_ = false;
    bool open_ = false;
    unsigned capacity_ = 0;
    unsigned entry_bytes_ = 4;
    std::vector<std::uint64_t> data_;
    std::vector<bool> valid_;
    std::vector<bool> poisoned_;
    unsigned head_ = 0;
    unsigned tail_ = 0;
    unsigned reserved_ = 0;
    unsigned peak_occupancy_ = 0;
    sim::WaitList space_waiters_;
    sim::WaitList data_waiters_;
};

}  // namespace maple::core
