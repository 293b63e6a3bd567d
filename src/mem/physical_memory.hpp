/**
 * @file
 * Functional backing store for the simulated machine's physical memory.
 *
 * Storage is allocated lazily at 4KB page granularity so multi-GB address
 * spaces cost only what the workload touches. All timing models are tag-only;
 * data always lives here ("timing-first, access-at-completion").
 */
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ckpt/serial.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace maple::mem {

inline constexpr unsigned kPageShift = 12;
inline constexpr sim::Addr kPageSize = 1ull << kPageShift;
inline constexpr sim::Addr kPageMask = kPageSize - 1;

/** Cache line geometry used throughout the system. */
inline constexpr unsigned kLineShift = 6;
inline constexpr sim::Addr kLineSize = 1ull << kLineShift;

inline constexpr sim::Addr pageBase(sim::Addr a) { return a & ~kPageMask; }
inline constexpr sim::Addr pageOffset(sim::Addr a) { return a & kPageMask; }
inline constexpr sim::Addr lineBase(sim::Addr a) { return a & ~(kLineSize - 1); }

class PhysicalMemory {
  public:
    /** @param size total physical memory size in bytes (page aligned). */
    explicit PhysicalMemory(sim::Addr size) : size_(size)
    {
        MAPLE_ASSERT((size & kPageMask) == 0, "physmem size must be page aligned");
    }

    sim::Addr size() const { return size_; }

    /** Copy @p len bytes at physical address @p paddr into @p out. */
    void
    read(sim::Addr paddr, void *out, size_t len) const
    {
        checkRange(paddr, len);
        auto *dst = static_cast<std::uint8_t *>(out);
        while (len > 0) {
            size_t chunk = chunkLen(paddr, len);
            const Page *pg = findPage(resolve(paddr));
            if (pg) {
                std::memcpy(dst, pg->data + pageOffset(paddr), chunk);
            } else {
                std::memset(dst, 0, chunk);  // untouched memory reads as zero
            }
            paddr += chunk;
            dst += chunk;
            len -= chunk;
        }
    }

    /** Copy @p len bytes from @p in to physical address @p paddr. */
    void
    write(sim::Addr paddr, const void *in, size_t len)
    {
        checkRange(paddr, len);
        auto *src = static_cast<const std::uint8_t *>(in);
        while (len > 0) {
            size_t chunk = chunkLen(paddr, len);
            Page &pg = touchPage(resolve(paddr));
            std::memcpy(pg.data + pageOffset(paddr), src, chunk);
            paddr += chunk;
            src += chunk;
            len -= chunk;
        }
    }

    /**
     * Page-retirement forwarding: future accesses to @p old_page land in
     * @p fresh_page. Containment remaps the afflicted frame out of every
     * page table, but a request that translated *before* the TLB shootdown
     * still carries the old physical address (a drained store-buffer entry,
     * an in-flight fill). A retired frame is never reused, so forwarding
     * those stragglers to the replacement frame is equivalent to their
     * having completed before the copy -- no store is silently lost.
     * Call only after the old frame's contents were copied to @p fresh_page.
     */
    void
    retireFrameTo(sim::Addr old_page, sim::Addr fresh_page)
    {
        MAPLE_ASSERT(pageBase(old_page) == old_page &&
                         pageBase(fresh_page) == fresh_page,
                     "frame redirects are page granular");
        // Flatten chains at insert so resolve() stays a single hop even
        // when a replacement frame is itself retired later.
        for (auto &[from, to] : redirects_)
            if (to == old_page)
                to = fresh_page;
        redirects_[old_page] = fresh_page;
    }

    template <typename T>
    T
    readScalar(sim::Addr paddr) const
    {
        T v;
        read(paddr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeScalar(sim::Addr paddr, T v)
    {
        write(paddr, &v, sizeof(T));
    }

    std::uint64_t readU64(sim::Addr paddr) const { return readScalar<std::uint64_t>(paddr); }
    void writeU64(sim::Addr paddr, std::uint64_t v) { writeScalar(paddr, v); }
    std::uint32_t readU32(sim::Addr paddr) const { return readScalar<std::uint32_t>(paddr); }
    void writeU32(sim::Addr paddr, std::uint32_t v) { writeScalar(paddr, v); }

    /** Number of physical pages actually materialized. */
    size_t residentPages() const { return pages_.size(); }

    /**
     * Snapshot support: pages are written sorted by base address so the
     * byte stream is independent of unordered_map iteration order. A
     * restore drops every resident page first — the restored image replaces
     * anything a freshly-constructed Soc scribbled into memory.
     */
    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.u64(size_);
        if constexpr (Ar::kLoading) {
            pages_.clear();
            redirects_.clear();
        }
        ar.sortedMap(pages_, [&ar](std::unique_ptr<Page> &pg) {
            if constexpr (Ar::kLoading)
                pg = std::make_unique<Page>();
            ar.bytes(pg->data, kPageSize);
        });
        // Retired-frame redirects are machine state: a restored run must
        // keep forwarding stragglers exactly as the original did.
        ar.sortedMap(redirects_, [&ar](sim::Addr &fresh) { ar.u64(fresh); });
    }

  private:
    struct Page {
        std::uint8_t data[kPageSize];
    };

    static size_t
    chunkLen(sim::Addr paddr, size_t len)
    {
        size_t to_page_end = static_cast<size_t>(kPageSize - pageOffset(paddr));
        return len < to_page_end ? len : to_page_end;
    }

    void
    checkRange(sim::Addr paddr, size_t len) const
    {
        MAPLE_ASSERT(paddr + len <= size_,
                     "physical access out of range: 0x%llx+%zu",
                     (unsigned long long)paddr, len);
    }

    /** Forward a retired frame's address to its replacement frame. */
    sim::Addr
    resolve(sim::Addr paddr) const
    {
        if (redirects_.empty())
            return paddr;
        auto it = redirects_.find(pageBase(paddr));
        return it == redirects_.end() ? paddr
                                      : it->second + pageOffset(paddr);
    }

    const Page *
    findPage(sim::Addr paddr) const
    {
        auto it = pages_.find(pageBase(paddr));
        return it == pages_.end() ? nullptr : it->second.get();
    }

    Page &
    touchPage(sim::Addr paddr)
    {
        auto &slot = pages_[pageBase(paddr)];
        if (!slot) {
            slot = std::make_unique<Page>();
            std::memset(slot->data, 0, kPageSize);
        }
        return *slot;
    }

    sim::Addr size_;
    std::unordered_map<sim::Addr, std::unique_ptr<Page>> pages_;
    /** Retired frame -> replacement frame (see retireFrameTo). */
    std::unordered_map<sim::Addr, sim::Addr> redirects_;
};

}  // namespace maple::mem
