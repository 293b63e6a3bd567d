#include "os/kernel.hpp"

#include <algorithm>
#include <memory>

namespace maple::os {

namespace {

/** User virtual layout: heap low, MMIO windows high. */
constexpr sim::Addr kHeapBase = 0x0000'0000'1000'0000ull;
constexpr sim::Addr kMmioBase = 0x0000'0000'7000'0000ull;

}  // namespace

Process::Process(Kernel &kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)),
      pt_(kernel.physMem(), [&kernel] { return kernel.frames().alloc(); }),
      heap_next_(kHeapBase), mmio_next_(kMmioBase)
{
}

sim::Addr
Process::allocRegion(size_t bytes, const char *tag, bool lazy)
{
    MAPLE_ASSERT(bytes > 0, "empty allocation");
    sim::Addr base = heap_next_;
    sim::Addr size = (bytes + mem::kPageMask) & ~mem::kPageMask;
    heap_next_ += size + mem::kPageSize;  // guard page between regions
    regions_.push_back(Region{base, size, tag, lazy});
    if (!lazy) {
        for (sim::Addr va = base; va < base + size; va += mem::kPageSize)
            pt_.map(va, kernel_.frames().alloc(), /*writable=*/true);
    }
    return base;
}

sim::Addr
Process::alloc(size_t bytes, const char *tag)
{
    return allocRegion(bytes, tag, /*lazy=*/false);
}

sim::Addr
Process::allocLazy(size_t bytes, const char *tag)
{
    return allocRegion(bytes, tag, /*lazy=*/true);
}

sim::Addr
Process::mapMmio(sim::Addr mmio_paddr, sim::Addr bytes)
{
    MAPLE_ASSERT((mmio_paddr & mem::kPageMask) == 0, "MMIO pages are aligned");
    // Idempotent: re-mapping a device page already in this space (the
    // post-restore re-attachment path) returns the existing window instead
    // of burning a fresh one.
    for (const MmioMap &m : mmio_maps_) {
        if (m.paddr == mmio_paddr && m.bytes == bytes)
            return m.vaddr;
    }
    sim::Addr base = mmio_next_;
    for (sim::Addr off = 0; off < bytes; off += mem::kPageSize)
        pt_.map(base + off, mmio_paddr + off, /*writable=*/true);
    mmio_next_ += bytes + mem::kPageSize;
    mmio_maps_.push_back(MmioMap{mmio_paddr, base, bytes});
    return base;
}

bool
Process::owns(sim::Addr vaddr) const
{
    return std::any_of(regions_.begin(), regions_.end(), [vaddr](const Region &r) {
        return vaddr >= r.base && vaddr < r.base + r.size;
    });
}

sim::Addr
Process::regionBase(const std::string &tag) const
{
    for (const Region &r : regions_) {
        if (r.tag == tag)
            return r.base;
    }
    MAPLE_FATAL("process %s has no region tagged \"%s\"", name_.c_str(),
                tag.c_str());
}

bool
Process::demandMap(sim::Addr vaddr)
{
    if (!owns(vaddr))
        return false;
    sim::Addr page = mem::pageBase(vaddr);
    if (!pt_.walk(page))
        pt_.map(page, kernel_.frames().alloc(), /*writable=*/true);
    return true;
}

void
Process::unmapPage(sim::Addr vaddr)
{
    sim::Addr page = mem::pageBase(vaddr);
    pt_.unmap(page);
    // Linux mmu_notifier-style shootdown to every attached MMU.
    for (mem::Mmu *mmu : mmus_)
        mmu->invalidate(page);
}

bool
Process::retireFrame(sim::Addr paddr_page)
{
    MAPLE_ASSERT((paddr_page & mem::kPageMask) == 0, "frames are page aligned");
    // Device windows are identity views of MMIO pages, never DRAM frames,
    // so only heap regions can reference the afflicted frame. One fresh
    // frame replaces the afflicted one everywhere it is mapped; the
    // physical-memory redirect catches requests that translated before
    // the shootdown (drained store-buffer entries, in-flight fills) so no
    // straggler write is silently lost on the retired frame.
    std::optional<sim::Addr> fresh;
    for (const Region &r : regions_) {
        for (sim::Addr va = r.base; va < r.base + r.size; va += mem::kPageSize) {
            std::optional<mem::Pte> pte = pt_.walk(va);
            if (!pte || pte->paddrBase() != paddr_page)
                continue;
            if (!fresh) {
                fresh = kernel_.frames().alloc();
                std::uint8_t buf[mem::kPageSize];
                kernel_.physMem().read(paddr_page, buf, mem::kPageSize);
                kernel_.physMem().write(*fresh, buf, mem::kPageSize);
                // Only after the copy: a redirect installed earlier would
                // make the copy read the (empty) replacement frame.
                kernel_.physMem().retireFrameTo(paddr_page, *fresh);
            }
            pt_.map(va, *fresh, pte->writable());
            for (mem::Mmu *mmu : mmus_)
                mmu->invalidate(va);
        }
    }
    return fresh.has_value();
}

void
Process::attachMmu(mem::Mmu *mmu)
{
    MAPLE_ASSERT(mmu != nullptr);
    // Idempotent for the post-restore re-attachment path; setRoot() is also
    // a no-op when the MMU already points at this space, so a restored TLB
    // keeps its warmed contents.
    if (std::find(mmus_.begin(), mmus_.end(), mmu) == mmus_.end())
        mmus_.push_back(mmu);
    mmu->setRoot(pt_.rootPaddr());
}

template <class Ar>
void
Process::state(Ar &ar)
{
    ar.str(name_);
    sim::Addr root = pt_.rootPaddr();
    std::uint64_t table_pages = pt_.tablePages();
    ar.u64(root);
    ar.u64(table_pages);
    if constexpr (Ar::kLoading)
        pt_.adoptState(root, table_pages);
    ar.seq(regions_, [&ar](Region &r) {
        ar.u64(r.base);
        ar.u64(r.size);
        ar.str(r.tag);
        ar.b(r.lazy);
    });
    ar.seq(mmio_maps_, [&ar](MmioMap &m) {
        ar.u64(m.paddr);
        ar.u64(m.vaddr);
        ar.u64(m.bytes);
    });
    ar.u64(heap_next_);
    ar.u64(mmio_next_);
}

template void Process::state(ckpt::Sink &);
template void Process::state(ckpt::Source &);

void
Process::writeBytes(sim::Addr vaddr, const void *data, size_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        if (!pt_.walk(mem::pageBase(vaddr))) {
            bool ok = demandMap(vaddr);
            MAPLE_ASSERT(ok, "functional write to unreserved va 0x%llx",
                         (unsigned long long)vaddr);
        }
        auto pa = pt_.translate(vaddr, mem::Perms{true});
        MAPLE_ASSERT(pa.has_value());
        size_t chunk = std::min<size_t>(len, mem::kPageSize - mem::pageOffset(vaddr));
        kernel_.physMem().write(*pa, src, chunk);
        vaddr += chunk;
        src += chunk;
        len -= chunk;
    }
}

void
Process::readBytes(sim::Addr vaddr, void *out, size_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        auto pa = pt_.translate(vaddr, mem::Perms{false});
        MAPLE_ASSERT(pa.has_value(), "functional read of unmapped va 0x%llx",
                     (unsigned long long)vaddr);
        size_t chunk = std::min<size_t>(len, mem::kPageSize - mem::pageOffset(vaddr));
        kernel_.physMem().read(*pa, dst, chunk);
        vaddr += chunk;
        dst += chunk;
        len -= chunk;
    }
}

}  // namespace maple::os
