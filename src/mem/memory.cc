#include "memory.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace shift
{

void
Memory::map(uint64_t base, uint64_t len)
{
    if (len == 0)
        return;
    uint64_t first = base >> kPageShift;
    uint64_t last = (base + len - 1) >> kPageShift;
    for (uint64_t p = first; p <= last; ++p) {
        if (base_ && base_->count(p))
            continue;
        auto &slot = pages_[p];
        if (!slot)
            slot = std::make_shared<Page>();
    }
    tlbFlush();
}

void
Memory::tlbFlush() const
{
    tlb_.fill(TlbEntry{});
    tagTlb_.fill(TlbEntry{});
}

Memory::Snapshot
Memory::snapshot() const
{
    // Sharing makes previously-exclusive pages shared, so any cached
    // writable=true entry would go stale-permissive: flush.
    tlbFlush();
    Snapshot snap;
    if (pages_.empty() && base_) {
        snap.pages_ = base_;
    } else {
        // Private pages win over the base pages they hide.
        auto all = std::make_shared<PageMap>(pages_);
        if (base_)
            all->insert(base_->begin(), base_->end());
        snap.pages_ = std::move(all);
    }
    snap.summary_ = summary_;
    return snap;
}

void
Memory::restore(const Snapshot &snap)
{
    pages_.clear();
    base_ = snap.pages_;
    summary_ = snap.summary_;
    tlbFlush();
}

const std::shared_ptr<Memory::Page> *
Memory::findSlot(uint64_t key, bool &inBase) const
{
    auto it = pages_.find(key);
    if (it != pages_.end()) {
        inBase = false;
        return &it->second;
    }
    if (base_) {
        auto shared = base_->find(key);
        if (shared != base_->end()) {
            inBase = true;
            return &shared->second;
        }
    }
    return nullptr;
}

bool
Memory::isMapped(uint64_t addr) const
{
    bool inBase = false;
    return findSlot(addr >> kPageShift, inBase) != nullptr ||
           demandMapped(addr);
}

size_t
Memory::pageCount() const
{
    size_t n = pages_.size();
    if (base_) {
        n += base_->size();
        for (const auto &entry : pages_)
            n -= base_->count(entry.first);
    }
    return n;
}

Memory::Page *
Memory::pageFor(uint64_t addr, bool allocate, bool forWrite)
{
    uint64_t key = addr >> kPageShift;
    if (Page *cached = forWrite ? tlbLookupWritable(key) : tlbLookup(key))
        return cached;
    bool inBase = false;
    if (const std::shared_ptr<Page> *slot = findSlot(key, inBase)) {
        if (forWrite && (inBase || slot->use_count() > 1)) {
            // Write fault on a shared page (the restored base's, or
            // one shared with a snapshot taken since): give this
            // Memory a private copy. The snapshot keeps the original
            // alive, so sibling clones (and cached read-only pointers)
            // are untouched. Element references survive the insert.
            std::shared_ptr<Page> &own = pages_[key];
            own = std::make_shared<Page>(**slot);
            slot = &own;
            inBase = false;
            ++cowCopies_;
            if (cowHook_)
                cowHook_(addr);
        }
        tlbInsert(key, slot->get(), !inBase && slot->use_count() == 1);
        return slot->get();
    }
    if (allocate || demandMapped(addr)) {
        auto page = std::make_shared<Page>();
        Page *raw = page.get();
        pages_[key] = std::move(page);
        tlbInsert(key, raw, true);
        return raw;
    }
    return nullptr;
}

const Memory::Page *
Memory::pageForConst(uint64_t addr) const
{
    uint64_t key = addr >> kPageShift;
    if (Page *cached = tlbLookup(key))
        return cached;
    bool inBase = false;
    const std::shared_ptr<Page> *slot = findSlot(key, inBase);
    if (!slot)
        return nullptr;
    tlbInsert(key, slot->get(), !inBase && slot->use_count() == 1);
    return slot->get();
}

MemFault
Memory::probe(uint64_t addr, unsigned size) const
{
    if (!isImplemented(addr) || (size && !isImplemented(addr + size - 1)))
        return MemFault::Unimplemented;
    for (uint64_t a = addr & ~(kPageSize - 1); a < addr + size;
         a += kPageSize) {
        if (!pageForConst(a) && !demandMapped(a))
            return MemFault::Unmapped;
    }
    return MemFault::None;
}

MemFault
Memory::readSlow(uint64_t addr, unsigned size, uint64_t &value)
{
    SHIFT_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
        // Single-page access that missed the translation cache: one
        // map lookup (which refills the cache) covers all bytes.
        if (!isImplemented(addr) || !isImplemented(addr + size - 1))
            return MemFault::Unimplemented;
        Page *page = pageFor(addr, false);
        if (!page)
            return MemFault::Unmapped;
        const uint8_t *bytes = page->data.data() + off;
        uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
        value = v;
        return MemFault::None;
    }

    // Page-crossing: probe everything first so a partial fault has no
    // side effects, then assemble byte by byte.
    MemFault fault = probe(addr, size);
    if (fault != MemFault::None)
        return fault;
    uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i) {
        Page *page = pageFor(addr + i, false);
        SHIFT_ASSERT(page);
        uint64_t byteOff = (addr + i) & (kPageSize - 1);
        v |= static_cast<uint64_t>(page->data[byteOff]) << (8 * i);
    }
    value = v;
    return MemFault::None;
}

MemFault
Memory::writeSlow(uint64_t addr, unsigned size, uint64_t value)
{
    SHIFT_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
        if (!isImplemented(addr) || !isImplemented(addr + size - 1))
            return MemFault::Unimplemented;
        Page *page = pageFor(addr, false, true);
        if (!page)
            return MemFault::Unmapped;
        uint8_t *bytes = page->data.data() + off;
        for (unsigned i = 0; i < size; ++i)
            bytes[i] = static_cast<uint8_t>(value >> (8 * i));
        return MemFault::None;
    }

    MemFault fault = probe(addr, size);
    if (fault != MemFault::None)
        return fault;
    for (unsigned i = 0; i < size; ++i) {
        Page *page = pageFor(addr + i, false, true);
        SHIFT_ASSERT(page);
        uint64_t byteOff = (addr + i) & (kPageSize - 1);
        page->data[byteOff] = static_cast<uint8_t>(value >> (8 * i));
    }
    return MemFault::None;
}

MemFault
Memory::writeSpillSlow(uint64_t addr, uint64_t value, bool nat)
{
    MemFault fault = write(addr, 8, value);
    if (fault != MemFault::None)
        return fault;
    Page *page = pageFor(addr, false, true);
    uint64_t word = (addr & (kPageSize - 1)) >> 3;
    uint64_t &bits = page->nat[word >> 6];
    uint64_t mask = 1ULL << (word & 63);
    bits = nat ? (bits | mask) : (bits & ~mask);
    return MemFault::None;
}

MemFault
Memory::readFillSlow(uint64_t addr, uint64_t &value, bool &nat)
{
    MemFault fault = read(addr, 8, value);
    if (fault != MemFault::None)
        return fault;
    const Page *page = pageForConst(addr);
    SHIFT_ASSERT(page);
    uint64_t word = (addr & (kPageSize - 1)) >> 3;
    nat = (page->nat[word >> 6] >> (word & 63)) & 1;
    return MemFault::None;
}

uint64_t
Memory::contentHash(int region) const
{
    // Sorted page keys so the digest is independent of map iteration
    // order; all-zero pages are skipped so demand-allocating a page
    // one run never touched does not perturb the hash.
    std::vector<std::pair<uint64_t, const Page *>> pages;
    forEachEntry([&](uint64_t key, const Page &page) {
        if (region < 0 || regionOf(key << kPageShift) == unsigned(region))
            pages.emplace_back(key, &page);
    });
    std::sort(pages.begin(), pages.end());

    auto mix = [](uint64_t h, uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        return h * 0xff51afd7ed558ccdULL;
    };

    uint64_t hash = 0x5851f42d4c957f2dULL;
    for (const auto &[key, pagePtr] : pages) {
        const Page &page = *pagePtr;
        bool zero = true;
        for (size_t i = 0; i < kPageSize && zero; i += 8)
            zero = loadLe(page.data.data() + i, 8) == 0;
        for (uint64_t natWord : page.nat)
            zero = zero && natWord == 0;
        if (zero)
            continue;
        hash = mix(hash, key);
        for (size_t i = 0; i < kPageSize; i += 8)
            hash = mix(hash, loadLe(page.data.data() + i, 8));
        for (uint64_t natWord : page.nat)
            hash = mix(hash, natWord);
    }
    return hash;
}

MemFault
Memory::probeRange(uint64_t addr, uint64_t len) const
{
    while (len > 0) {
        if (!isImplemented(addr))
            return MemFault::Unimplemented;
        if (!pageForConst(addr) && !demandMapped(addr))
            return MemFault::Unmapped;
        uint64_t chunk = std::min(len, kPageSize - (addr & (kPageSize - 1)));
        addr += chunk;
        len -= chunk;
    }
    return MemFault::None;
}

MemFault
Memory::writeBytes(uint64_t addr, const void *src, uint64_t len)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(src);
    while (len > 0) {
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(len, kPageSize - off);
        if (regionOf(addr) == kTagRegion) {
            // Tag-space stores must maintain the taint summary; keep
            // the per-byte path (bulk copies into the bitmap are not
            // a hot pattern).
            for (uint64_t i = 0; i < chunk; ++i) {
                MemFault fault = write(addr + i, 1, bytes[i]);
                if (fault != MemFault::None)
                    return fault;
            }
        } else {
            if (!isImplemented(addr))
                return MemFault::Unimplemented;
            Page *page = pageFor(addr, false, true);
            if (!page)
                return MemFault::Unmapped;
            std::memcpy(page->data.data() + off, bytes, chunk);
        }
        bytes += chunk;
        addr += chunk;
        len -= chunk;
    }
    return MemFault::None;
}

MemFault
Memory::fillBytes(uint64_t addr, uint8_t value, uint64_t len)
{
    while (len > 0) {
        if (!isImplemented(addr))
            return MemFault::Unimplemented;
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(len, kPageSize - off);
        if (value != 0 && regionOf(addr) == kTagRegion)
            summary_.markRange(addr, chunk);
        Page *page = pageFor(addr, false, true);
        if (!page)
            return MemFault::Unmapped;
        std::memset(page->data.data() + off, value, chunk);
        addr += chunk;
        len -= chunk;
    }
    return MemFault::None;
}

MemFault
Memory::readCString(uint64_t addr, std::string &out, uint64_t maxLen)
{
    out.clear();
    uint64_t remaining = maxLen;
    while (remaining > 0) {
        if (!isImplemented(addr))
            return MemFault::Unimplemented;
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(remaining, kPageSize - off);
        Page *page = pageFor(addr, false);
        if (!page)
            return MemFault::Unmapped;
        const uint8_t *p = page->data.data() + off;
        const void *nul = std::memchr(p, 0, chunk);
        if (nul) {
            out.append(reinterpret_cast<const char *>(p),
                       static_cast<size_t>(
                           static_cast<const uint8_t *>(nul) - p));
            return MemFault::None;
        }
        out.append(reinterpret_cast<const char *>(p), chunk);
        addr += chunk;
        remaining -= chunk;
    }
    return MemFault::None;
}

} // namespace shift
