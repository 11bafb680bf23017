/**
 * @file
 * Hierarchical taint summary: per-page and per-64B-line dirty bits
 * over the tag space (region 0).
 *
 * SHIFT's software bitmap makes every instrumented load pay a bitmap
 * read even when the memory it covers has never been tainted — which
 * on server workloads is nearly all of it. The summary collapses that
 * cost: a tag-space page is *dirty* only if some nonzero byte was ever
 * written into it, tracked at two levels — page presence in a sparse
 * map (absent page == clean page, mirroring the bitmap's own
 * demand-mapped allocation) and a 64-bit line mask per present page
 * (one bit per 64-byte tag line). The fast-path probes (see
 * docs/FAST-PATH.md) consult the summary instead of the bitmap: a
 * clean line proves the elided check/update would have read zeros and
 * written nothing.
 *
 * The summary is deliberately *conservative and sticky*: bits are set
 * when a nonzero value is stored into region 0 and never cleared by
 * later zero stores (clearing taint leaves the line "dirty"). Sticky
 * bits can only cost performance (a deopt to the instrumented path),
 * never correctness, and they make maintenance a single branch on the
 * store path. restore() replaces the summary wholesale with the
 * snapshot's capture, so a fleet clone starts from the template's
 * summary and dirties only its own copy — sibling isolation falls out
 * of value semantics, no COW machinery needed (the summary is tiny:
 * one u64 per ever-dirty tag page).
 */

#ifndef SHIFT_MEM_TAINT_SUMMARY_HH
#define SHIFT_MEM_TAINT_SUMMARY_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace shift
{

/** Page/line dirty bits over the tag space. Value-copyable. */
class TaintSummary
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr unsigned kLineShift = 6; ///< 64-byte lines
    static constexpr unsigned kLinesPerPage = 64;

    /**
     * Record that the `size` bytes at addr (a tag-space address) may
     * now hold nonzero taint. Sizes are 1..8, so at most two adjacent
     * lines are touched.
     */
    void
    mark(uint64_t addr, unsigned size)
    {
        markLine(addr);
        uint64_t last = addr + (size ? size - 1 : 0);
        if ((last >> kLineShift) != (addr >> kLineShift))
            markLine(last);
    }

    /**
     * mark() for a bulk store of `len` bytes: one map update per tag
     * page, however many lines of it the range covers.
     */
    void
    markRange(uint64_t addr, uint64_t len)
    {
        if (len == 0)
            return;
        uint64_t last = addr + len - 1;
        for (uint64_t key = addr >> kPageShift; key <= last >> kPageShift;
             ++key) {
            unsigned lo = key == addr >> kPageShift ? lineIndex(addr) : 0;
            unsigned hi = key == last >> kPageShift ? lineIndex(last)
                                                    : kLinesPerPage - 1;
            markLines(key, (~0ULL >> (63 - hi)) & (~0ULL << lo));
        }
    }

    /** True when the 64B line holding addr was ever marked. */
    bool
    lineDirty(uint64_t addr) const
    {
        const uint64_t *bits = findBits(addr >> kPageShift);
        if (!bits)
            return false;
        return (*bits >> lineIndex(addr)) & 1;
    }

    /**
     * True when either line under [addr, addr+1] is dirty — the probe
     * shape for byte-granularity checks, which read a 2-byte window of
     * the bitmap that may straddle a line.
     */
    bool
    pairDirty(uint64_t addr) const
    {
        return lineDirty(addr) || lineDirty(addr + 1);
    }

    /** True when any line of addr's page is dirty. */
    bool
    pageDirty(uint64_t addr) const
    {
        return findBits(addr >> kPageShift) != nullptr;
    }

    /** Number of pages with at least one dirty line. */
    size_t dirtyPageCount() const { return pages_.size(); }

    /** Total dirty lines across all pages. */
    uint64_t
    dirtyLineCount() const
    {
        uint64_t n = 0;
        for (const auto &entry : pages_)
            n += static_cast<uint64_t>(__builtin_popcountll(entry.second));
        return n;
    }

    /** Drop every bit (used only by tests; runs never clean a line). */
    void
    clear()
    {
        pages_.clear();
        resetCache();
    }

  private:
    static unsigned
    lineIndex(uint64_t addr)
    {
        return static_cast<unsigned>((addr >> kLineShift) &
                                     (kLinesPerPage - 1));
    }

    void
    markLine(uint64_t addr)
    {
        markLines(addr >> kPageShift, 1ULL << lineIndex(addr));
    }

    void
    markLines(uint64_t key, uint64_t lines)
    {
        uint64_t &bits = pages_[key];
        bits |= lines;
        // Keep the probe cache coherent: the insert may have created
        // the entry this key's cached "clean" verdict denied.
        Way &w = cache_[key & (kCacheWays - 1)];
        w.key = key;
        w.bits = &bits;
    }

    /**
     * Direct-mapped probe cache: instrumented code probes a handful
     * of tag pages back to back (one bitmap page covers 32 KiB of
     * data, and a copy loop alternates between its source's and
     * destination's pages), so nearly every probe skips the hash
     * lookup. Caches negative results too (bits == nullptr means
     * "known clean"); markLine() refreshes the mapped way, so a
     * cached verdict is never stale. Element pointers into
     * unordered_map survive rehashing.
     */
    const uint64_t *
    findBits(uint64_t key) const
    {
        Way &w = cache_[key & (kCacheWays - 1)];
        if (w.key == key)
            return w.bits;
        auto it = pages_.find(key);
        w.key = key;
        w.bits = it == pages_.end() ? nullptr : &it->second;
        return w.bits;
    }

    void
    resetCache()
    {
        for (Way &w : cache_)
            w = Way{};
    }

    static constexpr uint64_t kNoKey = ~0ULL;
    static constexpr unsigned kCacheWays = 16;

    struct Way
    {
        uint64_t key = kNoKey;
        const uint64_t *bits = nullptr;
    };

    std::unordered_map<uint64_t, uint64_t> pages_;
    mutable Way cache_[kCacheWays];

    // The JIT's inline probes read the ways directly (jitWays()).
    static_assert(offsetof(Way, key) == 0 &&
                      offsetof(Way, bits) == 8 && sizeof(Way) == 16,
                  "Way layout is baked into JIT-emitted code");

  public:
    /**
     * The probe-cache ways, for the JIT's inline Fp* probe bodies
     * (way layout pinned below). A cached way whose key matches
     * yields the verdict directly (bits == nullptr is "known
     * clean"); anything else — way miss, dirty line — takes the
     * out-of-line helper, which consults findBits()/deopts exactly
     * as the interpreter would.
     */
    const void *jitWays() const { return cache_; }

    /** Geometry of the jitWays() array (checked against Way). */
    static constexpr size_t kJitWays = 16;
    static constexpr size_t kJitWaySize = 16;
    static_assert(kJitWays == kCacheWays && kJitWaySize == sizeof(Way),
                  "jitWays geometry out of sync with the probe cache");

    TaintSummary() = default;
    TaintSummary(const TaintSummary &other) : pages_(other.pages_) {}
    TaintSummary &
    operator=(const TaintSummary &other)
    {
        // The cache points into our own map; never copy the other's.
        pages_ = other.pages_;
        resetCache();
        return *this;
    }
};

} // namespace shift

#endif // SHIFT_MEM_TAINT_SUMMARY_HH
