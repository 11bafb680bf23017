#include "taint_map.hh"

#include <algorithm>

#include "support/bitops.hh"
#include "support/logging.hh"

namespace shift
{

namespace
{

constexpr uint64_t kLineBytes = 1ULL << TaintSummary::kLineShift;
constexpr uint64_t kTagPageBytes = 1ULL << TaintSummary::kPageShift;

/** The bits of tag byte t that fall inside tag-bit range [b0, b1]. */
uint8_t
bitMask(uint64_t t, uint64_t b0, uint64_t b1)
{
    unsigned lo = t == b0 >> 3 ? unsigned(b0 & 7) : 0;
    unsigned hi = t == b1 >> 3 ? unsigned(b1 & 7) : 7;
    return static_cast<uint8_t>((0xFFu >> (7 - hi)) & (0xFFu << lo));
}

/**
 * Call fn(t0, t1) on each maximal span of tag bytes of bits [b0, b1]
 * that lies in dirty summary lines, in address order. Those are the
 * only bytes that can be nonzero: an absent tag page is skipped in one
 * step, and so is a clean 64-byte line.
 */
template <typename Fn>
void
forEachDirtySpan(const TaintSummary &summary, uint64_t b0, uint64_t b1,
                 Fn &&fn)
{
    uint64_t last = b1 >> 3;
    for (uint64_t t = b0 >> 3; t <= last;) {
        if (!summary.pageDirty(t)) {
            t = (t | (kTagPageBytes - 1)) + 1;
            continue;
        }
        if (!summary.lineDirty(t)) {
            t = (t | (kLineBytes - 1)) + 1;
            continue;
        }
        uint64_t from = t;
        while (t <= last && summary.lineDirty(t))
            t = (t | (kLineBytes - 1)) + 1;
        fn(from, std::min(t - 1, last));
    }
}

} // namespace

template <typename Fn>
void
TaintMap::forEachRun(uint64_t addr, uint64_t len, Fn &&fn) const
{
    // Within one 2^kImplementedBits-aligned block of data addresses,
    // tagByteAddr() is linear (it only drops the unimplemented hole),
    // so consecutive units own consecutive bitmap bits. A range inside
    // one region is one run.
    uint64_t end = addr + len;
    if (len == 0 || end < addr)
        return;
    unsigned shift = granularityShift(granularity_);
    uint64_t blockUnits = 1ULL << (kImplementedBits - shift);
    uint64_t last = (end - 1) >> shift;
    for (uint64_t g = addr >> shift;;) {
        uint64_t stop = std::min(last, g | (blockUnits - 1));
        uint64_t b0 = tagByteAddr(g << shift, granularity_) * 8 + (g & 7);
        fn(b0, b0 + (stop - g), g);
        if (stop == last)
            return;
        g = stop + 1;
    }
}

template <typename Fn>
void
TaintMap::scanDirty(uint64_t addr, uint64_t len, Fn &&fn) const
{
    const TaintSummary &summary = mem_->taintSummary();
    forEachRun(addr, len, [&](uint64_t b0, uint64_t b1, uint64_t g0) {
        forEachDirtySpan(summary, b0, b1, [&](uint64_t t0, uint64_t t1) {
            uint64_t t = t0;
            MemFault fault = mem_->readChunks(
                t0, t1 - t0 + 1, [&](const uint8_t *p, uint64_t n) {
                    for (uint64_t i = 0; i < n; ++i, ++t) {
                        uint8_t bits = p[i] & bitMask(t, b0, b1);
                        if (bits)
                            fn(g0 + (t * 8 - b0), bits);
                    }
                });
            SHIFT_ASSERT(fault == MemFault::None);
        });
    });
}

void
TaintMap::writeBits(uint64_t b0, uint64_t b1, bool value)
{
    // Read-modify-write only the partial edge bytes; every whole byte
    // between them is one page-wise fill.
    uint64_t t0 = b0 >> 3;
    uint64_t t1 = b1 >> 3;
    auto rmw = [&](uint64_t t) {
        uint64_t byte = 0;
        MemFault fault = mem_->read(t, 1, byte);
        SHIFT_ASSERT(fault == MemFault::None);
        uint8_t mask = bitMask(t, b0, b1);
        fault = mem_->write(t, 1, value ? (byte | mask) : (byte & ~mask));
        SHIFT_ASSERT(fault == MemFault::None);
    };
    uint64_t fillFrom = t0;
    uint64_t fillTo = t1 + 1;
    if (bitMask(t0, b0, b1) != 0xFF) {
        rmw(t0);
        ++fillFrom;
    }
    if (t1 >= fillFrom && bitMask(t1, b0, b1) != 0xFF) {
        rmw(t1);
        --fillTo;
    }
    if (fillFrom < fillTo) {
        MemFault fault =
            mem_->fillBytes(fillFrom, value ? 0xFF : 0, fillTo - fillFrom);
        SHIFT_ASSERT(fault == MemFault::None);
    }
}

void
TaintMap::setRange(uint64_t addr, uint64_t len, bool value)
{
    forEachRun(addr, len, [&](uint64_t b0, uint64_t b1, uint64_t) {
        if (value) {
            writeBits(b0, b1, true);
        } else {
            // A clean summary line proves its tag bytes are already
            // zero, so a clear only writes the dirty spans.
            forEachDirtySpan(mem_->taintSummary(), b0, b1,
                             [&](uint64_t t0, uint64_t t1) {
                                 writeBits(std::max(b0, t0 * 8),
                                           std::min(b1, t1 * 8 + 7),
                                           false);
                             });
        }
        // The mirror still sees every bit of the range, clean lines
        // included: it keeps its own copy of the bitmap and does not
        // consult the summary.
        if (mirror_) {
            for (uint64_t b = b0; b <= b1; ++b)
                mirror_(b >> 3, unsigned(b & 7), value);
        }
    });
}

void
TaintMap::taint(uint64_t addr, uint64_t len)
{
    setRange(addr, len, true);
}

void
TaintMap::clear(uint64_t addr, uint64_t len)
{
    setRange(addr, len, false);
}

bool
TaintMap::isTainted(uint64_t addr) const
{
    uint64_t tagAddr = tagByteAddr(addr, granularity_);
    unsigned bitIdx = tagBitIndex(addr, granularity_);
    uint64_t byte = 0;
    MemFault fault = mem_->read(tagAddr, 1, byte);
    SHIFT_ASSERT(fault == MemFault::None);
    return bit(byte, bitIdx);
}

bool
TaintMap::anyTainted(uint64_t addr, uint64_t len) const
{
    bool any = false;
    scanDirty(addr, len, [&](uint64_t, uint8_t) { any = true; });
    return any;
}

std::vector<bool>
TaintMap::taintOf(uint64_t addr, uint64_t len) const
{
    // Expand each tainted unit into the data bytes it covers, clipped
    // to [addr, addr+len); clean stretches stay at the vector's zeros.
    std::vector<bool> out(len);
    unsigned shift = granularityShift(granularity_);
    uint64_t end = addr + len;
    scanDirty(addr, len, [&](uint64_t g, uint8_t bits) {
        for (; bits; bits >>= 1, ++g) {
            if (!(bits & 1))
                continue;
            uint64_t from = std::max(g << shift, addr);
            uint64_t to = std::min((g + 1) << shift, end);
            for (uint64_t v = from; v < to; ++v)
                out[v - addr] = true;
        }
    });
    return out;
}

uint64_t
TaintMap::countTainted(uint64_t addr, uint64_t len) const
{
    uint64_t count = 0;
    scanDirty(addr, len, [&](uint64_t, uint8_t bits) {
        count += static_cast<uint64_t>(__builtin_popcount(bits));
    });
    return count;
}

} // namespace shift
