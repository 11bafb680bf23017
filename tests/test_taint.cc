/**
 * @file
 * TaintMap tests: the host-side view of the bitmap must agree with
 * itself (set/clear/query) and with the figure-4 mapping that
 * instrumented code computes, at both granularities.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <tuple>

#include "core/taint_map.hh"

namespace shift
{
namespace
{

constexpr uint64_t kBase = regionBase(kDataRegion) + 0x10000;

class TaintMapTest : public ::testing::TestWithParam<Granularity>
{
  protected:
    Memory mem;
};

INSTANTIATE_TEST_SUITE_P(Granularities, TaintMapTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return info.param == Granularity::Byte
                                        ? "byte"
                                        : "word";
                         });

TEST_P(TaintMapTest, TaintAndClearRange)
{
    TaintMap tm(mem, GetParam());
    tm.taint(kBase + 10, 20);
    EXPECT_TRUE(tm.anyTainted(kBase + 10, 20));
    EXPECT_TRUE(tm.isTainted(kBase + 15));
    EXPECT_FALSE(tm.anyTainted(kBase + 100, 8));
    tm.clear(kBase + 10, 20);
    EXPECT_FALSE(tm.anyTainted(kBase, 64));
}

TEST_P(TaintMapTest, GranularityResolution)
{
    TaintMap tm(mem, GetParam());
    tm.taint(kBase, 1);
    if (GetParam() == Granularity::Byte) {
        EXPECT_TRUE(tm.isTainted(kBase));
        EXPECT_FALSE(tm.isTainted(kBase + 1));
    } else {
        // One bit covers the whole 8-byte word.
        EXPECT_TRUE(tm.isTainted(kBase + 1));
        EXPECT_TRUE(tm.isTainted(kBase + 7));
        EXPECT_FALSE(tm.isTainted(kBase + 8));
    }
}

TEST_P(TaintMapTest, TaintOfReportsPerByte)
{
    TaintMap tm(mem, GetParam());
    tm.taint(kBase + 8, 8);
    std::vector<bool> taint = tm.taintOf(kBase, 24);
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(taint[size_t(i)]) << i;
    for (int i = 8; i < 16; ++i)
        EXPECT_TRUE(taint[size_t(i)]) << i;
    for (int i = 16; i < 24; ++i)
        EXPECT_FALSE(taint[size_t(i)]) << i;
}

TEST_P(TaintMapTest, CountTainted)
{
    TaintMap tm(mem, GetParam());
    tm.taint(kBase, 16);
    uint64_t units = GetParam() == Granularity::Byte ? 16u : 2u;
    EXPECT_EQ(tm.countTainted(kBase, 16), units);
}

TEST_P(TaintMapTest, RandomizedSetClearConsistency)
{
    TaintMap tm(mem, GetParam());
    std::mt19937_64 rng(GetParam() == Granularity::Byte ? 11 : 22);
    unsigned unit = 1u << granularityShift(GetParam());

    // Model at unit resolution; compare against the real map.
    std::map<uint64_t, bool> model;
    for (int step = 0; step < 500; ++step) {
        uint64_t addr = kBase + (rng() % 4096);
        uint64_t len = 1 + rng() % 64;
        bool set = rng() & 1;
        if (set)
            tm.taint(addr, len);
        else
            tm.clear(addr, len);
        uint64_t first = addr & ~uint64_t(unit - 1);
        for (uint64_t a = first; a < addr + len; a += unit)
            model[a] = set;
    }
    for (const auto &kv : model)
        EXPECT_EQ(tm.isTainted(kv.first), kv.second) << kv.first;
}

TEST_P(TaintMapTest, AgreesWithArchitecturalMapping)
{
    // The host-side map and the instruction sequence must address the
    // same bit: check against a direct bitmap poke via tagByteAddr.
    TaintMap tm(mem, GetParam());
    std::mt19937_64 rng(5);
    for (int i = 0; i < 200; ++i) {
        unsigned region = 2 + rng() % 2;
        uint64_t va = regionBase(region) + (rng() & 0xFFFFF8);
        tm.taint(va, 1);
        uint64_t tagAddr = tagByteAddr(va, GetParam());
        uint64_t byte = 0;
        ASSERT_EQ(mem.read(tagAddr, 1, byte), MemFault::None);
        EXPECT_TRUE((byte >> tagBitIndex(va, GetParam())) & 1);
        tm.clear(va, 1);
    }
}

TEST_P(TaintMapTest, DistinctRegionsDistinctTags)
{
    TaintMap tm(mem, GetParam());
    uint64_t offset = 0x2000;
    tm.taint(regionBase(2) + offset, 8);
    EXPECT_FALSE(tm.anyTainted(regionBase(3) + offset, 8));
}

// ----- differential: range ops vs single-unit writes ---------------------

/**
 * The reference the range ops must match bit for bit: one single-unit
 * read-modify-write of the bitmap per tracking unit, and per-unit
 * reads for the queries. Shares no code with TaintMap's range walk.
 */
struct Reference
{
    Memory mem;
    Granularity g;

    explicit Reference(Granularity granularity) : g(granularity) {}

    std::pair<uint64_t, uint64_t>
    units(uint64_t addr, uint64_t len) const
    {
        unsigned shift = granularityShift(g);
        return {addr >> shift, (addr + len - 1) >> shift};
    }

    void
    set(uint64_t addr, uint64_t len, bool value)
    {
        auto [first, last] = units(addr, len);
        for (uint64_t u = first; u <= last; ++u) {
            uint64_t va = u << granularityShift(g);
            uint64_t tag = tagByteAddr(va, g);
            uint64_t byte = 0;
            ASSERT_EQ(mem.read(tag, 1, byte), MemFault::None);
            uint64_t mask = 1ULL << tagBitIndex(va, g);
            ASSERT_EQ(mem.write(tag, 1, value ? byte | mask : byte & ~mask),
                      MemFault::None);
        }
    }

    bool
    unitTainted(uint64_t va)
    {
        uint64_t byte = 0;
        EXPECT_EQ(mem.read(tagByteAddr(va, g), 1, byte), MemFault::None);
        return (byte >> tagBitIndex(va, g)) & 1;
    }
};

/**
 * A window of four tag pages in distinct summary states: page 0 holds
 * scattered taint (dirty and clean lines), page 1 was tainted whole
 * and cleared (sticky-dirty, all zero), pages 2 and 3 were never
 * touched (absent).
 */
class TaintRangeDiffTest : public ::testing::TestWithParam<Granularity>
{
  protected:
    static constexpr uint64_t kTagPage = 4096;

    TaintRangeDiffTest()
        : g(GetParam()), unit(1ULL << granularityShift(g)),
          // Data bytes covered by one 4 KiB tag page.
          pageSpan(kTagPage * 8 * unit),
          // Start the window on a tag-page boundary.
          base(regionBase(kDataRegion) + 16 * pageSpan), ref(g),
          tm(mem, g)
    {}

    void
    apply(uint64_t addr, uint64_t len, bool value)
    {
        if (value)
            tm.taint(addr, len);
        else
            tm.clear(addr, len);
        ref.set(addr, len, value);
    }

    void
    seed()
    {
        for (int i = 0; i < 20; ++i)
            apply(base + i * 3 * 64 * 8 * unit + 3 * unit, 5 * unit, true);
        apply(base + pageSpan, pageSpan, true);
        apply(base + pageSpan, pageSpan, false);
    }

    /** Bitmap contents and taint summary agree with the reference. */
    void
    expectSameState(uint64_t addr, uint64_t len)
    {
        EXPECT_EQ(mem.contentHash(kTagRegion),
                  ref.mem.contentHash(kTagRegion));
        const TaintSummary &a = mem.taintSummary();
        const TaintSummary &b = ref.mem.taintSummary();
        EXPECT_EQ(a.dirtyPageCount(), b.dirtyPageCount());
        EXPECT_EQ(a.dirtyLineCount(), b.dirtyLineCount());
        uint64_t t0 = tagByteAddr(addr, g);
        uint64_t t1 = tagByteAddr(addr + len - 1, g);
        for (uint64_t t = t0 & ~uint64_t(63); t <= t1; t += 64)
            EXPECT_EQ(a.lineDirty(t), b.lineDirty(t)) << std::hex << t;
    }

    void
    expectSameQueries(uint64_t addr, uint64_t len)
    {
        std::vector<bool> want(len);
        uint64_t count = 0;
        uint64_t lastUnit = ~0ULL;
        for (uint64_t i = 0; i < len; ++i) {
            want[i] = ref.unitTainted(addr + i);
            uint64_t u = (addr + i) >> granularityShift(g);
            if (u != lastUnit && want[i])
                ++count;
            lastUnit = u;
        }
        bool any = count > 0;
        EXPECT_EQ(tm.anyTainted(addr, len), any);
        EXPECT_EQ(tm.countTainted(addr, len), count);
        EXPECT_EQ(tm.taintOf(addr, len), want);
    }

    /** Unaligned range of 1 unit .. 3 tag pages inside the window. */
    std::pair<uint64_t, uint64_t>
    randomRange(std::mt19937_64 &rng)
    {
        uint64_t window = 4 * pageSpan;
        uint64_t maxLen;
        switch (rng() % 3) {
          case 0: maxLen = 16 * unit; break;       // inside a tag byte or two
          case 1: maxLen = 3 * 64 * 8 * unit; break; // a few tag lines
          default: maxLen = 3 * pageSpan; break;     // across tag pages
        }
        uint64_t len = 1 + rng() % maxLen;
        uint64_t off = rng() % (window - len);
        return {base + off, len};
    }

    Granularity g;
    uint64_t unit;
    uint64_t pageSpan;
    uint64_t base;
    Memory mem;
    Reference ref;
    TaintMap tm;
};

INSTANTIATE_TEST_SUITE_P(Granularities, TaintRangeDiffTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return info.param == Granularity::Byte
                                        ? "byte"
                                        : "word";
                         });

TEST_P(TaintRangeDiffTest, SeededSummaryStates)
{
    seed();
    const TaintSummary &summary = mem.taintSummary();
    uint64_t tagBase = tagByteAddr(base, g);
    EXPECT_TRUE(summary.pageDirty(tagBase));
    EXPECT_TRUE(summary.pageDirty(tagBase + kTagPage));
    EXPECT_FALSE(summary.pageDirty(tagBase + 2 * kTagPage));
    EXPECT_FALSE(summary.pageDirty(tagBase + 3 * kTagPage));
    EXPECT_FALSE(tm.anyTainted(base + pageSpan, pageSpan));
    expectSameState(base, 4 * pageSpan);
    expectSameQueries(base, 4 * pageSpan);
}

TEST_P(TaintRangeDiffTest, RandomRangesMatchSingleUnitWrites)
{
    seed();
    std::mt19937_64 rng(g == Granularity::Byte ? 41 : 42);
    for (int step = 0; step < 300; ++step) {
        auto [addr, len] = randomRange(rng);
        SCOPED_TRACE(::testing::Message()
                     << "step " << step << " addr +0x" << std::hex
                     << addr - base << " len 0x" << len);
        if (step % 3 != 2) {
            apply(addr, len, rng() % 5 < 2);
            expectSameState(addr, len);
        }
        auto [qa, ql] = randomRange(rng);
        expectSameQueries(qa, std::min<uint64_t>(ql, 64 * 1024));
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST_P(TaintRangeDiffTest, RangeAcrossTheUnimplementedHole)
{
    // tagByteAddr drops the hole bits, so the range's tail aliases the
    // start of the region's bitmap: the range op must split there.
    uint64_t end = regionBase(kDataRegion) + (1ULL << kImplementedBits);
    uint64_t addr = end - 100 * unit;
    apply(addr, 200 * unit, true);
    expectSameState(addr, 100 * unit);
    expectSameQueries(addr, 200 * unit);
    apply(addr + 50 * unit, 100 * unit, false);
    expectSameQueries(addr, 200 * unit);
    EXPECT_EQ(mem.contentHash(kTagRegion), ref.mem.contentHash(kTagRegion));
}

TEST_P(TaintRangeDiffTest, EmptyRangeTouchesNothing)
{
    seed();
    uint64_t before = mem.contentHash(kTagRegion);
    tm.taint(base + 2 * pageSpan + 3, 0);
    tm.clear(base + 3, 0);
    EXPECT_EQ(mem.contentHash(kTagRegion), before);
    EXPECT_FALSE(tm.anyTainted(base + 3 * unit, 0));
    EXPECT_EQ(tm.countTainted(base + 3 * unit, 0), 0u);
    EXPECT_TRUE(tm.taintOf(base, 0).empty());
}

TEST_P(TaintRangeDiffTest, MirrorSeesEveryBitInUnitOrder)
{
    // With a mirror, every unit of the range fires once, in ascending
    // unit order, with the tag byte and bit single-unit writes use —
    // clean lines and absent pages included.
    seed();
    std::vector<std::tuple<uint64_t, unsigned, bool>> seen;
    tm.setMirror([&](uint64_t tag, unsigned bit, bool value) {
        seen.emplace_back(tag, bit, value);
    });
    std::mt19937_64 rng(g == Granularity::Byte ? 7 : 8);
    for (int step = 0; step < 60; ++step) {
        auto [addr, len] = randomRange(rng);
        bool value = rng() & 1;
        seen.clear();
        apply(addr, len, value);
        std::vector<std::tuple<uint64_t, unsigned, bool>> want;
        auto [first, last] = ref.units(addr, len);
        for (uint64_t u = first; u <= last; ++u) {
            uint64_t va = u << granularityShift(g);
            want.emplace_back(tagByteAddr(va, g), tagBitIndex(va, g), value);
        }
        ASSERT_EQ(seen, want) << "step " << step;
        expectSameState(addr, len);
    }
}

} // namespace
} // namespace shift
