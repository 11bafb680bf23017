/**
 * @file
 * Async taint tier tests: the annotation pass, the tier's replay
 * semantics, and end-to-end Session runs with the tier enabled.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "dift/annotate.hh"
#include "dift/tier.hh"
#include "lang/compiler.hh"
#include "support/bitops.hh"
#include "session_helpers.hh"

namespace shift
{
namespace
{

using testutil::shiftOptions;

// ----------------------------------------------------------- annotation

TEST(Annotate, MarksLoadsAndStores)
{
    Program program = minic::compileProgram(
        std::string("int g;"
                    "int main() { int x = g; g = x + 1; return g; }"));
    dift::AnnotateStats stats =
        dift::annotateForAsync(program, dift::AnnotateOptions{});
    EXPECT_GT(stats.checkedLoads, 0u);
    EXPECT_GT(stats.trackedStores, 0u);
    EXPECT_EQ(stats.cmpMarkers, 0u);

    uint64_t annotated = 0;
    for (const auto &fn : program.functions) {
        for (const auto &instr : fn.code) {
            if (instr.p1 & dift::kAnnChecked)
                ++annotated;
        }
    }
    EXPECT_EQ(annotated, stats.checkedLoads + stats.relaxedLoads +
                             stats.trackedStores + stats.relaxedStores);
}

TEST(Annotate, ScopedRelaxAndCmpMarkers)
{
    auto compile = [] {
        return minic::compileProgram(std::string(
            "int table[8];"
            "int lookup(int i) { return table[i]; }"
            "int check(int c) { if (c == 61) return 1; return 0; }"
            "int main() { return lookup(1) + check(2); }"));
    };

    Program plain = compile();
    dift::AnnotateOptions opt;
    opt.relaxLoadFunctions = {"lookup"};
    opt.cmpTaintAlertFunctions = {"check"};
    Program annotated = compile();
    dift::AnnotateStats stats = dift::annotateForAsync(annotated, opt);
    EXPECT_GT(stats.relaxedLoads, 0u);
    EXPECT_GT(stats.cmpMarkers, 0u);

    // Compare markers are real inserted instructions.
    auto sizeOf = [](const Program &p) {
        uint64_t n = 0;
        for (const auto &fn : p.functions)
            n += fn.code.size();
        return n;
    };
    EXPECT_EQ(sizeOf(annotated), sizeOf(plain) + stats.cmpMarkers);
}

// ------------------------------------------------------- tier (direct)

// Tier-direct tests drive the replay entry points the engine calls;
// pc 7 / function 3 stand in for the engine's fault-reporting
// context.
class TierTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kAddr = regionBase(kDataRegion) + 0x2000;
    static constexpr int32_t kPc = 7;
    static constexpr int16_t kFunc = 3;

    Memory mem;
};

TEST_F(TierTest, LoadPropagatesBitmapTaintToRegister)
{
    dift::AsyncTaintTier tier(mem, Granularity::Byte);
    tier.start();
    // Taint kAddr via the mirror hook (what a TaintMap write does).
    tier.mirrorTagWrite(tagByteAddr(kAddr, Granularity::Byte),
                        tagBitIndex(kAddr, Granularity::Byte), true);
    EXPECT_FALSE(tier.load(/*dst=*/5, /*addrReg=*/6, dift::kEvChecked,
                           kAddr, 1, kPc, kFunc));
    EXPECT_EQ(tier.fence(), nullptr);
    EXPECT_TRUE(tier.regTaint(5));
    EXPECT_FALSE(tier.regTaint(6));

    // Register taint flows through ALU ops and stores back to memory.
    tier.regWrite(/*dst=*/7, /*src=*/5, 0, /*zeroIdiom=*/false);
    EXPECT_FALSE(tier.store(/*src=*/7, /*addrReg=*/6, dift::kEvChecked,
                            kAddr + 8, 1, kPc, kFunc));
    EXPECT_EQ(tier.fence(), nullptr);
    EXPECT_TRUE(tier.regTaint(7));
    // The fence materialized the dirty tag word into memory.
    uint64_t byte = 0;
    ASSERT_EQ(mem.read(tagByteAddr(kAddr + 8, Granularity::Byte), 1, byte),
              MemFault::None);
    EXPECT_TRUE(bit(byte, tagBitIndex(kAddr + 8, Granularity::Byte)));
    EXPECT_EQ(tier.shutdown(), nullptr);
}

TEST_F(TierTest, ZeroIdiomPurifies)
{
    dift::AsyncTaintTier tier(mem, Granularity::Byte);
    tier.start();
    tier.setRegTaint(9, true);
    EXPECT_TRUE(tier.regTaint(9));
    tier.regWrite(9, 9, 9, /*zeroIdiom=*/true);
    EXPECT_EQ(tier.fence(), nullptr);
    EXPECT_FALSE(tier.regTaint(9));
    EXPECT_EQ(tier.shutdown(), nullptr);
}

TEST_F(TierTest, TaintedLoadAddressViolates)
{
    dift::AsyncTaintTier tier(mem, Granularity::Byte);
    tier.start();
    tier.setRegTaint(6, true);
    // The violation surfaces on the very call that replays it.
    EXPECT_TRUE(tier.load(5, 6, dift::kEvChecked, kAddr, 1, kPc, kFunc));
    const dift::Violation *v = tier.fence();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, dift::ViolationKind::LoadAddress);
    EXPECT_EQ(v->pc, kPc);
    EXPECT_EQ(v->func, kFunc);
    EXPECT_STREQ(v->detail, "load through a NaT (tainted) address");
    // First violation wins; a later one does not overwrite it.
    tier.setRegTaint(8, true);
    tier.branchCheck(8, /*branch target*/ 0x40, kPc + 1, kFunc);
    const dift::Violation *again = tier.shutdown();
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->kind, dift::ViolationKind::LoadAddress);
}

TEST_F(TierTest, BranchCheckViolates)
{
    dift::AsyncTaintTier tier(mem, Granularity::Byte);
    tier.start();
    tier.setRegTaint(8, true);
    EXPECT_TRUE(tier.branchCheck(8, 0x1234, kPc, kFunc));
    const dift::Violation *v = tier.shutdown();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, dift::ViolationKind::ControlFlow);
    EXPECT_EQ(v->addr, 0x1234u);
    EXPECT_STREQ(v->detail,
                 "NaT (tainted) value moved into a branch register");
}

TEST_F(TierTest, SpillFillCarriesTaintOutOfBand)
{
    dift::AsyncTaintTier tier(mem, Granularity::Byte);
    tier.start();
    tier.setRegTaint(4, true);
    // st8.spill of a tainted register then ld8.fill restores the
    // taint without touching the tag bitmap (UNAT semantics).
    EXPECT_FALSE(tier.store(4, 12, dift::kEvSpill, kAddr, 8, kPc, kFunc));
    tier.regWrite(4, 0, 0, false); // clobber r4
    EXPECT_FALSE(tier.regTaint(4));
    EXPECT_FALSE(tier.load(4, 12, dift::kEvFill, kAddr, 8, kPc, kFunc));
    EXPECT_EQ(tier.fence(), nullptr);
    EXPECT_TRUE(tier.regTaint(4));
    // The bitmap itself stays clean: spills are out-of-band.
    uint64_t tagByte = 0;
    ASSERT_EQ(mem.read(tagByteAddr(kAddr, Granularity::Byte), 1, tagByte),
              MemFault::None);
    EXPECT_FALSE(bit(tagByte, tagBitIndex(kAddr, Granularity::Byte)));
    EXPECT_EQ(tier.shutdown(), nullptr);
}

TEST_F(TierTest, StatsExposeEventAndFenceCounters)
{
    dift::AsyncTaintTier tier(mem, Granularity::Byte);
    tier.start();
    for (int i = 0; i < 100; ++i)
        tier.regWrite(1, 0, 0, false);
    tier.fence();
    tier.shutdown();
    StatSet stats;
    tier.statInto(stats);
    EXPECT_EQ(stats.get("dift.events"), 100u);
    EXPECT_GE(stats.get("dift.fences"), 1u);
    EXPECT_EQ(stats.get("dift.violations"), 0u);
}

TEST_F(TierTest, ReplayIsCaughtUpWithoutFence)
{
    // Replay happens at the call: the shadow is current before any
    // fence, and a violation reports the calling op's pc/function.
    dift::AsyncTaintTier tier(mem, Granularity::Byte);
    tier.start();
    tier.mirrorTagWrite(tagByteAddr(kAddr, Granularity::Byte),
                        tagBitIndex(kAddr, Granularity::Byte), true);
    EXPECT_FALSE(tier.load(5, 6, dift::kEvChecked, kAddr, 1, 7, 3));
    EXPECT_TRUE(tier.regTaint(5));
    tier.regWrite(7, 5, 0, /*zeroIdiom=*/false);
    EXPECT_TRUE(tier.regTaint(7));
    tier.regWrite(7, 7, 7, /*zeroIdiom=*/true);
    EXPECT_FALSE(tier.regTaint(7));
    EXPECT_FALSE(tier.store(5, 6, dift::kEvChecked, kAddr + 8, 1, 8, 3));
    // Plain store of the tainted register: StoreValue verdict with the
    // op's pc/func threaded through.
    EXPECT_TRUE(tier.store(5, 6, 0, kAddr + 16, 1, 9, 3));
    const dift::Violation *v = tier.shutdown();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, dift::ViolationKind::StoreValue);
    EXPECT_EQ(v->pc, 9);
    EXPECT_EQ(v->func, 3);

    StatSet stats;
    tier.statInto(stats);
    EXPECT_EQ(stats.get("dift.events"), 5u);
    EXPECT_EQ(stats.get("dift.violations"), 1u);
}

// ------------------------------------------------------ end-to-end runs

SessionOptions
asyncOptions(Granularity granularity = Granularity::Byte)
{
    SessionOptions options = shiftOptions(granularity);
    options.async.enabled = true;
    return options;
}

RunResult
runAsyncWithFile(const std::string &source, const std::string &fileText,
                 SessionOptions options)
{
    Session session(source, std::move(options));
    session.os().addFile("input.txt", fileText);
    return session.run();
}

class AsyncGranularityTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(ByteAndWord, AsyncGranularityTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return info.param == Granularity::Byte
                                        ? "byte"
                                        : "word";
                         });

TEST_P(AsyncGranularityTest, FileInputIsTainted)
{
    RunResult r = runAsyncWithFile(
        "int main() {"
        "  char buf[64];"
        "  int fd = open(\"input.txt\", 0);"
        "  int n = read(fd, buf, 64);"
        "  return __mem_tainted(buf) + 2 * (n == 5);"
        "}",
        "hello", asyncOptions(GetParam()));
    EXPECT_EXIT_CODE(r, 3);
    EXPECT_GT(r.stats.get("dift.events"), 0u);
    EXPECT_GT(r.stats.get("dift.fences"), 0u);
}

TEST_P(AsyncGranularityTest, TaintFlowsThroughRegisters)
{
    // Under the async tier the engine's NaT bits are only conservative
    // "maybe tainted" summaries; __arg_tainted consults the tier's
    // shadow register file at the fence, never the maybe bits.
    RunResult r = runAsyncWithFile(
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"input.txt\", 0);"
        "  read(fd, buf, 8);"
        "  int x = buf[0] + 1;"
        "  int y = x * 3;"
        "  return __arg_tainted(y);"
        "}",
        "A", asyncOptions(GetParam()));
    EXPECT_EXIT_CODE(r, 1);
}

TEST_P(AsyncGranularityTest, TaintFlowsBackToMemory)
{
    RunResult r = runAsyncWithFile(
        "char out[8];"
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"input.txt\", 0);"
        "  read(fd, buf, 8);"
        "  out[1] = 'x';"
        "  out[0] = buf[0];"
        "  return __mem_tainted(&out[0]) * 10 + __mem_tainted(&out[1]);"
        "}",
        "A", asyncOptions(GetParam()));
    if (GetParam() == Granularity::Byte)
        EXPECT_EXIT_CODE(r, 10);
    else
        EXPECT_EXIT_CODE(r, 11);
}

TEST(AsyncSession, TaintedPointerDereferenceIsL1)
{
    RunResult r = runAsyncWithFile(
        "int table[4];"
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"input.txt\", 0);"
        "  read(fd, buf, 8);"
        "  return table[buf[0]];"
        "}",
        "\x02", asyncOptions());
    EXPECT_POLICY_KILL(r, "L1");
    EXPECT_GT(r.stats.get("dift.violations"), 0u);
}

TEST(AsyncSession, CleanRunHasNoViolations)
{
    Session session("int main() { return 42; }", asyncOptions());
    RunResult r = session.run();
    EXPECT_EXIT_CODE(r, 42);
    EXPECT_EQ(r.stats.get("dift.violations"), 0u);
}

} // namespace
} // namespace shift
