/**
 * @file
 * JIT tier unit tests: the copy-and-patch host-code compiler for hot
 * superblocks (src/jit, docs/JIT.md).
 *
 * This binary covers the tier's machinery — promotion, the deopt
 * protocol's edge cases, the code-cache byte budget, stats merge and
 * fleet sharing. The broad workload differentials (SPEC, httpd, the
 * attack suite) live in test_jit_diff.cc; both use the exact-equality
 * harness in jit_test_util.hh.
 *
 * Every behavioural test skips on hosts/builds where the backend is
 * unavailable (non-x86-64, -DSHIFT_ENABLE_JIT=OFF); the no-op and
 * merge tests run everywhere.
 */

#include <gtest/gtest.h>

#include <string>

#include "jit_test_util.hh"
#include "runtime/session_template.hh"
#include "session_helpers.hh"
#include "svc/fleet.hh"
#include "workloads/httpd.hh"

namespace shift
{
namespace
{

using jittest::captureRun;
using jittest::DiffRun;
using jittest::expectIdentical;
using jittest::kCleanSource;
using jittest::kEager;
using workloads::httpdSessionOptions;
using workloads::kHttpdRequest;
using workloads::kHttpdSource;
using workloads::provisionHttpdOs;

// ---------------------------------------------------------------------
// Smoke: the tier compiles, executes, and changes nothing observable.
// ---------------------------------------------------------------------

TEST(JitTier, OffByDefaultCountsAreZero)
{
    Session session(kCleanSource,
                    testutil::shiftOptions(Granularity::Byte));
    RunResult result = session.run();
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(session.machine().jitCompiled(), 0u);
    EXPECT_EQ(session.machine().jitEntered(), 0u);
    EXPECT_EQ(result.stats.get("jit.compiled"), 0u);
    EXPECT_EQ(result.stats.get("jit.entered"), 0u);
}

TEST(JitTier, CompilesEntersAndMatchesInterpreter)
{
    SKIP_WITHOUT_JIT();
    DiffRun runs[2];
    uint64_t compiled = 0;
    for (bool jitOn : {false, true}) {
        SessionOptions options = testutil::shiftOptions(Granularity::Byte);
        options.jit = jitOn;
        options.jitThreshold = kEager;
        Session session(kCleanSource, options);
        runs[jitOn] = captureRun(session);
        if (jitOn)
            compiled = session.machine().jitCompiled();
    }
    EXPECT_TRUE(runs[0].result.exited);
    expectIdentical(runs[0], runs[1], "clean kernel");
    EXPECT_GT(compiled, 0u) << "threshold 1 must promote something";
    EXPECT_GT(runs[1].jitEntered, 0u) << "compiled code never ran";
    EXPECT_GT(runs[1].result.stats.get("jit.compiled"), 0u);
    EXPECT_GT(runs[1].result.stats.get("jit.entered"), 0u);
    EXPECT_GT(runs[1].result.stats.get("jit.codeBytes"), 0u)
        << "the stable schema reports the cache's live code bytes";
}

TEST(JitTier, UnavailableBackendIsASilentNoOp)
{
    if (Machine::jitAvailable())
        GTEST_SKIP() << "backend present: no-op path not reachable";
    SessionOptions options = testutil::shiftOptions(Granularity::Byte);
    options.jit = true;
    options.jitThreshold = kEager;
    Session session(kCleanSource, options);
    RunResult result = session.run();
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(session.machine().jitEntered(), 0u);
    EXPECT_EQ(result.stats.get("jit.entered"), 0u);
}

TEST(JitTier, StepLimitStopsAtTheSameInstruction)
{
    SKIP_WITHOUT_JIT();
    // A budget that lands mid-run exercises the compiled blocks'
    // up-front budget debit and the refund stubs: the jit-on run must
    // stop having retired exactly as many instructions.
    DiffRun runs[2];
    for (bool jitOn : {false, true}) {
        SessionOptions options = testutil::shiftOptions(Granularity::Byte);
        options.maxSteps = 5000;
        options.jit = jitOn;
        options.jitThreshold = kEager;
        Session session(kCleanSource, options);
        runs[jitOn] = captureRun(session);
    }
    EXPECT_FALSE(runs[0].result.exited)
        << "budget chosen to stop mid-run";
    expectIdentical(runs[0], runs[1], "step-limited");
}

// ---------------------------------------------------------------------
// Deopt protocol edge cases (docs/FAST-PATH.md state map, compiled).
// ---------------------------------------------------------------------

DiffRun
runTainted(const std::string &source, bool jitOn,
           const std::string &input)
{
    SessionOptions options = testutil::shiftOptions(Granularity::Byte);
    options.fastPath = true;
    options.jit = jitOn;
    options.jitThreshold = kEager;
    Session session(source, options);
    session.os().addFile("input.dat", input);
    return captureRun(session);
}

/**
 * The loop body's FIRST fused group is the tainted load: its probe
 * fails on block entry, so the compiled block deopts having retired
 * nothing — exercising the refund of the entire up-front budget debit
 * and the state map at the block's first instruction.
 */
TEST(JitDeopt, AtTheFirstFusedGroup)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[256];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 64);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int i = 0; i < n; i++) sum += buf[i];\n"
        "  return (int)(sum & 127);\n"
        "}\n";
    DiffRun off = runTainted(src, false, std::string(48, 'a'));
    DiffRun on = runTainted(src, true, std::string(48, 'a'));
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u);
    expectIdentical(off, on, "deopt at first group");
    EXPECT_GT(on.jitDeopts, 0u)
        << "the deopt must be taken from inside compiled code";
}

/**
 * The loop body loads only clean globals; its LAST fused group is a
 * store into a tag line dirtied by earlier tainted input. The store
 * probe fails after every prior group already executed — the deopt
 * resumes the interpreter at the block's final instruction with all
 * earlier charges already folded.
 */
TEST(JitDeopt, AtTheLastFusedGroup)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[256];\n"
        "char src[256];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 32);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int i = 0; i < 32; i++) {\n"
        "    sum += src[i];\n"   // clean load first
        "    buf[i] = (char)i;\n" // store into the dirtied tag line last
        "  }\n"
        "  return (int)((sum + n) & 127);\n"
        "}\n";
    DiffRun off = runTainted(src, false, std::string(32, 'b'));
    DiffRun on = runTainted(src, true, std::string(32, 'b'));
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u);
    expectIdentical(off, on, "deopt at last group");
    EXPECT_GT(on.jitDeopts, 0u);
}

/**
 * The deopting block is the else-arm of a conditional inside the
 * loop: compiled code reaches it through a block-to-block chained
 * jump (loop head -> compare -> branch), not through the function's
 * JIT entry point. The deopt's interpreter resume pc is therefore a
 * pc the dispatcher never saw this entry.
 */
TEST(JitDeopt, InsideABlockEnteredViaChainedJump)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[256];\n"
        "char clean[256];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 64);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int i = 0; i < 64; i++) {\n"
        "    if (i & 1) sum += clean[i];\n"
        "    else sum += buf[i];\n"
        "  }\n"
        "  return (int)((sum + n) & 127);\n"
        "}\n";
    DiffRun off = runTainted(src, false, std::string(64, 'c'));
    DiffRun on = runTainted(src, true, std::string(64, 'c'));
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u);
    expectIdentical(off, on, "deopt via chained jump");
    EXPECT_GT(on.jitDeopts, 0u);
}

/**
 * Cold demotion: a block that deopts every time it is entered crosses
 * kFpColdDeopts and is demoted — after which compiled chain jumps
 * must take the cold-bail edge to the slow stream exactly as the
 * interpreter's coldHead() does. Every fastpath.* counter (enters,
 * deopts, coldBails) must agree bit-for-bit.
 */
TEST(JitDeopt, ColdDemotionAgreesWithInterpreter)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[4096];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 4096);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int r = 0; r < 8; r++)\n"
        "    for (int i = 0; i < n; i++) sum += buf[i];\n"
        "  return (int)(sum & 127);\n"
        "}\n";
    std::string input(4096, 'd');
    DiffRun off = runTainted(src, false, input);
    DiffRun on = runTainted(src, true, input);
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GE(off.result.stats.get("fastpath.deopts"), 8u)
        << "every pass over tainted data must deopt until demotion";
    EXPECT_GT(off.result.stats.get("fastpath.coldBails"), 0u)
        << "the hot loop must get demoted";
    expectIdentical(off, on, "cold demotion");
}

/**
 * Deopt sweep: one loop block whose body carries four elided fused
 * groups (four distinct arrays), with the tainted array — and so the
 * failing probe's pc — moved across every group position in turn.
 * Together with the first/last/chained cases above this exercises the
 * mid-block state map at every elided-group pc the block has.
 */
TEST(JitDeopt, SweepAcrossEveryElidedGroupPc)
{
    SKIP_WITHOUT_JIT();
    const char *arrays[4] = {"a0", "a1", "a2", "a3"};
    for (int tainted = 0; tainted < 4; ++tainted) {
        std::string src =
            "char a0[64];\nchar a1[64];\nchar a2[64];\nchar a3[64];\n"
            "int main() {\n"
            "  int fd = open(\"input.dat\", 0);\n"
            "  int n = read(fd, " +
            std::string(arrays[tainted]) +
            ", 64);\n"
            "  close(fd);\n"
            "  long sum = 0;\n"
            "  for (int i = 0; i < 64; i++) {\n"
            "    sum += a0[i];\n"
            "    sum += a1[i];\n"
            "    sum += a2[i];\n"
            "    sum += a3[i];\n"
            "  }\n"
            "  return (int)((sum + n) & 127);\n"
            "}\n";
        std::string what =
            std::string("deopt sweep: tainted ") + arrays[tainted];
        DiffRun off = runTainted(src, false, std::string(64, 'e'));
        DiffRun on = runTainted(src, true, std::string(64, 'e'));
        EXPECT_TRUE(off.result.exited)
            << what << ": " << off.result.fault.detail;
        EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u) << what;
        expectIdentical(off, on, what);
        EXPECT_GT(on.jitDeopts, 0u) << what;
    }
}

// ---------------------------------------------------------------------
// Code-cache byte budget: flush-when-full eviction (docs/JIT.md).
// ---------------------------------------------------------------------

/**
 * A budget a fraction of one compiled function forces a flush on
 * nearly every publication: functions keep evicting each other and
 * re-crossing the (eager) threshold. Execution must be unchanged —
 * eviction only unpublishes buffers, it never invalidates running
 * code or simulated state — and the eviction counter must surface in
 * the stable schema.
 */
TEST(JitCache, EvictionUnderATinyBudgetStaysCorrect)
{
    SKIP_WITHOUT_JIT();
    std::string src;
    for (int f = 0; f < 6; ++f) {
        std::string n = std::to_string(f);
        src += "int f" + n + "(int x) { int s = 0;"
               " for (int i = 0; i < x; i++) s += i + " + n + ";"
               " return s; }\n";
    }
    src += "int main() {\n  int s = 0;\n"
           "  for (int r = 0; r < 4; r++) {\n";
    for (int f = 0; f < 6; ++f)
        src += "    s += f" + std::to_string(f) + "(50);\n";
    src += "  }\n  return s & 127;\n}\n";

    DiffRun runs[2];
    uint64_t evictions = 0;
    for (bool jitOn : {false, true}) {
        SessionOptions options =
            testutil::shiftOptions(Granularity::Byte);
        options.jit = jitOn;
        options.jitThreshold = kEager;
        options.jitCacheBytes = 2048;
        Session session(src, options);
        runs[jitOn] = captureRun(session);
        if (jitOn)
            evictions = session.machine().jitEvictions();
    }
    EXPECT_TRUE(runs[0].result.exited) << runs[0].result.fault.detail;
    expectIdentical(runs[0], runs[1], "tiny code cache");
    EXPECT_GT(evictions, 0u)
        << "six hot functions cannot fit a 2 KiB budget";
    EXPECT_GT(runs[1].result.stats.get("jit.evictions"), 0u);
    EXPECT_GT(runs[1].jitEntered, 0u)
        << "churn must not stop compiled code from running";
}

// ---------------------------------------------------------------------
// Satellite: jit.* counters through StatSet merge (fleet aggregation
// path) — merging is associative, so worker join order is irrelevant.
// ---------------------------------------------------------------------

TEST(JitStats, MergeIsAssociativeOverJitCounters)
{
    auto make = [](uint64_t compiled, uint64_t entered, uint64_t deopts,
                   uint64_t bailouts) {
        StatSet s;
        s.add("jit.compiled", compiled);
        s.add("jit.entered", entered);
        s.add("jit.deopts", deopts);
        s.add("jit.bailouts", bailouts);
        s.add("engine.instrs.total", entered * 100);
        return s;
    };
    StatSet a = make(3, 1000, 7, 2);
    StatSet b = make(0, 250, 0, 1);
    StatSet c = make(5, 0, 31, 0);

    StatSet leftFirst = a; // (a + b) + c
    leftFirst.merge(b);
    leftFirst.merge(c);
    StatSet rightFirst = b; // a + (b + c)
    rightFirst.merge(c);
    StatSet result = a;
    result.merge(rightFirst);

    EXPECT_EQ(leftFirst.dump(), result.dump());
    EXPECT_EQ(result.get("jit.compiled"), 8u);
    EXPECT_EQ(result.get("jit.entered"), 1250u);
    EXPECT_EQ(result.get("jit.deopts"), 38u);
    EXPECT_EQ(result.get("jit.bailouts"), 3u);
}

// ---------------------------------------------------------------------
// Fleet: clones share the template's compiled code read-only.
// ---------------------------------------------------------------------

TEST(JitFleet, TemplateSharesCompiledCodeAcrossClones)
{
    SKIP_WITHOUT_JIT();
    SessionOptions options = httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte, {},
        ExecEngine::Predecoded);
    options.fastPath = true;
    options.jit = true;
    options.jitThreshold = kEager;
    SessionTemplate tmpl(std::string(kHttpdSource), std::move(options));
    provisionHttpdOs(tmpl.os(), 512);

    std::vector<svc::FleetJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back({i, {kHttpdRequest}});
    svc::Fleet fleet(tmpl, {.workers = 4});
    svc::FleetReport report = fleet.serve(jobs);

    EXPECT_TRUE(report.allOk);
    EXPECT_EQ(report.requests, 8u);
    EXPECT_GT(report.jitBlocksEntered, 0u);
    EXPECT_GT(report.stats.get("jit.compiled"), 0u);
    EXPECT_EQ(report.jitBlocksEntered, report.stats.get("jit.entered"));
    EXPECT_EQ(report.jitDeopts, report.stats.get("jit.deopts"));

    // Determinism across the pool: every clone served the same
    // request, so every clone must produce the same response bytes.
    ASSERT_EQ(report.jobResults.size(), 8u);
    for (const auto &jr : report.jobResults) {
        ASSERT_EQ(jr.responses.size(), 1u);
        EXPECT_EQ(jr.responses[0], report.jobResults[0].responses[0]);
    }
}

/**
 * Concurrent compile/eviction torture, sized for the TSan build: four
 * fleet workers hammer one shared code cache while (a) whichever
 * clone crosses a function's threshold compiles it synchronously and
 * publishes it to the others, and (b) a budget a fraction of the
 * working set forces flush-when-full evictions under all of it, so
 * functions keep re-crossing the threshold and recompiling while
 * other clones run the evicted bodies. Any unfenced access to the
 * publication slots, hotness counters or owned-buffer list is a TSan
 * report; without TSan this still asserts the fleet serves correctly
 * and deterministically through the churn.
 */
TEST(JitFleet, ConcurrentSyncCompileAndEvictionRaces)
{
    SKIP_WITHOUT_JIT();
    SessionOptions options = httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte, {},
        ExecEngine::Predecoded);
    options.fastPath = true;
    options.jit = true;
    options.jitThreshold = kEager;
    options.jitCacheBytes = 8192; // a fraction of the hot working set
    SessionTemplate tmpl(std::string(kHttpdSource), std::move(options));
    provisionHttpdOs(tmpl.os(), 512);

    std::vector<svc::FleetJob> jobs;
    for (int i = 0; i < 16; ++i)
        jobs.push_back({i, {kHttpdRequest, kHttpdRequest}});
    svc::Fleet fleet(tmpl, {.workers = 4});
    svc::FleetReport report = fleet.serve(jobs);

    EXPECT_TRUE(report.allOk);
    EXPECT_EQ(report.requests, 32u);
    EXPECT_GT(report.stats.get("jit.compiled"), 0u);
    EXPECT_GT(report.stats.get("jit.evictions"), 0u)
        << "the 8 KiB budget must force flushes under the workers";
    EXPECT_GT(report.jitBlocksEntered, 0u);
    ASSERT_EQ(report.jobResults.size(), 16u);
    for (const auto &jr : report.jobResults) {
        ASSERT_EQ(jr.responses.size(), 2u);
        EXPECT_EQ(jr.responses[0], report.jobResults[0].responses[0]);
        EXPECT_EQ(jr.responses[1], jr.responses[0]);
    }
}

} // namespace
} // namespace shift
