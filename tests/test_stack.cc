/**
 * @file
 * The demand-zero stack window [kStackBase, kStackBase + kStackSize):
 * untouched pages read as zero without being mapped up front, the
 * window's edges fault, a guest that outgrows it ends in a guest
 * fault on every execution tier, and clones keep their stacks
 * private.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "jit_test_util.hh"
#include "lang/compiler.hh"
#include "mem/memory.hh"
#include "runtime/session.hh"
#include "runtime/session_template.hh"
#include "session_helpers.hh"

namespace shift
{
namespace
{

using testutil::shiftOptions;

constexpr uint64_t kStackEnd = kStackBase + kStackSize;

TEST(StackWindow, UntouchedPagesAreMappedButNotAllocated)
{
    Memory mem;
    for (uint64_t addr : {kStackBase, kStackBase + kStackSize / 2,
                          kStackEnd - 1}) {
        EXPECT_TRUE(mem.isMapped(addr)) << std::hex << addr;
        EXPECT_EQ(mem.probe(addr, 1), MemFault::None) << std::hex << addr;
    }
    EXPECT_EQ(mem.probe(kStackBase, 8), MemFault::None);
    EXPECT_EQ(mem.probe(kStackEnd - 8, 8), MemFault::None);
    // Asking costs nothing: no page is allocated by isMapped/probe.
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(StackWindow, AddressesJustOutsideFault)
{
    Memory mem;
    EXPECT_FALSE(mem.isMapped(kStackBase - 1));
    EXPECT_FALSE(mem.isMapped(kStackEnd));
    EXPECT_EQ(mem.probe(kStackBase - 8, 8), MemFault::Unmapped);
    EXPECT_EQ(mem.probe(kStackEnd, 8), MemFault::Unmapped);
    // Straddling either edge faults as a whole.
    EXPECT_EQ(mem.probe(kStackBase - 4, 8), MemFault::Unmapped);
    EXPECT_EQ(mem.probe(kStackEnd - 4, 8), MemFault::Unmapped);

    uint64_t v = 0;
    EXPECT_EQ(mem.read(kStackBase - 8, 8, v), MemFault::Unmapped);
    EXPECT_EQ(mem.write(kStackEnd, 8, 1), MemFault::Unmapped);
    EXPECT_EQ(mem.write(kStackEnd - 4, 8, 1), MemFault::Unmapped);
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(StackWindow, UntouchedReadsReturnZeroAndAllocateOnePage)
{
    Memory mem;
    uint64_t v = 1;
    ASSERT_EQ(mem.read(kStackBase + 12345, 8, v), MemFault::None);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(mem.pageCount(), 1u);
    ASSERT_EQ(mem.write(kStackEnd - 8, 8, 0xabcd), MemFault::None);
    ASSERT_EQ(mem.read(kStackEnd - 8, 8, v), MemFault::None);
    EXPECT_EQ(v, 0xabcdu);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(StackWindow, MachineMapsNoStackUpFront)
{
    Program program = minic::compileProgram("int main() { return 0; }");
    Machine machine(program);
    // Globals only: the 1,024-page stack is no longer mapped eagerly.
    EXPECT_LT(machine.memory().pageCount(), 4u);
    EXPECT_EQ(machine.run().exitCode, 0);
    EXPECT_LT(machine.memory().pageCount(), 16u);
}

/** Reads a local array before writing it: every slot starts zero. */
const char *const kUntouchedSource =
    "long sum_untouched() {\n"
    "  long buf[20000];\n"
    "  long s = 0;\n"
    "  for (int i = 5; i < 20000; i += 97) s += buf[i];\n"
    "  buf[5] = 77;\n"
    "  return s;\n"
    "}\n"
    "int main() { return (int)sum_untouched(); }\n";

/** Each frame holds 64 KB, so ~64 frames exhaust the 4 MB window. */
const char *const kDeepSource =
    "long deep(long n) {\n"
    "  char buf[65536];\n"
    "  buf[0] = (char)n;\n"
    "  buf[65535] = (char)n;\n"
    "  return deep(n + 1) + buf[0];\n"
    "}\n"
    "int main() { return (int)deep(0); }\n";

struct Tier
{
    const char *name;
    bool fastPath;
    bool jit;
};

const Tier kTiers[] = {
    {"interpreter", false, false},
    {"fast-path", true, false},
    {"jit", false, true},
    {"fast-path+jit", true, true},
};

SessionOptions
tierOptions(const Tier &tier)
{
    SessionOptions options = shiftOptions();
    options.fastPath = tier.fastPath;
    options.jit = tier.jit;
    options.jitThreshold = jittest::kEager;
    return options;
}

TEST(StackWindow, UntouchedStackReadsZeroOnEveryTier)
{
    for (const Tier &tier : kTiers) {
        if (tier.jit && !Machine::jitAvailable())
            continue;
        Session session(kUntouchedSource, tierOptions(tier));
        RunResult r = session.run();
        EXPECT_EXIT_CODE(r, 0);
    }
}

TEST(StackWindow, OverflowIsAGuestFaultOnEveryTier)
{
    for (const Tier &tier : kTiers) {
        if (tier.jit && !Machine::jitAvailable())
            continue;
        SCOPED_TRACE(tier.name);
        Session session(kDeepSource, tierOptions(tier));
        RunResult r = session.run();
        EXPECT_FALSE(r.exited);
        EXPECT_EQ(r.fault.kind, FaultKind::IllegalAddress)
            << r.fault.detail;
        EXPECT_EQ(regionOf(r.fault.addr), kStackRegion)
            << std::hex << r.fault.addr;
        // Below the window, not the call-depth guard's fault: the
        // window stopped the guest.
        EXPECT_LT(r.fault.addr, kStackBase) << std::hex << r.fault.addr;
    }
}

TEST(StackWindow, OverflowFaultsIdenticallyWithAndWithoutTheJit)
{
    if (!Machine::jitAvailable())
        GTEST_SKIP() << "JIT backend unavailable on this host";
    Session interp(kDeepSource, tierOptions(kTiers[0]));
    Session jit(kDeepSource, tierOptions(kTiers[2]));
    RunResult a = interp.run();
    RunResult b = jit.run();
    EXPECT_EQ(a.fault.kind, b.fault.kind);
    EXPECT_EQ(a.fault.addr, b.fault.addr);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(StackWindow, CloneStackWritesStayPrivate)
{
    SessionTemplate tmpl(kUntouchedSource, shiftOptions());
    tmpl.freeze();
    Memory empty;
    uint64_t emptyStack = empty.contentHash(kStackRegion);

    // A clone that has run holds its own stack pages...
    auto first = tmpl.instantiate();
    EXPECT_EQ(first->machine().memory().contentHash(kStackRegion),
              emptyStack);
    RunResult firstRun = first->run();
    EXPECT_EXIT_CODE(firstRun, 0);
    EXPECT_NE(first->machine().memory().contentHash(kStackRegion),
              emptyStack);

    // ...which neither the template nor any sibling sees: each later
    // clone starts from a zero stack and reads zeros where the first
    // one wrote 77, also when the siblings run concurrently.
    auto later = tmpl.instantiate();
    EXPECT_EQ(later->machine().memory().contentHash(kStackRegion),
              emptyStack);
    constexpr int kSiblings = 4;
    std::vector<RunResult> results(kSiblings);
    std::vector<std::thread> threads;
    for (int i = 0; i < kSiblings; ++i) {
        threads.emplace_back([&, i] {
            auto clone = tmpl.instantiate();
            results[i] = clone->run();
        });
    }
    for (auto &t : threads)
        t.join();
    for (const RunResult &r : results)
        EXPECT_EXIT_CODE(r, 0);
    RunResult laterRun = later->run();
    EXPECT_EXIT_CODE(laterRun, 0);
}

} // namespace
} // namespace shift
