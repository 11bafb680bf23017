/**
 * @file
 * Differential build test for the prebuilt libc: every Session and
 * SessionTemplate build (application compiled against the libc's
 * signatures, libc spliced in from the process-wide memo after the
 * same passes) must equal the monolithic reference — compileProgram
 * over libc + application, then the passes over the whole program —
 * instruction for instruction, in globals and their layout, and in
 * every pass statistic.
 *
 * The reference is assembled here from the lang and pass entry points
 * directly, not through the runtime, so it shares no splice or memo
 * code with what it checks.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "baseline/software_dift.hh"
#include "core/instrument.hh"
#include "dift/annotate.hh"
#include "lang/compiler.hh"
#include "lang/speculate.hh"
#include "opt/instr_opt.hh"
#include "runtime/minic_stdlib.hh"
#include "runtime/session.hh"
#include "runtime/session_template.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift
{
namespace
{

/** A program with its own policy and relax lists. */
struct Subject
{
    std::string name;
    std::string source;
    SessionOptions options;
};

std::vector<Subject>
subjects()
{
    std::vector<Subject> out;
    for (const workloads::SpecKernel &k : workloads::specKernels()) {
        Subject s{"spec-" + k.shortName, k.source, {}};
        s.options.policy.taintFile = true;
        s.options.instr.relaxLoadFunctions = k.relaxLoadFunctions;
        s.options.instr.relaxStoreFunctions = k.relaxStoreFunctions;
        out.push_back(std::move(s));
    }
    out.push_back({"httpd", workloads::kHttpdSource,
                   workloads::httpdSessionOptions(
                       TrackingMode::Shift, Granularity::Byte, {},
                       ExecEngine::Predecoded)});
    for (const workloads::AttackScenario &a :
         workloads::attackScenarios()) {
        Subject s{"attack-" + a.name, a.source, {}};
        s.options.policy = a.policy;
        s.options.instr.relaxLoadFunctions = a.relaxLoadFunctions;
        out.push_back(std::move(s));
    }
    return out;
}

/** One option set, applied on top of a subject's own options. */
struct Variant
{
    const char *name;
    std::function<void(SessionOptions &)> apply;
};

const std::vector<Variant> &
variants()
{
    static const std::vector<Variant> all = {
        {"none", [](SessionOptions &o) { o.mode = TrackingMode::None; }},
        {"shift-byte",
         [](SessionOptions &o) {
             o.policy.granularity = Granularity::Byte;
         }},
        {"shift-word",
         [](SessionOptions &o) {
             o.policy.granularity = Granularity::Word;
         }},
        {"shift-byte-opt",
         [](SessionOptions &o) {
             o.policy.granularity = Granularity::Byte;
             o.optimize.enable = true;
         }},
        {"shift-word-opt",
         [](SessionOptions &o) {
             o.policy.granularity = Granularity::Word;
             o.optimize.enable = true;
         }},
        {"speculate",
         [](SessionOptions &o) {
             o.speculate = true;
             o.optimize.enable = true;
         }},
        {"speculate-untracked",
         [](SessionOptions &o) {
             o.mode = TrackingMode::None;
             o.speculate = true;
         }},
        {"nat-isa",
         [](SessionOptions &o) {
             o.features.natSetClear = true;
             o.features.natAwareCompare = true;
             o.optimize.enable = true;
         }},
        {"nat-isa-word",
         [](SessionOptions &o) {
             o.policy.granularity = Granularity::Word;
             o.features.natSetClear = true;
             o.features.natAwareCompare = true;
         }},
        {"software-dift",
         [](SessionOptions &o) {
             o.mode = TrackingMode::SoftwareDift;
             o.baseline.checkLoads = true;
             o.baseline.checkStores = true;
         }},
        {"async", [](SessionOptions &o) { o.async.enabled = true; }},
        // Rules naming a libc function change the libc's own code, so
        // each must reach the memo key: every variant below differs
        // from an earlier one (same subject) by that one rule alone.
        {"relax-load-libc",
         [](SessionOptions &o) {
             o.optimize.enable = true;
             o.instr.relaxLoadFunctions.insert("memcpy");
         }},
        {"relax-store-libc",
         [](SessionOptions &o) {
             o.optimize.enable = true;
             o.instr.relaxStoreFunctions.insert("strcpy");
         }},
        {"cmp-alert-libc",
         [](SessionOptions &o) {
             o.optimize.enable = true;
             o.instr.cmpTaintAlertFunctions.insert("strcmp");
         }},
        {"async-relax-load-libc",
         [](SessionOptions &o) {
             o.async.enabled = true;
             o.instr.relaxLoadFunctions.insert("strlen");
         }},
        {"async-cmp-alert-libc",
         [](SessionOptions &o) {
             o.async.enabled = true;
             o.instr.cmpTaintAlertFunctions.insert("strncmp");
         }},
    };
    return all;
}

/** A built program with every pass statistic. */
struct Built
{
    Program program;
    InstrumentStats instr;
    minic::SpeculateStats speculate;
    OptStats opt;
};

/** The monolithic reference pipeline. */
Built
reference(const std::vector<std::string> &modules,
          const SessionOptions &options)
{
    Built b;
    b.program = minic::compileProgram(modules);
    if (options.speculate)
        b.speculate = minic::speculateLoads(b.program,
                                            options.speculateOptions);
    switch (options.mode) {
      case TrackingMode::None:
        break;
      case TrackingMode::Shift: {
        if (options.async.enabled) {
            dift::AnnotateOptions ann;
            ann.instrumentLoads = options.instr.instrumentLoads;
            ann.instrumentStores = options.instr.instrumentStores;
            ann.instrumentCompares = options.instr.instrumentCompares;
            ann.relaxLoadAddress = options.instr.relaxLoadAddress;
            ann.relaxLoadFunctions = options.instr.relaxLoadFunctions;
            ann.relaxStoreFunctions = options.instr.relaxStoreFunctions;
            ann.cmpTaintAlert = options.instr.cmpTaintAlert;
            ann.cmpTaintAlertFunctions =
                options.instr.cmpTaintAlertFunctions;
            dift::AnnotateStats a = dift::annotateForAsync(b.program, ann);
            b.instr.loads = a.checkedLoads + a.relaxedLoads;
            b.instr.stores = a.trackedStores + a.relaxedStores;
            b.instr.compares = a.cmpMarkers;
            b.instr.purifies = a.zeroIdioms;
            b.instr.added = a.cmpMarkers;
            break;
        }
        InstrumentOptions instr = options.instr;
        instr.granularity = options.policy.granularity;
        instr.natSetClear = options.features.natSetClear;
        instr.natAwareCompare = options.features.natAwareCompare;
        b.instr = instrumentProgram(b.program, instr);
        b.opt = optimizeInstrumentation(b.program, options.optimize);
        break;
      }
      case TrackingMode::SoftwareDift: {
        BaselineOptions base = options.baseline;
        base.granularity = options.policy.granularity;
        b.instr = instrumentSoftwareDift(b.program, base);
        break;
      }
    }
    return b;
}

std::string
describe(const InstrumentStats &s)
{
    std::ostringstream o;
    o << "loads=" << s.loads << " stores=" << s.stores
      << " compares=" << s.compares << " purifies=" << s.purifies
      << " added=" << s.added << " originalSize=" << s.originalSize
      << " newSize=" << s.newSize;
    return o.str();
}

std::string
describe(const minic::SpeculateStats &s)
{
    std::ostringstream o;
    o << "candidates=" << s.candidates << " hoisted=" << s.hoisted;
    return o.str();
}

std::string
describe(const OptStats &s)
{
    std::ostringstream o;
    o << "foldsHoisted=" << s.foldsHoisted
      << " foldsElided=" << s.foldsElided
      << " checksElided=" << s.checksElided
      << " updatesElided=" << s.updatesElided
      << " relaxElided=" << s.relaxElided
      << " purifiesElided=" << s.purifiesElided
      << " checksNarrowed=" << s.checksNarrowed
      << " updatesNarrowed=" << s.updatesNarrowed
      << " instrsRemoved=" << s.instrsRemoved
      << " instrsAdded=" << s.instrsAdded
      << " sizeBefore=" << s.sizeBefore << " sizeAfter=" << s.sizeAfter;
    return o.str();
}

/**
 * Empty when `got` equals `want` in every function, instruction
 * field, global, layout address and statistic; else the first
 * difference.
 */
std::string
difference(const Built &want, const Program &got,
           const InstrumentStats &instr,
           const minic::SpeculateStats &speculate, const OptStats &opt)
{
    const Program &w = want.program;
    if (got.entry != w.entry)
        return "entry " + got.entry + " != " + w.entry;
    if (got.functions.size() != w.functions.size()) {
        return "function count " + std::to_string(got.functions.size()) +
               " != " + std::to_string(w.functions.size());
    }
    for (size_t f = 0; f < w.functions.size(); ++f) {
        const Function &gf = got.functions[f];
        const Function &wf = w.functions[f];
        if (gf.name != wf.name)
            return "function " + std::to_string(f) + ": " + gf.name +
                   " != " + wf.name;
        if (gf.nextLabel != wf.nextLabel)
            return wf.name + ": nextLabel differs";
        if (gf.code.size() != wf.code.size()) {
            return wf.name + ": " + std::to_string(gf.code.size()) +
                   " instrs != " + std::to_string(wf.code.size());
        }
        for (size_t i = 0; i < wf.code.size(); ++i) {
            if (!(gf.code[i] == wf.code[i])) {
                return wf.name + " @" + std::to_string(i) + ": '" +
                       disassemble(gf.code[i]) + "' != '" +
                       disassemble(wf.code[i]) + "'";
            }
        }
    }
    if (got.globals.size() != w.globals.size())
        return "global count differs";
    for (size_t g = 0; g < w.globals.size(); ++g) {
        const GlobalDef &a = got.globals[g];
        const GlobalDef &b = w.globals[g];
        if (a.name != b.name || a.size != b.size || a.init != b.init ||
            a.initSymbol != b.initSymbol)
            return "global " + b.name + " differs";
    }
    GlobalLayout la = computeGlobalLayout(got);
    GlobalLayout lb = computeGlobalLayout(w);
    if (la.addr != lb.addr || la.end != lb.end)
        return "global layout differs";
    if (!(instr == want.instr))
        return "InstrumentStats: " + describe(instr) + " != " +
               describe(want.instr);
    if (!(speculate == want.speculate))
        return "SpeculateStats: " + describe(speculate) + " != " +
               describe(want.speculate);
    if (!(opt == want.opt))
        return "OptStats: " + describe(opt) + " != " + describe(want.opt);
    return {};
}

template <typename Build>
std::string
difference(const Built &want, const Build &got)
{
    return difference(want, got.program(), got.instrStats(),
                      got.speculateStats(), got.optStats());
}

TEST(BuildDiff, SessionsMatchTheMonolithicPipeline)
{
    int checked = 0;
    for (const Subject &subject : subjects()) {
        for (const Variant &variant : variants()) {
            SCOPED_TRACE(subject.name + " / " + variant.name);
            SessionOptions options = subject.options;
            variant.apply(options);
            Built want = reference({kMiniCStdlib, subject.source},
                                   options);
            Session session(subject.source, options);
            EXPECT_EQ(difference(want, session), "");
            ++checked;
        }
    }
    EXPECT_EQ(checked, 17 * static_cast<int>(variants().size()));
}

TEST(BuildDiff, TemplatesMatchTheMonolithicPipeline)
{
    for (const Subject &subject : subjects()) {
        for (const char *name : {"shift-byte-opt", "async", "none"}) {
            SCOPED_TRACE(subject.name + " / " + name);
            SessionOptions options = subject.options;
            for (const Variant &v : variants()) {
                if (std::string(v.name) == name)
                    v.apply(options);
            }
            Built want = reference({kMiniCStdlib, subject.source},
                                   options);
            SessionTemplate tmpl(subject.source, options);
            EXPECT_EQ(difference(want, tmpl), "");
        }
    }
}

TEST(BuildDiff, WithoutStdlibTheSourcesAreTheWholeProgram)
{
    // includeStdlib=false bypasses the memo: handing the libc in as an
    // ordinary module must give the same program as the prebuilt path.
    for (const Subject &subject : subjects()) {
        SCOPED_TRACE(subject.name);
        SessionOptions options = subject.options;
        options.optimize.enable = true;
        Built want = reference({kMiniCStdlib, subject.source}, options);
        SessionOptions bare = options;
        bare.includeStdlib = false;
        Session session({kMiniCStdlib, subject.source}, bare);
        EXPECT_EQ(difference(want, session), "");
        Session prebuilt(subject.source, options);
        EXPECT_EQ(difference(want, prebuilt), "");
    }
}

TEST(BuildDiff, ApplicationOnlyProgramsNeedNoLibc)
{
    SessionOptions options;
    options.includeStdlib = false;
    const char *src = "int main() { return 3; }";
    Built want = reference({src}, options);
    Session session(src, options);
    EXPECT_EQ(difference(want, session), "");
    EXPECT_EQ(session.program().functions.size(), 1u);
    EXPECT_EQ(session.run().exitCode, 3);
}

TEST(BuildDiff, ConcurrentBuildsWithDistinctKeysMatch)
{
    // Eight threads build Sessions and SessionTemplates at once, each
    // under option sets no other test uses (distinct speculation
    // distances), so every first build misses the memo and inserts
    // concurrently; 8 x 6 keys also overflow the memo's bound, so
    // eviction races with lookups. Pairs of threads share keys, so
    // two threads can miss on one key at the same moment.
    constexpr int kThreads = 8;
    constexpr int kKeysPerThread = 6;
    const std::vector<Subject> all = subjects();
    auto optionsFor = [&](int thread, int k) {
        SessionOptions options = all[static_cast<size_t>(thread)].options;
        options.speculate = true;
        options.optimize.enable = (k % 2) == 0;
        options.speculateOptions.maxHoistDistance =
            20 + (thread / 2) * kKeysPerThread + k;
        return options;
    };
    std::vector<std::vector<Built>> wants(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        for (int k = 0; k < kKeysPerThread; ++k)
            wants[t].push_back(reference(
                {kMiniCStdlib, all[static_cast<size_t>(t)].source},
                optionsFor(t, k)));
    }

    std::vector<std::vector<std::string>> diffs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string &src = all[static_cast<size_t>(t)].source;
            for (int round = 0; round < 2; ++round) {
                for (int k = 0; k < kKeysPerThread; ++k) {
                    const Built &want = wants[t][static_cast<size_t>(k)];
                    Session session(src, optionsFor(t, k));
                    diffs[t].push_back(difference(want, session));
                    SessionTemplate tmpl(src, optionsFor(t, k));
                    diffs[t].push_back(difference(want, tmpl));
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(diffs[t].size(), 2u * 2 * kKeysPerThread);
        for (const std::string &d : diffs[t])
            EXPECT_EQ(d, "") << "thread " << t;
    }
}

} // namespace
} // namespace shift
