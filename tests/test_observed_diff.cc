/**
 * @file
 * Differential suite for the observed interpreter instantiation.
 *
 * The flight recorder, the tier-attribution profiler and the forced
 * observed dispatch (Machine::setObsDispatchForced) all run the same
 * kObserved runDecoded instantiation, each gating its own work on its
 * pointer at run time. Observing must never change what the machine
 * computes: every workload — 8 SPEC kernels, httpd and the 8 attack
 * scenarios (exploit and benign input) — runs plain and under each
 * observed configuration, synchronously and under the async taint
 * tier, and must agree on verdict, exit, fault, cycles, instructions,
 * the taint-bitmap hash, responses and every stat outside the obs.*
 * and prof.* families (which only observed runs emit).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "session_helpers.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift
{
namespace
{

using workloads::AttackScenario;
using workloads::attackScenarios;
using workloads::httpdSessionOptions;
using workloads::kHttpdRequest;
using workloads::kHttpdSource;
using workloads::provisionHttpdOs;
using workloads::SpecKernel;
using workloads::specKernels;

enum class Observe
{
    Plain,
    Recorder,
    Profiler,
    RecorderProfiler,
    Forced,
};

constexpr Observe kObserved[] = {Observe::Recorder, Observe::Profiler,
                                 Observe::RecorderProfiler,
                                 Observe::Forced};

const char *
observeName(Observe how)
{
    switch (how) {
      case Observe::Plain: return "plain";
      case Observe::Recorder: return "recorder";
      case Observe::Profiler: return "profiler";
      case Observe::RecorderProfiler: return "recorder+profiler";
      case Observe::Forced: return "forced-dispatch";
    }
    return "?";
}

struct Outcome
{
    RunResult result;
    uint64_t tagHash = 0;
    std::vector<std::string> responses;
};

/** Recorder on for one run; off again before the next. */
struct ScopedRecorder
{
    ScopedRecorder() { obs::Recorder::enable(); }
    ~ScopedRecorder() { obs::Recorder::disable(); }
};

Outcome
runObserved(const std::string &source, SessionOptions options,
            const std::function<void(Session &)> &setup, Observe how)
{
    bool record = how == Observe::Recorder ||
                  how == Observe::RecorderProfiler;
    options.profile =
        how == Observe::Profiler || how == Observe::RecorderProfiler;
    // Declared before the session so the session dies first.
    std::optional<ScopedRecorder> recorder;
    if (record)
        recorder.emplace();
    Session session(source, options);
    setup(session);
    if (how == Observe::Forced)
        session.machine().setObsDispatchForced(true);
    Outcome out;
    out.result = session.run();
    out.tagHash = session.machine().memory().contentHash(kTagRegion);
    out.responses = session.os().responses();
    // The configuration really ran observed.
    if (record) {
        EXPECT_GT(out.result.stats.get("obs.events"), 0u);
    }
    if (options.profile) {
        EXPECT_GT(out.result.stats.get("prof.total.nanos"), 0u);
    }
    return out;
}

bool
observedFamily(const std::string &name)
{
    return name.rfind("obs.", 0) == 0 || name.rfind("prof.", 0) == 0;
}

std::map<std::string, std::string>
comparableStats(const StatSet &stats)
{
    std::map<std::string, std::string> out;
    stats.forEach([&](const std::string &name, uint64_t value) {
        if (!observedFamily(name))
            out["counter " + name] = std::to_string(value);
    });
    stats.forEachGauge([&](const std::string &name, uint64_t value) {
        if (!observedFamily(name))
            out["gauge " + name] = std::to_string(value);
    });
    stats.forEachHistogram(
        [&](const std::string &name, const Histogram &h) {
            if (!observedFamily(name))
                out["histogram " + name] = std::to_string(h.count()) +
                                           "/" + std::to_string(h.sum());
        });
    return out;
}

void
expectSame(const Outcome &plain, const Outcome &obs,
           const std::string &what)
{
    const RunResult &a = plain.result;
    const RunResult &b = obs.result;
    EXPECT_EQ(a.exited, b.exited) << what;
    EXPECT_EQ(a.exitCode, b.exitCode) << what;
    EXPECT_EQ(a.killedByPolicy, b.killedByPolicy) << what;
    EXPECT_EQ(a.fault.kind, b.fault.kind) << what;
    EXPECT_EQ(a.fault.context, b.fault.context) << what;
    EXPECT_EQ(a.fault.function, b.fault.function) << what;
    EXPECT_EQ(a.fault.pc, b.fault.pc) << what;
    EXPECT_EQ(a.fault.addr, b.fault.addr) << what;
    EXPECT_EQ(a.fault.detail, b.fault.detail) << what;
    ASSERT_EQ(a.alerts.size(), b.alerts.size()) << what;
    for (size_t i = 0; i < a.alerts.size(); ++i) {
        EXPECT_EQ(a.alerts[i].policy, b.alerts[i].policy) << what;
        EXPECT_EQ(a.alerts[i].message, b.alerts[i].message) << what;
        EXPECT_EQ(a.alerts[i].function, b.alerts[i].function) << what;
        EXPECT_EQ(a.alerts[i].pc, b.alerts[i].pc) << what;
    }
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(plain.tagHash, obs.tagHash) << what << ": taint bitmap";
    EXPECT_EQ(plain.responses, obs.responses) << what;

    std::map<std::string, std::string> sa = comparableStats(a.stats);
    std::map<std::string, std::string> sb = comparableStats(b.stats);
    for (const auto &[name, value] : sa)
        EXPECT_EQ(sb[name], value) << what << ": " << name;
    for (const auto &[name, value] : sb)
        EXPECT_EQ(sa[name], value) << what << ": " << name;
}

/** Run `source` plain and under every observed configuration. */
void
checkAllObserved(const std::string &source, const SessionOptions &options,
                 const std::function<void(Session &)> &setup,
                 const std::string &what)
{
    Outcome plain = runObserved(source, options, setup, Observe::Plain);
    for (Observe how : kObserved)
        expectSame(plain, runObserved(source, options, setup, how),
                   what + " " + observeName(how));
}

class ObservedDiffTest : public ::testing::TestWithParam<bool>
{
  protected:
    bool async() const { return GetParam(); }

    SessionOptions
    tierOptions(SessionOptions options) const
    {
        if (async()) {
            options.fastPath = false;
            options.async.enabled = true;
        }
        return options;
    }

    std::string tierName() const { return async() ? "async" : "sync"; }
};

INSTANTIATE_TEST_SUITE_P(Tiers, ObservedDiffTest,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "async" : "sync";
                         });

TEST_P(ObservedDiffTest, SpecKernels)
{
    for (const SpecKernel &kernel : specKernels()) {
        SessionOptions options = testutil::shiftOptions(Granularity::Byte);
        options.policy.taintFile = true;
        options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
        options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
        checkAllObserved(
            kernel.source, tierOptions(options),
            [&](Session &s) {
                s.os().addFile("input.dat",
                               kernel.makeInput(kernel.defaultScale));
            },
            kernel.shortName + " " + tierName());
    }
}

TEST_P(ObservedDiffTest, Httpd)
{
    SessionOptions options = httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte, {}, ExecEngine::Predecoded);
    // The sync arm serves through the fast tier, so its emit sites run
    // too; the async tier excludes it.
    options.fastPath = true;
    checkAllObserved(
        kHttpdSource, tierOptions(options),
        [](Session &s) {
            provisionHttpdOs(s.os(), 512);
            for (int i = 0; i < 5; ++i)
                s.os().queueConnection(kHttpdRequest);
        },
        "httpd " + tierName());
}

TEST_P(ObservedDiffTest, Attacks)
{
    for (const AttackScenario &scenario : attackScenarios()) {
        SessionOptions options;
        options.mode = TrackingMode::Shift;
        options.policy = scenario.policy;
        options.policy.granularity = Granularity::Byte;
        options.instr.relaxLoadFunctions = scenario.relaxLoadFunctions;
        options = tierOptions(options);
        checkAllObserved(scenario.source, options, scenario.setupExploit,
                         scenario.name + " exploit " + tierName());
        checkAllObserved(scenario.source, options, scenario.setupBenign,
                         scenario.name + " benign " + tierName());
    }
}

} // namespace
} // namespace shift
