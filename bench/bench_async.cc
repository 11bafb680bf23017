/**
 * @file
 * Async taint tier payoff (see docs/ASYNC-TAINT.md): host time to run
 * the taint-dense SPEC rows with the best synchronous configuration
 * (the fused engine plus the taint-clean fast path) against the async
 * tier, where the engine executes the uninstrumented stream and
 * replays propagation against a shadow bitmap beside it.
 *
 * The fast path is bounded by a workload's taint share — bzip2 sits
 * at ~0.57 and vpr ~0.53 in BENCH_fastpath.json — so those rows are
 * exactly where the async tier should pay: the engine sheds the
 * inline tag work and replays only the ops its maybe-taint filter
 * keeps. The comparable quantity is host CPU seconds inside
 * Machine::run() for the same workload; every row verifies the
 * security observables (exit status, alert count) are identical both
 * ways, and a closing section replays all eight attack scenarios
 * under the tier and requires every one detected.
 *
 * Both arms are single-threaded, so they are timed in thread CPU
 * seconds with benchutil::interleavedRotated; the speedup is the
 * paired median (benchutil::pairedRatio), printed beside each arm's
 * median and interquartile spread.
 *
 * `--smoke` runs only the bzip2 and vpr rows and exits non-zero when
 * fewer than two of them clear 1.2x the synchronous engine — the
 * perf-smoke-async CI tripwire.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "support/stats.hh"
#include "workloads/attacks.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::registerMetricRow;

struct Measurement
{
    uint64_t instructions = 0;
    size_t alerts = 0;
    int64_t exitCode = 0;
    benchutil::ArmSamples samples;
    // Async-only counters (zero on the synchronous side).
    uint64_t events = 0;
    uint64_t fences = 0;

    double seconds() const { return samples.median(); }
    double mips() const
    {
        return seconds() > 0 ? double(instructions) / seconds() / 1e6
                             : 0;
    }
};

struct Row
{
    std::string name;
    Measurement sync;  ///< fused + taint-clean fast path
    Measurement async; ///< async tier, uninstrumented stream

    /** Host-time speedup running the identical workload. */
    double speedup() const
    {
        return benchutil::pairedRatio(async.samples, sync.samples);
    }
};

/** Rounds of the interleaved estimator per row. */
int repeats = 21;

/** One run; checks determinism against `m`, returns CPU seconds. */
double
runOnce(const SpecKernel &kernel, const SpecRunConfig &config,
        Measurement &m)
{
    SpecRun run = runSpecKernel(kernel, config);
    const RunResult &result = run.result;
    if (!result.ok()) {
        std::fprintf(stderr, "bench_async: %s failed (%s: %s)\n",
                     kernel.shortName.c_str(),
                     faultKindName(result.fault.kind),
                     result.fault.detail.c_str());
        std::exit(1);
    }
    if (m.instructions == 0) {
        m.instructions = result.instructions;
        m.alerts = result.alerts.size();
        m.exitCode = result.exitCode;
        m.events = result.stats.get("dift.events");
        m.fences = result.stats.get("dift.fences");
    } else if (result.instructions != m.instructions ||
               result.alerts.size() != m.alerts) {
        std::fprintf(stderr,
                     "bench_async: NON-DETERMINISTIC repeat on %s\n",
                     kernel.shortName.c_str());
        std::exit(1);
    }
    return run.runCpuSeconds;
}

/** Security observables must not move when the tier takes over. */
void
checkIdentity(const Row &row)
{
    if (row.sync.alerts != row.async.alerts ||
        row.sync.exitCode != row.async.exitCode) {
        std::fprintf(stderr,
                     "bench_async: VERDICT MISMATCH on %s: "
                     "%zu alerts/exit %lld sync vs %zu/%lld async\n",
                     row.name.c_str(), row.sync.alerts,
                     (long long)row.sync.exitCode, row.async.alerts,
                     (long long)row.async.exitCode);
        std::exit(1);
    }
}

Row
measureKernel(const std::string &shortName)
{
    const SpecKernel &kernel = specKernel(shortName);
    Row row;
    row.name = "spec/" + shortName;

    SpecRunConfig syncConfig;
    syncConfig.mode = TrackingMode::Shift;
    syncConfig.granularity = Granularity::Byte;
    syncConfig.taintInput = true;
    syncConfig.engine = ExecEngine::Predecoded;
    // Synchronous side: the strongest inline configuration we have —
    // fused taint micro-ops plus the dual-version fast path.
    syncConfig.fastPath = true;

    // Async side: the fast path and the async tier both replace the
    // inline taint tier, so they are mutually exclusive by design.
    SpecRunConfig asyncConfig = syncConfig;
    asyncConfig.fastPath = false;
    asyncConfig.async.enabled = true;

    std::vector<benchutil::ArmSamples> arms = benchutil::interleavedRotated(
        repeats,
        {[&] { return runOnce(kernel, syncConfig, row.sync); },
         [&] { return runOnce(kernel, asyncConfig, row.async); }});
    row.sync.samples = arms[0];
    row.async.samples = arms[1];
    checkIdentity(row);
    return row;
}

/** Every attack must still be detected under the tier. */
void
checkAttacks()
{
    dift::AsyncTaintOptions async;
    async.enabled = true;
    for (const AttackScenario &scenario : attackScenarios()) {
        AttackRun run = runAttackScenario(scenario, true, Granularity::Byte,
                                          ExecEngine::Predecoded, {}, false,
                                          async);
        if (!run.detected) {
            std::fprintf(stderr,
                         "bench_async: attack %s NOT DETECTED under the "
                         "async tier\n",
                         scenario.name.c_str());
            std::exit(1);
        }
    }
}

void
writeJson(const std::vector<Row> &rows)
{
    FILE *f = std::fopen("BENCH_async.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "bench_async: cannot write BENCH_async.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"timing\": \"thread CPU seconds, %d "
                    "interleaved rotated rounds, paired median\",\n"
                    "  \"workloads\": [\n",
                 repeats);
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", "
            "\"mips_sync\": %.2f, \"mips_async\": %.2f, "
            "\"host_speedup\": %.3f, "
            "\"spread_sync\": %.3f, \"spread_async\": %.3f, "
            "\"instrs_sync\": %llu, \"instrs_async\": %llu, "
            "\"events\": %llu, \"fences\": %llu}%s\n",
            r.name.c_str(), r.sync.mips(), r.async.mips(), r.speedup(),
            r.sync.samples.spread(),
            r.async.samples.spread(),
            (unsigned long long)r.sync.instructions,
            (unsigned long long)r.async.instructions,
            (unsigned long long)r.async.events,
            (unsigned long long)r.async.fences,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_async.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    std::printf("\n=== Async taint tier: host CPU time, sync fast-path "
                "engine vs async tier ===\n");
    std::printf("%-12s %11s %11s %9s %9s %9s\n", "workload",
                "MIPS sync", "MIPS async", "speedup", "IQR sync",
                "IQR async");
    benchutil::rule(76);

    // The floor rows are the taint-dense kernels where the fast path
    // is bounded by taint share; the full run covers every kernel so
    // the trajectory records where the tier does NOT pay too.
    std::vector<std::string> names = {"bzip2", "vpr"};
    if (!smoke) {
        names.clear();
        for (const SpecKernel &kernel : specKernels())
            names.push_back(kernel.shortName);
    }

    std::vector<Row> rows;
    for (const std::string &name : names)
        rows.push_back(measureKernel(name));

    for (const Row &r : rows) {
        std::printf("%-12s %11.1f %11.1f %8.2fx %8.1f%% %8.1f%%\n",
                    r.name.c_str(), r.sync.mips(), r.async.mips(),
                    r.speedup(), 100.0 * r.sync.samples.spread(),
                    100.0 * r.async.samples.spread());
        registerMetricRow("async/" + r.name,
                          {{"mips_sync", r.sync.mips()},
                           {"mips_async", r.async.mips()},
                           {"host_speedup_X", r.speedup()}});
    }
    benchutil::rule(76);
    std::printf("(speedup = median over %d interleaved rotated rounds of "
                "the paired time ratio; MIPS from each arm's median; "
                "verdicts verified identical on every row)\n",
                repeats);

    checkAttacks();
    std::printf("all 8 attacks detected under the async tier\n\n");

    writeJson(rows);

    if (smoke) {
        int cleared = 0;
        for (const Row &r : rows)
            cleared += r.speedup() >= 1.2;
        if (cleared < 2) {
            for (const Row &r : rows) {
                std::fprintf(stderr,
                             "perf-smoke-async: %s %.2fx\n",
                             r.name.c_str(), r.speedup());
            }
            std::fprintf(stderr,
                         "perf-smoke-async FAIL: only %d taint-dense "
                         "row(s) cleared 1.2x over the synchronous "
                         "engine (need 2)\n",
                         cleared);
            return 1;
        }
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
