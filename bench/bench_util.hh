/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Each bench binary reproduces one table or figure of the paper: it
 * runs the relevant simulations once, prints the paper-style table
 * (simulated-cycle ratios — the substrate is a simulator, so relative
 * numbers are the result), and then registers google-benchmark rows
 * that expose the measured metrics as counters.
 */

#ifndef SHIFT_BENCH_BENCH_UTIL_HH
#define SHIFT_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/cpu_time.hh"

namespace shift::benchutil
{

/** Geometric mean of a vector of ratios. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

/**
 * Host-throughput sampling discipline, shared by the MIPS benches
 * (bench_interp, bench_jit): how many back-to-back runs one timed
 * sample must aggregate so it retires at least `floorInstrs`
 * simulated instructions. A short workload (the 5-request smoke
 * httpd serve retires ~60k instructions in ~1.5ms) otherwise
 * measures timer granularity, cold host caches and allocator
 * first-touch instead of steady-state throughput — the historical
 * httpd MIPS outlier. Callers should also run one untimed warm-up
 * before the first sample.
 */
inline int
runsForInstructionFloor(uint64_t perRunInstrs, uint64_t floorInstrs)
{
    if (perRunInstrs == 0 || perRunInstrs >= floorInstrs)
        return 1;
    return static_cast<int>((floorInstrs + perRunInstrs - 1) /
                            perRunInstrs);
}

using shift::threadCpuSeconds;

/** One arm's timed samples, in run order. */
struct ArmSamples
{
    std::vector<double> seconds;

    /** The q-quantile (0 = min, 0.5 = median), nearest rank. */
    double
    quantile(double q) const
    {
        if (seconds.empty())
            return 0;
        std::vector<double> sorted = seconds;
        std::sort(sorted.begin(), sorted.end());
        auto i = size_t(q * double(sorted.size() - 1) + 0.5);
        return sorted[std::min(i, sorted.size() - 1)];
    }
    double min() const { return quantile(0); }
    double median() const { return quantile(0.5); }
    /** Interquartile range relative to the median. */
    double
    spread() const
    {
        double m = median();
        return m > 0 ? (quantile(0.75) - quantile(0.25)) / m : 0;
    }
};

/**
 * The host-time estimator of the gated benches (perf-smoke-obs,
 * -prof, -async, -jit): `repeats` rounds, each running every arm once,
 * interleaved so slow and fast host periods hit all arms alike, and
 * rotated (round r starts at arm r mod N) so no arm always runs first.
 * Each arm returns the seconds of its own timed region (callers time
 * it with threadCpuSeconds). Compare arms with pairedRatio.
 */
inline std::vector<ArmSamples>
interleavedRotated(int repeats,
                   const std::vector<std::function<double()>> &arms)
{
    std::vector<ArmSamples> out(arms.size());
    for (int rep = 0; rep < repeats; ++rep) {
        for (size_t slot = 0; slot < arms.size(); ++slot) {
            size_t a = (slot + size_t(rep)) % arms.size();
            out[a].seconds.push_back(arms[a]());
        }
    }
    return out;
}

/**
 * Cost of arm `b` relative to arm `a`: the median over rounds of
 * b's time divided by a's time in the same round. This host's noise
 * comes in periods (whole seconds at a different speed) shorter than
 * a gate run but longer than one round, so a same-round ratio cancels
 * the period and the median drops the rounds a burst split. Per-arm
 * minima do not: on a host that is mostly in a slow period the
 * minimum is a rare fast window one arm happened to hit: over 20
 * runs min-of-41 read two identical configurations (bench_prof's
 * baseline and profile-off arms) from -6% to +18% apart, and the
 * paired median of 101 rounds from -1.0% to +2.2%.
 */
inline double
pairedRatio(const ArmSamples &a, const ArmSamples &b)
{
    ArmSamples ratios;
    for (size_t i = 0; i < a.seconds.size() && i < b.seconds.size(); ++i)
        ratios.seconds.push_back(a.seconds[i] > 0
                                     ? b.seconds[i] / a.seconds[i]
                                     : 0);
    return ratios.median();
}

/** Print one arm's minimum, median and spread on one line. */
inline void
printArm(const char *label, const ArmSamples &arm)
{
    std::printf("  %-18s min %9.4f ms  median %9.4f ms  IQR %5.1f%%  "
                "(n=%zu)\n",
                label, arm.min() * 1e3, arm.median() * 1e3,
                100.0 * arm.spread(), arm.seconds.size());
}

/** Print a horizontal rule sized to a header line. */
inline void
rule(size_t width)
{
    for (size_t i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/**
 * Register a google-benchmark row that exposes precomputed metrics as
 * counters (the simulation itself ran during table construction).
 */
inline void
registerMetricRow(const std::string &name,
                  std::map<std::string, double> counters)
{
    benchmark::RegisterBenchmark(
        name.c_str(),
        [counters = std::move(counters)](benchmark::State &state) {
            for (auto _ : state) {
                benchmark::DoNotOptimize(counters.size());
            }
            for (const auto &kv : counters)
                state.counters[kv.first] = kv.second;
        })
        ->Iterations(1);
}

} // namespace shift::benchutil

#endif // SHIFT_BENCH_BENCH_UTIL_HH
