/**
 * @file
 * perfbench: the end-to-end benchmark of the SHIFT simulator.
 *
 * One binary, three workloads, all through the public API (Session,
 * SessionTemplate/SessionClone, svc::Fleet, the workloads library and its
 * inputs, and the four build-front phase functions for the traced
 * twin). See README.md in this directory for the metric table, the
 * layer map and how to read the span output.
 *
 *   perfbench --workload spec-fig7|table2|httpd-fleet --seed N
 *             --seconds S --trace 0|1 [--spans PATH]
 *   perfbench --smoke
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics (the end-to-end metrics with --trace 0, the
 * per-layer ones with --trace 1). Lines before it start with '#' and
 * carry the host fingerprint, the sim_digest and, when traced, the
 * exact/varying mark of every count and the span self-time summary.
 */

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/instrument.hh"
#include "lang/compiler.hh"
#include "opt/instr_opt.hh"
#include "runtime/minic_stdlib.hh"
#include "runtime/session.hh"
#include "runtime/session_template.hh"
#include "sim/machine.hh"
#include "svc/fleet.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
namespace wl = shift::workloads;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ----- statistics -------------------------------------------------------

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double logSum = 0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / double(values.size()));
}

/** VmHWM: this process image's own peak. getrusage's ru_maxrss would
 * also count the parent's peak, which survives fork + exec. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

/** splitmix64: the seeded generator behind every input. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    uint32_t range(uint32_t n) { return uint32_t(next() % n); }

  private:
    uint64_t state_;
};

/** Fisher-Yates with the benchmark's own generator (std::shuffle's
 * output is not specified across standard libraries). */
template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.range(uint32_t(i))]);
}

/** FNV-1a over the simulated outcome of every program run. */
class Digest
{
  public:
    void
    add(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::string &text)
    {
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ULL;
        }
        add(text.size());
    }

    /** Instructions, cycles, exit code and verdict of one run. */
    void
    addRun(const RunResult &r)
    {
        add(r.instructions);
        add(r.cycles);
        add(uint64_t(r.exitCode));
        add(uint64_t(r.exited) | uint64_t(r.killedByPolicy) << 1 |
            uint64_t(r.fault.kind) << 2);
        for (const SecurityAlert &a : r.alerts)
            add(a.policy);
    }

    uint64_t value() const { return hash_; }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
        return buf;
    }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ----- spans ------------------------------------------------------------

/**
 * In-memory span log for the traced run. Spans are recorded only on
 * the main thread, around calls into the layers, and nest strictly;
 * each carries the id of the program run or fleet batch it belongs
 * to. Written out once, at the end.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t traceId = 0;
        int parent = -1;
        double start = 0;
        double end = 0;
        std::vector<std::pair<std::string, double>> attrs;
    };

    /** RAII span; a no-op when the tracer is null. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, uint64_t traceId)
            : tracer_(tracer)
        {
            if (tracer_)
                index_ = tracer_->open(name, traceId);
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void
        attr(const char *key, double value)
        {
            if (tracer_)
                tracer_->spans_[size_t(index_)].attrs.emplace_back(key,
                                                                   value);
        }

      private:
        Tracer *tracer_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the covered part of the interval (children of a
     * span never overlap: they run one after another on this thread). */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                self[size_t(s.parent)] -= s.end - s.start;
        }
        return self;
    }

  private:
    int
    open(const char *name, uint64_t traceId)
    {
        Span s;
        s.name = name;
        s.traceId = traceId;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start = secondsSince(epoch_);
        spans_.push_back(std::move(s));
        stack_.push_back(int(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int index)
    {
        spans_[size_t(index)].end = secondsSince(epoch_);
        stack_.pop_back();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ----- result report ----------------------------------------------------

struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, printed as '#' lines
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> notes; ///< '#' lines printed before the JSON

    void
    fail(const std::string &what, uint64_t ops = 1)
    {
        failed += ops;
        if (failures.size() < 8)
            failures.push_back(what);
    }

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics.emplace_back(name, std::make_pair(value, unit));
    }

    void note(const std::string &line) { notes.push_back(line); }
};

/**
 * Counts of one layer that must repeat exactly across two runs of the
 * same inputs to back a claim; the traced run marks each one.
 */
class ExactnessLog
{
  public:
    void
    observe(const std::string &name, double value)
    {
        auto [it, inserted] = first_.emplace(name, value);
        if (!inserted && it->second != value)
            varying_.insert(name);
    }

    std::string
    line() const
    {
        std::string exact, varying;
        for (const auto &entry : first_) {
            const std::string &name = entry.first;
            std::string &dst = varying_.count(name) ? varying : exact;
            dst += (dst.empty() ? "" : " ") + name;
        }
        return "# counts exact: " + exact + "\n# counts varying: " +
               (varying.empty() ? "(none)" : varying);
    }

  private:
    std::map<std::string, double> first_;
    std::set<std::string> varying_;
};

/** The host-tier counters a sweep or batch sums over its runs. */
struct Counters
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t alerts = 0;
    uint64_t jitCompiled = 0;
    uint64_t jitEntered = 0;
    uint64_t jitBailouts = 0;
    uint64_t jitCodeBytes = 0;
    uint64_t fastEntered = 0;
    uint64_t fastDeopts = 0;
    uint64_t profTotal = 0;
    uint64_t profCompile = 0;
    uint64_t profJit = 0;
    uint64_t profBuiltin = 0;

    void
    add(const RunResult &r)
    {
        instructions += r.instructions;
        cycles += r.cycles;
        alerts += r.alerts.size();
        const StatSet &s = r.stats;
        jitCompiled += s.get("jit.compiled");
        jitEntered += s.get("jit.entered");
        jitBailouts += s.get("jit.bailouts");
        jitCodeBytes += s.get("jit.codeBytes");
        fastEntered += s.get("fastpath.entered");
        fastDeopts += s.get("fastpath.deopts");
        profTotal += s.get("prof.total.nanos");
        profCompile += s.get("prof.tier.compile.nanos");
        profJit += s.get("prof.tier.jit-slow.nanos") +
                   s.get("prof.tier.jit-fast.nanos");
        profBuiltin += s.get("prof.tier.builtin.nanos");
    }

    double
    share(uint64_t part) const
    {
        return profTotal ? double(part) / double(profTotal) : 0;
    }
};

/** The build front of one program, driven phase by phase on a twin. */
struct TwinBuild
{
    double compile = 0, instrument = 0, optimize = 0, decode = 0;
    uint64_t compiledInstrs = 0; ///< static size straight out of compile
    uint64_t finalInstrs = 0;    ///< static size the machine decodes
    uint64_t added = 0;
    uint64_t removed = 0;
};

/**
 * Compile, instrument, optimize and decode one program exactly as a
 * Session built from `options` does, timing each phase in its own
 * span. The caller checks finalInstrs against the Session's program().
 */
TwinBuild
buildTwin(const std::string &source, SessionOptions options,
          Tracer *tracer, uint64_t traceId)
{
    TwinBuild t;
    Tracer::Scope twin(tracer, "twin", traceId);
    Program program;
    {
        Tracer::Scope span(tracer, "lang.compile", traceId);
        auto start = Clock::now();
        program = minic::compileProgram(
            std::vector<std::string>{kMiniCStdlib, source});
        t.compile = secondsSince(start);
    }
    t.compiledInstrs = program.staticInstrCount();
    if (options.mode == TrackingMode::Shift) {
        // The same option propagation Session's build performs.
        options.instr.granularity = options.policy.granularity;
        options.instr.natSetClear = options.features.natSetClear;
        options.instr.natAwareCompare = options.features.natAwareCompare;
        {
            Tracer::Scope span(tracer, "core.instrument", traceId);
            auto start = Clock::now();
            t.added = instrumentProgram(program, options.instr).added;
            t.instrument = secondsSince(start);
        }
        {
            Tracer::Scope span(tracer, "opt.optimize", traceId);
            auto start = Clock::now();
            t.removed =
                optimizeInstrumentation(program, options.optimize)
                    .instrsRemoved;
            t.optimize = secondsSince(start);
        }
    }
    t.finalInstrs = program.staticInstrCount();
    {
        Tracer::Scope span(tracer, "sim.decode", traceId);
        auto start = Clock::now();
        Machine machine(program, options.features, options.engine);
        t.decode = secondsSince(start);
    }
    return t;
}

/** The production tier stack every workload runs on. */
void
applyTierStack(SessionOptions &options, bool fastPath, bool jit)
{
    options.optimize.enable = true;
    options.fastPath = fastPath;
    options.jit = jit;
}

/** One timed sample, stamped with when its sweep or batch started. */
struct Sample
{
    double at = 0;
    double value = 0;
};

/**
 * Samples cut into consecutive windows of at least `minSeconds` and
 * `minSamples` (a short tail joins the last window), and the quantile
 * `q` of each window.
 */
std::vector<double>
windowQuantiles(const std::vector<Sample> &samples, double q,
                double minSeconds, size_t minSamples)
{
    std::vector<std::vector<double>> windows(1);
    double windowStart = samples.empty() ? 0 : samples.front().at;
    for (size_t i = 0; i < samples.size(); ++i) {
        std::vector<double> &cur = windows.back();
        if (cur.size() >= minSamples &&
            samples[i].at - windowStart >= minSeconds &&
            samples[i].at != samples[i - 1].at) {
            windows.emplace_back();
            windowStart = samples[i].at;
        }
        windows.back().push_back(samples[i].value);
    }
    if (windows.size() > 1 && windows.back().size() < minSamples) {
        std::vector<double> tail = std::move(windows.back());
        windows.pop_back();
        windows.back().insert(windows.back().end(), tail.begin(),
                              tail.end());
    }
    std::vector<double> out;
    for (const std::vector<double> &w : windows)
        out.push_back(quantile(w, q));
    return out;
}

/** The host-time end-to-end metrics of one run. */
struct Timings
{
    std::vector<Sample> sweep, setup, rps, job;
    /** Sequential sweeps: each program's latencies over the run. */
    std::vector<std::vector<Sample>> perProgram;

    /**
     * Host time on a shared machine moves between speed regimes that
     * last seconds (other tenants' load), so a whole-run median lands
     * on whichever regime dominated. The throughput and median metrics
     * report the best window: the lowest time or the highest rate. The
     * fleet's tail metric reports the median of the windows' 99th
     * percentiles, so that stalls which recur in most windows stay in
     * it. A sweep's programs differ in size, so its tail is its
     * slowest programs: the 99th percentile over programs of each
     * program's latency, taken like job_p50_ms (best window's median).
     */
    void
    report(Report &r) const
    {
        auto windows = [](const std::vector<Sample> &v, double q,
                          size_t minSamples) {
            return windowQuantiles(v, q, /*minSeconds=*/0.5, minSamples);
        };
        auto lowest = [](const std::vector<double> &v) {
            return *std::min_element(v.begin(), v.end());
        };
        auto highest = [](const std::vector<double> &v) {
            return *std::max_element(v.begin(), v.end());
        };
        r.set("sweep_s", lowest(windows(sweep, 0.5, 3)), "s");
        r.set("setup_s", lowest(windows(setup, 0.5, 3)), "s");
        r.set("serve_rps", highest(windows(rps, 0.5, 3)), "1/s");
        r.set("job_p50_ms", 1e3 * lowest(windows(job, 0.5, 100)), "ms");
        if (perProgram.empty()) {
            // At least ten samples beyond the 99th percentile per window.
            r.set("job_p99_ms", 1e3 * median(windows(job, 0.99, 1000)),
                  "ms");
        } else {
            std::vector<double> latencies;
            for (const std::vector<Sample> &p : perProgram)
                latencies.push_back(lowest(windows(p, 0.5, 3)));
            r.set("job_p99_ms", 1e3 * quantile(latencies, 0.99), "ms");
        }
    }
};

// ======================================================================
// Sequential workloads: spec-fig7 and table2. A sweep builds a fresh
// Session per program run, from source to checked result.
// ======================================================================

struct ProgramCase
{
    std::string label;
    std::string source;
    SessionOptions options;
    std::function<void(Session &)> provision;
    bool exploit = false;       ///< must be stopped by expectedPolicy
    std::string expectedPolicy;
    /** Earlier case in the same sweep whose exit code this run must
     * reproduce and whose cycles are this run's overhead base. */
    int baseline = -1;
    /** Uninstrumented cycles measured once up front (overhead base
     * when no in-sweep baseline exists); 0 = none. */
    uint64_t referenceCycles = 0;
};

struct SweepResult
{
    double wall = 0;
    double setup = 0;   ///< Session construction, summed
    double run = 0;     ///< Machine::run via Session::run, summed
    std::vector<double> opSeconds;
    std::vector<double> opCycles;
    std::vector<double> overheads;
    uint64_t staticInstrs = 0; ///< final static size, summed
    uint64_t added = 0;
    uint64_t removed = 0;
    uint64_t expectedAlerts = 0;
    Counters counters;
    Digest digest;
};

class SequentialWorkload
{
  public:
    SequentialWorkload(std::string name, std::vector<ProgramCase> cases)
        : name_(std::move(name)), cases_(std::move(cases))
    {
    }

    /** Run every case once. `profile` attaches the tier profiler;
     * `jit` selects the arm (the production stack has it on). */
    SweepResult
    sweep(Report &report, Tracer *tracer, uint64_t sweepId, bool profile,
          bool jit)
    {
        SweepResult s;
        std::vector<RunResult> results(cases_.size());
        auto sweepStart = Clock::now();
        for (size_t i = 0; i < cases_.size(); ++i) {
            const ProgramCase &c = cases_[i];
            uint64_t traceId = sweepId * 1000 + i;
            Tracer::Scope op(tracer, "op", traceId);
            auto opStart = Clock::now();
            SessionOptions options = c.options;
            options.profile = profile;
            options.jit = options.jit && jit;
            std::unique_ptr<Session> session;
            {
                Tracer::Scope span(tracer, "runtime.session_build",
                                   traceId);
                auto start = Clock::now();
                session = std::make_unique<Session>(c.source, options);
                s.setup += secondsSince(start);
            }
            {
                Tracer::Scope span(tracer, "runtime.provision", traceId);
                c.provision(*session);
            }
            {
                Tracer::Scope span(tracer, "sim.run", traceId);
                auto start = Clock::now();
                results[i] = session->run();
                s.run += secondsSince(start);
            }
            {
                Tracer::Scope span(tracer, "check", traceId);
                check(report, c, results[i],
                      c.baseline >= 0 ? &results[size_t(c.baseline)]
                                      : nullptr);
                s.staticInstrs += session->program().staticInstrCount();
                s.added += session->instrStats().added;
                s.removed += session->optStats().instrsRemoved;
            }
            s.opSeconds.push_back(secondsSince(opStart));
        }
        s.wall = secondsSince(sweepStart);

        for (size_t i = 0; i < cases_.size(); ++i) {
            const ProgramCase &c = cases_[i];
            const RunResult &r = results[i];
            s.counters.add(r);
            s.digest.addRun(r);
            s.opCycles.push_back(double(r.cycles));
            if (c.exploit)
                s.expectedAlerts += 1;
            uint64_t base = c.baseline >= 0
                                ? results[size_t(c.baseline)].cycles
                                : c.referenceCycles;
            if (base > 0)
                s.overheads.push_back(double(r.cycles) / double(base));
        }
        if (s.counters.alerts != s.expectedAlerts) {
            report.fail(name_ + ": " + std::to_string(s.counters.alerts) +
                            " alerts, expected " +
                            std::to_string(s.expectedAlerts),
                        cases_.size());
        }
        return s;
    }

    const std::vector<ProgramCase> &cases() const { return cases_; }
    const std::string &name() const { return name_; }

  private:
    /** One operation: the run's verdict must be the expected one. */
    void
    check(Report &report, const ProgramCase &c, const RunResult &r,
          const RunResult *baseline)
    {
        report.attempted += 1;
        std::string problem;
        if (c.exploit) {
            if (!r.killedByPolicy || r.alerts.empty() ||
                r.alerts.back().policy != c.expectedPolicy)
                problem = "exploit not stopped by " + c.expectedPolicy;
        } else if (!r.exited || r.fault || r.killedByPolicy ||
                   !r.alerts.empty()) {
            problem = "run did not exit cleanly (false positive or fault)";
        } else if (baseline && baseline->exitCode != r.exitCode) {
            problem = "exit checksum " + std::to_string(r.exitCode) +
                      " != uninstrumented " +
                      std::to_string(baseline->exitCode);
        }
        if (!problem.empty())
            report.fail(c.label + ": " + problem);
    }

    std::string name_;
    std::vector<ProgramCase> cases_;
};

// ----- spec-fig7 inputs -------------------------------------------------
//
// The eight kernels' input formats at scale 1 (same sizes and shapes
// as workloads::SpecKernel::makeInput), drawn from the seed.

std::string
specInput(const std::string &kernel, uint64_t seed)
{
    Rng rng(seed);
    std::string out;
    if (kernel == "gzip") {
        static const char *kWords[] = {
            "the", "quick", "brown", "fox", "jumps", "over", "lazy",
            "dogs", "pack", "my", "box", "with", "five", "dozen",
            "liquor", "jugs", "compress", "window", "entropy",
        };
        while (out.size() < 3000) {
            out += kWords[rng.range(19)];
            out.push_back(' ');
            if (rng.range(12) == 0)
                out.push_back('\n');
        }
    } else if (kernel == "gcc") {
        const char *ops = "+-*";
        for (int s = 0; s < 260; ++s) {
            out.push_back(char('a' + rng.range(26)));
            out.push_back('=');
            int terms = 2 + int(rng.range(4));
            for (int t = 0; t < terms; ++t) {
                if (rng.range(3) == 0) {
                    out.push_back('(');
                    out.push_back(char('a' + rng.range(26)));
                    out.push_back(ops[rng.range(3)]);
                    out += std::to_string(1 + rng.range(9));
                    out.push_back(')');
                } else if (rng.range(2) == 0) {
                    out.push_back(char('a' + rng.range(26)));
                } else {
                    out += std::to_string(rng.range(100));
                }
                if (t + 1 < terms)
                    out.push_back(ops[rng.range(3)]);
            }
            out += ";\n";
        }
    } else if (kernel == "crafty") {
        out = std::to_string(100000000 + rng.range(899999999)) + " 60\n";
    } else if (kernel == "bzip2") {
        static const char *kChunks[] = {
            "abracadabra", "mississippi", "bananabanana", "blockblock",
            "sortingsort", "wheeler",
        };
        while (out.size() < 390)
            out += kChunks[rng.range(6)];
    } else if (kernel == "vpr") {
        out = "48 96 " + std::to_string(1 + rng.range(99999)) + "\n";
        for (int i = 0; i < 96; ++i)
            out += std::to_string(rng.range(48)) + " " +
                   std::to_string(rng.range(48)) + "\n";
    } else if (kernel == "mcf") {
        out = "160 1400\n";
        for (int i = 0; i < 1400; ++i)
            out += std::to_string(rng.range(160)) + " " +
                   std::to_string(rng.range(160)) + " " +
                   std::to_string(rng.range(90)) + "\n";
    } else if (kernel == "parser") {
        static const char *kVocab[] = {
            "the", "a", "dog", "cat", "bird", "tree", "runs", "jumps",
            "sees", "house", "river", "stone", "walks", "sings", "cloud",
            "mountain", "codes", "parser", "links", "grammar",
        };
        for (int i = 0; i < 1400; ++i) {
            out += kVocab[rng.range(20)];
            out.push_back(rng.range(14) == 0 ? '\n' : ' ');
        }
    } else if (kernel == "twolf") {
        out = "120 520 " + std::to_string(1 + rng.range(9999999)) + "\n";
        for (int c = 0; c < 120; ++c)
            out += std::to_string(rng.range(9)) + "\n";
        for (int i = 0; i < 520; ++i)
            out += std::to_string(rng.range(120)) + " " +
                   std::to_string(rng.range(120)) + "\n";
    } else {
        std::fprintf(stderr, "perfbench: no input generator for %s\n",
                     kernel.c_str());
        std::exit(2);
    }
    return out;
}

/** Fig. 7: every kernel uninstrumented, then under SHIFT (byte
 * granularity, optimizer, JIT; fast path off — it changes the
 * simulated cycles the paper's cost model counts). Tainted input. */
SequentialWorkload
makeSpecFig7(uint64_t seed)
{
    std::vector<ProgramCase> cases;
    for (const wl::SpecKernel &k : wl::specKernels()) {
        std::string input = specInput(k.shortName, seed * 8191 +
                                                       cases.size());
        ProgramCase c;
        c.source = k.source;
        c.options.policy.granularity = Granularity::Byte;
        c.options.policy.taintFile = true;
        c.options.instr.relaxLoadFunctions = k.relaxLoadFunctions;
        c.options.instr.relaxStoreFunctions = k.relaxStoreFunctions;
        applyTierStack(c.options, /*fastPath=*/false, /*jit=*/true);
        c.provision = [input](Session &s) {
            s.os().addFile("input.dat", input);
        };

        ProgramCase none = c;
        none.label = k.shortName + "/none";
        none.options.mode = TrackingMode::None;
        c.label = k.shortName + "/shift";
        c.options.mode = TrackingMode::Shift;
        c.baseline = int(cases.size());
        cases.push_back(std::move(none));
        cases.push_back(std::move(c));
    }
    return SequentialWorkload("spec-fig7", std::move(cases));
}

/** Table 2: 8 scenarios x {benign, exploit}, in a seeded order. */
SequentialWorkload
makeTable2(uint64_t seed, Report &report)
{
    std::vector<ProgramCase> cases;
    for (const wl::AttackScenario &sc : wl::attackScenarios()) {
        for (bool exploit : {false, true}) {
            ProgramCase c;
            c.label = sc.name + (exploit ? "/exploit" : "/benign");
            c.source = sc.source;
            c.options.mode = TrackingMode::Shift;
            c.options.policy = sc.policy;
            c.options.policy.granularity = Granularity::Byte;
            c.options.instr.relaxLoadFunctions = sc.relaxLoadFunctions;
            applyTierStack(c.options, /*fastPath=*/false, /*jit=*/true);
            c.provision = exploit ? sc.setupExploit : sc.setupBenign;
            c.exploit = exploit;
            c.expectedPolicy = sc.expectedPolicy;
            if (!exploit) {
                // Overhead base: the benign input, uninstrumented.
                // Simulated cycles are deterministic, so one untimed
                // run per scenario serves every sweep.
                SessionOptions none = c.options;
                none.mode = TrackingMode::None;
                Session ref(sc.source, none);
                sc.setupBenign(ref);
                RunResult r = ref.run();
                report.attempted += 1;
                if (!r.exited || r.fault)
                    report.fail(sc.name + "/reference: did not exit");
                c.referenceCycles = r.cycles;
            }
            cases.push_back(std::move(c));
        }
    }
    Rng rng(seed);
    shuffle(cases, rng);
    return SequentialWorkload("table2", std::move(cases));
}

/** A repeated sweep or batch must reproduce the first one's simulated
 * results; when it does not, all `ops` operations of it failed. */
void
checkDigest(Report &report, const std::string &what, const Digest &first,
            const Digest &d, uint64_t ops)
{
    if (d.value() != first.value())
        report.fail(what + ": simulated results differ between "
                           "identical sweeps (" + first.hex() + " vs " +
                        d.hex() + ")", ops);
}

void
measureSequential(SequentialWorkload &w, double seconds, Report &report)
{
    SweepResult warm = w.sweep(report, nullptr, 0, false, true);
    Timings t;
    size_t sweeps = 0, runs = 0;
    auto start = Clock::now();
    while (sweeps < 3 || secondsSince(start) < seconds) {
        double at = secondsSince(start);
        SweepResult s = w.sweep(report, nullptr, ++sweeps, false, true);
        checkDigest(report, w.name(), warm.digest, s.digest,
                    s.opSeconds.size());
        t.sweep.push_back({at, s.wall});
        t.setup.push_back({at, s.setup});
        t.rps.push_back({at, double(s.opSeconds.size()) / s.wall});
        t.perProgram.resize(s.opSeconds.size());
        for (size_t i = 0; i < s.opSeconds.size(); ++i) {
            t.job.push_back({at, s.opSeconds[i]});
            t.perProgram[i].push_back({at, s.opSeconds[i]});
        }
        runs += s.opSeconds.size();
    }

    t.report(report);
    report.set("sim_overhead_x", geomean(warm.overheads), "x");
    report.set("sim_kcycles_per_req", median(warm.opCycles) / 1e3,
               "kcycles");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.note("# sim_digest " + w.name() + " " + warm.digest.hex());
    report.note("# samples: " + std::to_string(sweeps) + " sweeps, " +
                std::to_string(runs) + " runs");
}

// ======================================================================
// httpd-fleet: one SessionTemplate, a closed loop of Fleet workers.
// ======================================================================

/** Files provisioned in the template. */
struct FileClass
{
    const char *path;
    uint64_t size;
};

/** The paper's Fig. 6 file sizes (the sweep bench_apache runs), each
 * requested equally often. */
constexpr FileClass kFiles[] = {
    {"/data.bin", 4 * 1024}, // provisionHttpdOs's own file
    {"/8k.bin", 8 * 1024},
    {"/16k.bin", 16 * 1024},
    {"/512k.bin", 512 * 1024},
};

/**
 * Fleet workers. On the shared 4-vCPU host the run-to-run spread of the
 * fleet's host-time metrics grew with the worker count: over five seeds
 * of interleaved 30 s runs it was 0.05-0.07 with 1 worker and 0.16-0.27
 * with 2, against a 0.25 bound. One worker still forks a clone per job
 * from the shared template and runs the JIT code all clones share.
 */
constexpr unsigned kFleetWorkers = 1;
constexpr int kFleetJobs = 128; ///< jobs per served batch
/** Batch tail ending in a traversal: a correctness probe of H2 on the
 * serving path, not a traffic model (no source gives an attack rate). */
constexpr int kAttackJobs = 8;
/** Requests (connections) per job: 1..7, mean about 4, the default
 * requests per clone of HttpdFleetConfig and shiftd. */
constexpr int kMaxRequests = 7;

struct BatchResult
{
    double wall = 0; ///< host seconds inside Fleet::serve
    std::vector<double> jobSeconds; ///< fork + run, per job
    std::vector<double> forkSeconds;
    std::vector<double> runSeconds;
    std::vector<double> cyclesPerRequest; ///< benign jobs
    uint64_t benignCycles = 0;   ///< summed over benign jobs
    uint64_t benignRequests = 0;
    uint64_t requests = 0;
    uint64_t cowPages = 0;
    Counters counters;
    Digest digest;
};

class FleetWorkload
{
  public:
    /**
     * Every seed serves the same jobs: job sizes 1..kMaxRequests in
     * turn and files of every size in turn, so a batch requests each
     * size equally often, and the heaviest jobs that set the tail are
     * the same for every seed. The seed arranges them: the order of
     * the jobs in the batch and of the requests inside each job. The
     * attack tail stays last.
     */
    explicit FleetWorkload(uint64_t seed)
    {
        Rng rng(seed);
        size_t nextFile = 0;
        std::vector<std::vector<int>> benign, attack;
        for (int j = 0; j < kFleetJobs; ++j) {
            std::vector<int> files;
            for (int r = 0; r <= j % kMaxRequests; ++r)
                files.push_back(int(nextFile++ % std::size(kFiles)));
            shuffle(files, rng);
            (j < kFleetJobs - kAttackJobs ? benign : attack)
                .push_back(std::move(files));
        }
        shuffle(benign, rng);
        shuffle(attack, rng);
        for (std::vector<int> &files : benign)
            addJob(std::move(files), false);
        for (std::vector<int> &files : attack)
            addJob(std::move(files), true);
        for (const FileClass &f : kFiles)
            bodies_.push_back(wl::httpdFileBody(f.size));
    }

    /** SHIFT (byte) + optimizer + fast path + JIT, provisioned. */
    std::unique_ptr<SessionTemplate>
    makeTemplate(TrackingMode mode, bool jit, bool profile) const
    {
        SessionOptions options = wl::httpdSessionOptions(
            mode, Granularity::Byte, CpuFeatures{}, ExecEngine::Predecoded);
        applyTierStack(options, /*fastPath=*/true, jit);
        options.profile = profile;
        auto tmpl = std::make_unique<SessionTemplate>(
            std::string(wl::kHttpdSource), std::move(options));
        provisionOs(tmpl->os());
        return tmpl;
    }

    void
    provisionOs(Os &os) const
    {
        wl::provisionHttpdOs(os, kFiles[0].size);
        for (size_t f = 0; f < bodies_.size(); ++f) {
            if (f != 0)
                os.addFile(std::string("/www") + kFiles[f].path, bodies_[f]);
        }
    }

    /** Serve the batch once and check every response. */
    BatchResult
    serve(SessionTemplate &tmpl, Report &report, Tracer *tracer,
          uint64_t batchId)
    {
        BatchResult b;
        svc::FleetOptions fleetOptions;
        fleetOptions.workers = kFleetWorkers;
        svc::Fleet fleet(tmpl, fleetOptions);
        svc::FleetReport fr;
        {
            Tracer::Scope span(tracer, "svc.serve", batchId);
            auto start = Clock::now();
            fr = fleet.serve(jobs_);
            b.wall = secondsSince(start);
            double busy = 0;
            for (const svc::FleetJobResult &jr : fr.jobResults)
                busy += jr.forkSeconds + jr.runSeconds;
            // Job timestamps stay inside svc::Fleet; only durations
            // come back, so jobs are attributes of the batch span.
            span.attr("jobs", double(fr.jobResults.size()));
            span.attr("fork_run_s", busy);
            span.attr("worker_busy", busy / (kFleetWorkers * b.wall));
        }
        Tracer::Scope span(tracer, "check", batchId);
        if (fr.jobResults.size() != jobs_.size())
            report.fail("fleet lost jobs", jobs_.size());
        for (const svc::FleetJobResult &jr : fr.jobResults) {
            b.jobSeconds.push_back(jr.forkSeconds + jr.runSeconds);
            b.forkSeconds.push_back(jr.forkSeconds);
            b.runSeconds.push_back(jr.runSeconds);
            b.cowPages += jr.cowPages;
            b.counters.add(jr.result);
            b.digest.add(uint64_t(jr.id));
            b.digest.addRun(jr.result);
            checkJob(report, jr, b);
        }
        return b;
    }

    const std::vector<svc::FleetJob> &jobs() const { return jobs_; }

  private:
    void
    addJob(std::vector<int> files, bool attack)
    {
        svc::FleetJob job;
        job.id = int(jobs_.size());
        for (int f : files)
            job.requests.push_back(
                std::string("GET ") + kFiles[f].path +
                " HTTP/1.0\r\nHost: bench.example\r\n"
                "User-Agent: ab/2.3\r\nAccept: */*\r\n\r\n");
        // Attacks ride last, after the job's benign requests.
        if (attack)
            job.requests.push_back(wl::kHttpdAttackRequest);
        jobs_.push_back(std::move(job));
        jobFiles_.push_back(std::move(files));
    }

    void
    checkJob(Report &report, const svc::FleetJobResult &jr, BatchResult &b)
    {
        const std::vector<int> &files = jobFiles_[size_t(jr.id)];
        bool attack = jr.id >= kFleetJobs - kAttackJobs;
        uint64_t ops = files.size() + (attack ? 1 : 0);
        report.attempted += ops;
        b.requests += ops;
        std::string tag = "job " + std::to_string(jr.id) + ": ";
        uint64_t bad = 0;
        for (size_t r = 0; r < files.size(); ++r) {
            const std::string &body = bodies_[size_t(files[r])];
            const std::string *resp =
                r < jr.responses.size() ? &jr.responses[r] : nullptr;
            if (!resp || resp->find("200 OK") == std::string::npos ||
                resp->size() <= body.size() ||
                resp->compare(resp->size() - body.size(), body.size(),
                              body) != 0)
                ++bad;
        }
        if (bad)
            report.fail(tag + std::to_string(bad) + " bad responses", bad);
        if (attack) {
            if (!jr.result.killedByPolicy || jr.result.alerts.empty() ||
                jr.result.alerts.back().policy != "H2")
                report.fail(tag + "traversal not killed by H2");
        } else if (!jr.result.ok() || !jr.result.alerts.empty()) {
            // Every request of the job failed; the bad ones are
            // already counted.
            report.fail(tag + "benign job did not exit cleanly",
                        files.size() - bad);
        } else {
            b.cyclesPerRequest.push_back(double(jr.result.cycles) /
                                         double(files.size()));
            b.benignCycles += jr.result.cycles;
            b.benignRequests += files.size();
        }
    }

    std::vector<svc::FleetJob> jobs_;
    std::vector<std::vector<int>> jobFiles_;
    std::vector<std::string> bodies_;
};

/** Overhead base: the same batch on an uninstrumented template. */
double
fleetOverhead(FleetWorkload &w, Report &report, const BatchResult &shift)
{
    auto none = w.makeTemplate(TrackingMode::None, true, false);
    Report unchecked;
    BatchResult base = w.serve(*none, unchecked, nullptr, 0);
    // Uninstrumented, the traversal is served rather than killed; only
    // benign jobs enter the ratio and only their failures count.
    report.attempted += uint64_t(kFleetJobs - kAttackJobs);
    std::vector<double> ratios;
    if (base.cyclesPerRequest.size() < shift.cyclesPerRequest.size()) {
        report.fail("uninstrumented reference batch failed",
                    uint64_t(kFleetJobs - kAttackJobs));
        return 1;
    }
    for (size_t i = 0; i < shift.cyclesPerRequest.size(); ++i)
        ratios.push_back(shift.cyclesPerRequest[i] /
                         base.cyclesPerRequest[i]);
    return geomean(ratios);
}

void
measureFleet(FleetWorkload &w, double seconds, Report &report)
{
    // Serving first, then the peak RSS, then set-up and the overhead
    // base: the templates those build never coexist with the serving
    // loop, so the high-water mark is the serving loop's alone.
    constexpr double kServeShare = 0.8;
    std::unique_ptr<SessionTemplate> tmpl =
        w.makeTemplate(TrackingMode::Shift, true, false);
    BatchResult warm = w.serve(*tmpl, report, nullptr, 0);
    Timings t;
    size_t batches = 0, jobs = 0;
    auto start = Clock::now();
    while (batches < 3 || secondsSince(start) < kServeShare * seconds) {
        double at = secondsSince(start);
        BatchResult b = w.serve(*tmpl, report, nullptr, ++batches);
        checkDigest(report, "httpd-fleet", warm.digest, b.digest,
                    b.requests);
        t.sweep.push_back({at, b.wall});
        t.rps.push_back({at, double(b.requests) / b.wall});
        for (double job : b.jobSeconds)
            t.job.push_back({at, job});
        jobs += b.jobSeconds.size();
    }
    double peakRss = peakRssMb();
    tmpl.reset();

    size_t builds = 0;
    start = Clock::now();
    while (builds < 3 || secondsSince(start) < (1 - kServeShare) * seconds) {
        double at = secondsSince(start);
        auto buildStart = Clock::now();
        w.makeTemplate(TrackingMode::Shift, true, false)->freeze();
        t.setup.push_back({at, secondsSince(buildStart)});
        ++builds;
    }

    t.report(report);
    report.set("sim_overhead_x", fleetOverhead(w, report, warm), "x");
    // The mean, not a median over jobs: a job's cycles are known only
    // as a whole, and every seed serves the same multiset of requests,
    // so the mean is the same for every seed while a median over jobs
    // of mixed file sizes moves with how the seed groups them.
    report.set("sim_kcycles_per_req",
               double(warm.benignCycles) / double(warm.benignRequests) / 1e3,
               "kcycles");
    report.set("peak_rss_mb", peakRss, "MB");
    report.note("# sim_digest httpd-fleet " + warm.digest.hex());
    report.note("# samples: " + std::to_string(batches) + " batches, " +
                std::to_string(jobs) + " jobs, " +
                std::to_string(kFleetWorkers) + " workers (closed loop), " +
                std::to_string(builds) + " template builds");
}

// ======================================================================
// Traced run: per-layer metrics.
// ======================================================================

/** Per-layer metric table, in README order; every workload sets all
 * of them (0 where the layer is bypassed, with the reason noted). */
struct Layers
{
    std::map<std::string, double> value;
    std::map<std::string, std::string> absent;

    void
    bypass(const std::string &name, const std::string &why)
    {
        value[name] = 0;
        absent[name] = why;
    }
};

struct LayerSpec
{
    const char *name;
    const char *unit;
};

constexpr LayerSpec kLayerMetrics[] = {
    {"lang.compile_ms", "ms"},      {"lang.static_instrs", "count"},
    {"core.instrument_ms", "ms"},   {"core.instrs_added", "count"},
    {"core.alerts", "count"},       {"opt.optimize_ms", "ms"},
    {"opt.instrs_removed", "count"}, {"sim.decode_ms", "ms"},
    {"sim.run_ms", "ms"},           {"sim.instructions", "count"},
    {"sim.cycles", "count"},        {"sim.ns_per_instr", "ns"},
    {"sim.interp_ns_per_instr", "ns"}, {"jit.compiled", "count"},
    {"jit.entered", "count"},       {"jit.bailouts", "count"},
    {"jit.code_bytes", "bytes"},    {"jit.compile_share", "ratio"},
    {"jit.code_share", "ratio"},    {"fastpath.entered", "count"},
    {"fastpath.deopts", "count"},   {"fastpath.hit_rate", "ratio"},
    {"mem.cow_pages_per_job", "count"},
    {"runtime.session_build_ms", "ms"},
    {"runtime.template_build_ms", "ms"}, {"runtime.freeze_ms", "ms"},
    {"runtime.fork_ms", "ms"},      {"runtime.builtin_share", "ratio"},
    {"svc.worker_busy", "ratio"},   {"obs.trace_overhead", "ratio"},
};

/** Names that are counts a later change could cite: marked exact or
 * varying across the traced run's repeated sweeps. */
constexpr const char *kCountMetrics[] = {
    "lang.static_instrs", "core.instrs_added", "core.alerts",
    "opt.instrs_removed", "sim.instructions", "sim.cycles",
    "jit.compiled", "jit.entered", "jit.bailouts", "jit.code_bytes",
    "fastpath.entered", "fastpath.deopts", "mem.cow_pages_per_job",
};

void
setCounters(Layers &l, const Counters &c)
{
    l.value["sim.instructions"] = double(c.instructions);
    l.value["sim.cycles"] = double(c.cycles);
    l.value["core.alerts"] = double(c.alerts);
    l.value["jit.compiled"] = double(c.jitCompiled);
    l.value["jit.entered"] = double(c.jitEntered);
    l.value["jit.bailouts"] = double(c.jitBailouts);
    l.value["jit.code_bytes"] = double(c.jitCodeBytes);
    l.value["fastpath.entered"] = double(c.fastEntered);
    l.value["fastpath.deopts"] = double(c.fastDeopts);
    l.value["fastpath.hit_rate"] =
        c.fastEntered ? 1.0 - double(c.fastDeopts) / double(c.fastEntered)
                      : 0;
}

void
observeCounts(ExactnessLog &log, const Counters &c)
{
    Layers l;
    setCounters(l, c);
    for (const char *name : kCountMetrics) {
        auto it = l.value.find(name);
        if (it != l.value.end())
            log.observe(name, it->second);
    }
}

/** Median build-front phase times over twin passes, in ms. */
struct TwinTimes
{
    std::vector<double> compile, instrument, optimize, decode;

    void
    add(const TwinBuild &t)
    {
        compile.push_back(t.compile);
        instrument.push_back(t.instrument);
        optimize.push_back(t.optimize);
        decode.push_back(t.decode);
    }

    void
    set(Layers &l) const
    {
        l.value["lang.compile_ms"] = 1e3 * median(compile);
        l.value["core.instrument_ms"] = 1e3 * median(instrument);
        l.value["opt.optimize_ms"] = 1e3 * median(optimize);
        l.value["sim.decode_ms"] = 1e3 * median(decode);
    }
};

void
traceSequential(SequentialWorkload &w, double seconds, Report &report,
                Tracer &tracer, Layers &l, ExactnessLog &exact)
{
    Tracer::Scope root(&tracer, "perfbench", 0);
    uint64_t sweepId = 1;
    {
        Tracer::Scope span(&tracer, "warmup", 0);
        w.sweep(report, nullptr, 0, false, true);
    }

    // Interleaved untraced / traced sweeps: the ratio of their
    // medians is what tracing (spans + the tier profiler) costs.
    std::vector<double> plainWall, tracedWall, sessionBuild, runMs;
    double plainRun = 0;
    uint64_t plainInstrs = 0;
    SweepResult last;
    auto start = Clock::now();
    for (int i = 0; tracedWall.size() < 2 || secondsSince(start) <
                                                 0.55 * seconds; ++i) {
        bool traced = (i % 2) == 1;
        uint64_t id = sweepId++;
        SweepResult s;
        if (traced) {
            s = w.sweep(report, &tracer, id, true, true);
            tracedWall.push_back(s.wall);
            sessionBuild.push_back(s.setup);
            runMs.push_back(s.run);
            observeCounts(exact, s.counters);
            last = s;
        } else {
            Tracer::Scope span(&tracer, "untraced_sweep", id);
            s = w.sweep(report, nullptr, id, false, true);
            plainWall.push_back(s.wall);
            plainRun += s.run;
            plainInstrs += s.counters.instructions;
        }
    }

    // The interpreter arm: the same sweep with the JIT off.
    double interpRun = 0;
    uint64_t interpInstrs = 0;
    start = Clock::now();
    for (int i = 0; i < 1 || secondsSince(start) < 0.25 * seconds; ++i) {
        uint64_t id = sweepId++;
        Tracer::Scope span(&tracer, "jit_off_sweep", id);
        SweepResult s = w.sweep(report, nullptr, id, false, false);
        interpRun += s.run;
        interpInstrs += s.counters.instructions;
    }

    // Build-front split on twins; each twin's static size must equal
    // the Session's, so the spans describe the real pipeline.
    TwinTimes total;
    start = Clock::now();
    for (int pass = 0; pass < 3 || (pass < 50 && secondsSince(start) <
                                                     0.15 * seconds);
         ++pass) {
        TwinBuild sum;
        uint64_t staticSum = 0, added = 0, removed = 0;
        for (size_t i = 0; i < w.cases().size(); ++i) {
            const ProgramCase &c = w.cases()[i];
            TwinBuild t = buildTwin(c.source, c.options, &tracer,
                                    sweepId * 1000 + i);
            sum.compile += t.compile;
            sum.instrument += t.instrument;
            sum.optimize += t.optimize;
            sum.decode += t.decode;
            staticSum += t.finalInstrs;
            sum.compiledInstrs += t.compiledInstrs;
            added += t.added;
            removed += t.removed;
        }
        ++sweepId;
        total.add(sum);
        if (staticSum != last.staticInstrs || added != last.added ||
            removed != last.removed)
            report.fail(w.name() + ": twin build front differs from the "
                                   "Session's program",
                        0);
        l.value["lang.static_instrs"] = double(sum.compiledInstrs);
        exact.observe("lang.static_instrs", double(sum.compiledInstrs));
        exact.observe("core.instrs_added", double(added));
        exact.observe("opt.instrs_removed", double(removed));
    }
    total.set(l);

    setCounters(l, last.counters);
    l.value["core.instrs_added"] = double(last.added);
    l.value["opt.instrs_removed"] = double(last.removed);
    l.value["sim.run_ms"] = 1e3 * median(runMs);
    l.value["sim.ns_per_instr"] = 1e9 * plainRun / double(plainInstrs);
    l.value["sim.interp_ns_per_instr"] =
        1e9 * interpRun / double(interpInstrs);
    l.value["jit.compile_share"] = last.counters.share(
        last.counters.profCompile);
    l.value["jit.code_share"] = last.counters.share(last.counters.profJit);
    l.value["runtime.session_build_ms"] = 1e3 * median(sessionBuild);
    l.value["runtime.builtin_share"] =
        last.counters.share(last.counters.profBuiltin);
    l.value["obs.trace_overhead"] =
        median(tracedWall) / median(plainWall) - 1;
    l.bypass("mem.cow_pages_per_job", "no fleet: every run is a fresh "
                                      "Session, nothing is forked");
    l.bypass("runtime.template_build_ms", "no SessionTemplate");
    l.bypass("runtime.freeze_ms", "no SessionTemplate");
    l.bypass("runtime.fork_ms", "no SessionClone");
    l.bypass("svc.worker_busy", "no svc::Fleet");
    report.note("# sim_digest " + w.name() + " " + last.digest.hex());
}

void
traceFleet(FleetWorkload &w, double seconds, Report &report,
           Tracer &tracer, Layers &l, ExactnessLog &exact)
{
    Tracer::Scope root(&tracer, "perfbench", 0);
    uint64_t batchId = 1;
    std::vector<double> build, freeze;
    std::unique_ptr<SessionTemplate> plain, traced, interp;
    for (int i = 0; i < 5; ++i) {
        uint64_t id = batchId++;
        std::unique_ptr<SessionTemplate> tmpl;
        {
            Tracer::Scope span(&tracer, "runtime.template_build", id);
            auto start = Clock::now();
            tmpl = w.makeTemplate(TrackingMode::Shift, true, false);
            build.push_back(secondsSince(start));
        }
        {
            Tracer::Scope span(&tracer, "runtime.freeze", id);
            auto start = Clock::now();
            tmpl->freeze();
            freeze.push_back(secondsSince(start));
        }
        plain = std::move(tmpl);
    }
    {
        Tracer::Scope span(&tracer, "warmup", 0);
        traced = w.makeTemplate(TrackingMode::Shift, true, true);
        interp = w.makeTemplate(TrackingMode::Shift, false, false);
        w.serve(*plain, report, nullptr, 0);
        w.serve(*traced, report, nullptr, 0);
    }

    std::vector<double> plainWall, tracedWall, fork, run, busy;
    double plainRun = 0;
    uint64_t plainInstrs = 0;
    BatchResult last;
    auto start = Clock::now();
    for (int i = 0; tracedWall.size() < 2 || secondsSince(start) <
                                                 0.6 * seconds; ++i) {
        uint64_t id = batchId++;
        if (i % 2) {
            BatchResult b = w.serve(*traced, report, &tracer, id);
            tracedWall.push_back(b.wall);
            fork.insert(fork.end(), b.forkSeconds.begin(),
                        b.forkSeconds.end());
            run.insert(run.end(), b.runSeconds.begin(), b.runSeconds.end());
            double sum = 0;
            for (double s : b.jobSeconds)
                sum += s;
            busy.push_back(sum / (kFleetWorkers * b.wall));
            observeCounts(exact, b.counters);
            exact.observe("mem.cow_pages_per_job",
                          double(b.cowPages) / double(kFleetJobs));
            last = std::move(b);
        } else {
            Tracer::Scope span(&tracer, "untraced_batch", id);
            BatchResult b = w.serve(*plain, report, nullptr, id);
            plainWall.push_back(b.wall);
            for (double s : b.runSeconds)
                plainRun += s;
            plainInstrs += b.counters.instructions;
        }
    }

    double interpRun = 0;
    uint64_t interpInstrs = 0;
    start = Clock::now();
    for (int i = 0; i < 2 || secondsSince(start) < 0.25 * seconds; ++i) {
        uint64_t id = batchId++;
        Tracer::Scope span(&tracer, "jit_off_batch", id);
        BatchResult b = w.serve(*interp, report, nullptr, id);
        if (i == 0)
            continue; // the interpreter template's warm-up batch
        for (double s : b.runSeconds)
            interpRun += s;
        interpInstrs += b.counters.instructions;
    }

    TwinTimes twin;
    SessionOptions options = plain->options();
    start = Clock::now();
    for (int pass = 0; pass < 5 || (pass < 200 && secondsSince(start) <
                                                      0.1 * seconds);
         ++pass) {
        TwinBuild t = buildTwin(wl::kHttpdSource, options, &tracer,
                                batchId++);
        twin.add(t);
        l.value["lang.static_instrs"] = double(t.compiledInstrs);
        l.value["core.instrs_added"] = double(t.added);
        l.value["opt.instrs_removed"] = double(t.removed);
        exact.observe("lang.static_instrs", double(t.compiledInstrs));
        exact.observe("core.instrs_added", double(t.added));
        exact.observe("opt.instrs_removed", double(t.removed));
        if (t.finalInstrs != plain->program().staticInstrCount() ||
            t.added != plain->instrStats().added ||
            t.removed != plain->optStats().instrsRemoved)
            report.fail("httpd-fleet: twin build front differs from the "
                        "template's program",
                        0);
    }
    twin.set(l);

    setCounters(l, last.counters);
    l.value["sim.run_ms"] = 1e3 * median(run);
    l.value["sim.ns_per_instr"] = 1e9 * plainRun / double(plainInstrs);
    l.value["sim.interp_ns_per_instr"] =
        1e9 * interpRun / double(interpInstrs);
    l.value["jit.compile_share"] = last.counters.share(
        last.counters.profCompile);
    l.value["jit.code_share"] = last.counters.share(last.counters.profJit);
    l.value["mem.cow_pages_per_job"] =
        double(last.cowPages) / double(kFleetJobs);
    l.value["runtime.template_build_ms"] = 1e3 * median(build);
    l.value["runtime.freeze_ms"] = 1e3 * median(freeze);
    l.value["runtime.fork_ms"] = 1e3 * median(fork);
    l.value["runtime.builtin_share"] =
        last.counters.share(last.counters.profBuiltin);
    l.value["svc.worker_busy"] = median(busy);
    l.value["obs.trace_overhead"] =
        median(tracedWall) / median(plainWall) - 1;
    l.bypass("runtime.session_build_ms",
             "the template is built once; see runtime.template_build_ms");
    report.note("# sim_digest httpd-fleet " + last.digest.hex());
}

/** Largest share of the traced wall time the root span may keep as
 * its own self time, i.e. time that no layer span covers. */
constexpr double kMaxUnattributed = 0.02;

/**
 * Check the spans against `wall`, the traced run's duration taken by
 * a clock outside them, and print the self-time summary. The self
 * times always sum to the root span's duration, so the checks are
 * that the root covers the whole run, that little of it is left
 * unattributed, and that no span nests inside a span of its own name
 * (a phase timed twice). When `path` is set, every span is written
 * there as JSON.
 */
void
reportSpans(const Tracer &tracer, double wall, const std::string &path,
            const std::string &workload, Report &report)
{
    const auto &spans = tracer.spans();
    if (spans.empty() || spans[0].parent != -1) {
        report.fail("traced run recorded no root span", 0);
        return;
    }
    std::vector<double> self = tracer.selfTimes();
    double selfSum = 0;
    std::map<std::string, std::pair<double, size_t>> byName;
    for (size_t i = 0; i < spans.size(); ++i) {
        selfSum += self[i];
        auto &[sum, count] = byName[spans[i].name];
        sum += self[i];
        count += 1;
        for (int p = spans[i].parent; p >= 0; p = spans[size_t(p)].parent) {
            if (spans[size_t(p)].name == spans[i].name) {
                report.fail("span " + spans[i].name +
                                " nests inside a span of the same name",
                            0);
                break;
            }
        }
    }
    double unattributed = self[0];

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "# span self-time sum %.6f s, traced wall %.6f s "
                  "(clock outside the spans), unattributed %.3f%%",
                  selfSum, wall, 100 * unattributed / wall);
    report.note(buf);
    if (std::fabs(selfSum - wall) > 1e-3 * wall)
        report.fail("span self times do not sum to the traced wall", 0);
    if (unattributed > kMaxUnattributed * wall)
        report.fail("more of the traced wall than allowed lies in no "
                    "layer span",
                    0);
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto &[name, sc] : byName)
        ranked.emplace_back(sc.first, name);
    std::sort(ranked.rbegin(), ranked.rend());
    for (const auto &[sum, name] : ranked) {
        std::snprintf(buf, sizeof buf,
                      "#   self %-24s %10.3f ms  %5.1f%%  (%zu spans)",
                      name.c_str(), 1e3 * sum, 100 * sum / wall,
                      byName[name].second);
        report.note(buf);
    }
    if (path.empty())
        return;

    std::ofstream out(path);
    if (!out) {
        report.fail("cannot write spans to " + path, 0);
        return;
    }
    out << "{\"workload\": \"" << workload << "\", ";
    std::snprintf(buf, sizeof buf,
                  "\"wall_s\": %.9f, \"self_sum_s\": %.9f, "
                  "\"unattributed_s\": %.9f, \"spans\": [\n",
                  wall, selfSum, unattributed);
    out << buf;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"name\": \"%s\", \"trace\": %" PRIu64
                      ", \"parent\": %d, \"start_ms\": %.6f, "
                      "\"end_ms\": %.6f, \"self_ms\": %.6f",
                      i, s.name.c_str(), s.traceId, s.parent,
                      1e3 * s.start, 1e3 * s.end, 1e3 * self[i]);
        out << buf;
        if (!s.attrs.empty()) {
            out << ", \"attrs\": {";
            for (size_t a = 0; a < s.attrs.size(); ++a) {
                std::snprintf(buf, sizeof buf, "%s\"%s\": %.9g",
                              a ? ", " : "", s.attrs[a].first.c_str(),
                              s.attrs[a].second);
                out << buf;
            }
            out << "}";
        }
        out << (i + 1 < spans.size() ? "},\n" : "}\n");
    }
    out << "]}\n";
    report.note("# spans: " + std::to_string(spans.size()) + " written to " +
                path);
}

// ======================================================================
// Entry point.
// ======================================================================

/** One-line refusal for builds whose numbers would mislead. */
std::string
buildProblem()
{
    std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' (need Release or RelWithDebInfo)";
#ifndef NDEBUG
    return "assertions enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return "sanitizer build";
#endif
#endif
    if (!Machine::jitAvailable())
        return "the JIT tier is unavailable on this build/host, so the "
               "workloads would silently measure the interpreter";
    return "";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out + "\"";
}

void
printResult(const Report &report)
{
    for (const std::string &line : report.notes)
        std::printf("%s\n", line.c_str());
    for (const std::string &f : report.failures)
        std::printf("# FAILED %s\n", f.c_str());
    // A check over a whole sweep can count operations that a check of
    // their own already failed; an operation fails once.
    uint64_t failed = std::min(report.failed, report.attempted);
    std::printf("# error_rate %.6g (%" PRIu64 " failed of %" PRIu64 ")\n",
                report.attempted
                    ? double(failed) / double(report.attempted)
                    : 0.0,
                failed, report.attempted);
    std::string json = "{\"correct\": ";
    json += report.failed == 0 && report.failures.empty() ? "true"
                                                          : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &[name, vu] = report.metrics[i];
        std::snprintf(buf, sizeof buf, "%.17g", vu.first);
        json += (i ? ", " : "") + jsonString(name) + ": {\"value\": " +
                buf + ", \"unit\": " + jsonString(vu.second) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

const char *const kWorkloads[] = {"spec-fig7", "table2", "httpd-fleet"};

/** Run one workload; returns the report (metrics + verdicts). */
Report
runWorkload(const std::string &name, uint64_t seed, double seconds,
            bool trace, const std::string &spansPath)
{
    Report report;
    if (!trace) {
        if (name == "httpd-fleet") {
            FleetWorkload w(seed);
            measureFleet(w, seconds, report);
        } else {
            SequentialWorkload w = name == "spec-fig7"
                                       ? makeSpecFig7(seed)
                                       : makeTable2(seed, report);
            measureSequential(w, seconds, report);
        }
        return report;
    }

    Tracer tracer;
    Layers layers;
    ExactnessLog exact;
    double wall = 0; // the traced run, timed outside its spans
    if (name == "httpd-fleet") {
        FleetWorkload w(seed);
        auto start = Clock::now();
        traceFleet(w, seconds, report, tracer, layers, exact);
        wall = secondsSince(start);
    } else {
        SequentialWorkload w = name == "spec-fig7"
                                   ? makeSpecFig7(seed)
                                   : makeTable2(seed, report);
        auto start = Clock::now();
        traceSequential(w, seconds, report, tracer, layers, exact);
        wall = secondsSince(start);
    }
    for (const LayerSpec &m : kLayerMetrics) {
        auto it = layers.value.find(m.name);
        if (it == layers.value.end()) {
            report.fail(std::string("per-layer metric not measured: ") +
                            m.name,
                        0);
            continue;
        }
        report.set(m.name, it->second, m.unit);
    }
    for (const auto &[metric, why] : layers.absent)
        report.note("# absent " + metric + ": " + why);
    report.note(exact.line());
    reportSpans(tracer, wall, spansPath, name, report);
    return report;
}

[[noreturn]] void
usage(const char *problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "spec-fig7|table2|httpd-fleet --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] | --smoke\n",
                 problem);
    std::exit(2);
}

uint64_t
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag + ": '" + text + "'")
                  .c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    uint64_t seed = 1;
    uint64_t seconds = 10;
    uint64_t trace = 0;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = parseNumber("--seed", value);
        else if (arg == "--seconds")
            seconds = parseNumber("--seconds", value);
        else if (arg == "--trace")
            trace = parseNumber("--trace", value);
        else if (arg == "--spans")
            spansPath = value;
        else
            usage(("unknown flag " + arg).c_str());
    }

    if (!smoke) {
        if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                      workload) == std::end(kWorkloads))
            usage(("unknown workload '" + workload + "'").c_str());
        if (seconds < 1 || seconds > 600)
            usage("--seconds must be 1..600");
        if (trace > 1)
            usage("--trace must be 0 or 1");
    }

    std::string problem = buildProblem();
    if (!problem.empty()) {
        std::fprintf(stderr, "perfbench: refusing to run: %s\n",
                     problem.c_str());
        return 2;
    }
    std::printf("# host {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"jit\": %s}\n",
                std::thread::hardware_concurrency(),
                jsonString(cpuModel()).c_str(),
                jsonString(PERFBENCH_COMPILER).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                Machine::jitAvailable() ? "true" : "false");

    if (smoke) {
        // One short pass per workload; non-zero exit on any failure.
        uint64_t failed = 0;
        for (const char *name : kWorkloads) {
            Report r = runWorkload(name, seed, 0.0, false, "");
            std::printf("# smoke %s: %" PRIu64 " of %" PRIu64 " failed\n",
                        name, r.failed, r.attempted);
            for (const std::string &f : r.failures)
                std::printf("# FAILED %s\n", f.c_str());
            failed += r.failed + r.failures.size();
        }
        return failed ? 1 : 0;
    }

    Report report = runWorkload(workload, seed, double(seconds), trace == 1,
                                spansPath);
    printResult(report);
    return 0;
}
