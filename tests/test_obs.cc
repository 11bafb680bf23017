/**
 * @file
 * The observability plane: flight-recorder rings, Chrome-JSON drains,
 * histogram algebra, metrics exporters, and taint provenance chains.
 *
 * The provenance suite runs every table-2 attack with the recorder on
 * and requires each policy kill to carry a non-empty chain ending at
 * the failing check; the trace-format suite validates the drained
 * JSON with a real parser rather than string probes, since "loads in
 * Perfetto" is the contract.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/exporter.hh"
#include "obs/perfmap.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "session_helpers.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"

namespace shift
{
namespace
{

/**
 * A minimal JSON well-formedness checker (recursive descent over the
 * full grammar, values discarded). Returns false instead of throwing
 * so EXPECT output stays readable.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

/** RAII recorder so a failing test never leaks an active recorder. */
struct ScopedRecorder
{
    explicit ScopedRecorder(obs::RecorderOptions options = {})
    {
        rec = obs::Recorder::enable(options);
    }
    ~ScopedRecorder() { obs::Recorder::disable(); }
    obs::Recorder *rec;
};

// ----- TraceBuffer ------------------------------------------------------

TEST(TraceBuffer, WrapOverwritesOldestAndCountsDrops)
{
    obs::TraceBuffer buf(64, -1);
    EXPECT_EQ(buf.capacity(), 64u);
    for (uint64_t i = 0; i < 100; ++i)
        buf.emit(obs::Ev::TaintStore, 0, -1, i, i);
    EXPECT_EQ(buf.emitted(), 100u);
    EXPECT_EQ(buf.dropped(), 36u);
    EXPECT_EQ(buf.size(), 64u);

    // Retained events are the newest 64, oldest-first.
    std::vector<uint64_t> pcs;
    buf.forEach([&](const obs::TraceEvent &e) { pcs.push_back(e.pc); });
    ASSERT_EQ(pcs.size(), 64u);
    EXPECT_EQ(pcs.front(), 36u);
    EXPECT_EQ(pcs.back(), 99u);
}

TEST(TraceBuffer, CapacityRoundsUpToPowerOfTwo)
{
    obs::TraceBuffer buf(100, 0);
    EXPECT_EQ(buf.capacity(), 128u);
    obs::TraceBuffer tiny(1, 0);
    EXPECT_EQ(tiny.capacity(), 64u); // floor
}

TEST(TraceBuffer, TaintChainKeepsSourceAcrossEviction)
{
    obs::TraceBuffer buf(256, -1);
    buf.emit(obs::Ev::TaintSource, obs::packChannel("network"), -1, 5,
             0x1000, 32);
    for (uint64_t i = 0; i < 40; ++i)
        buf.emit(obs::Ev::TaintStore, 0, -1, 10 + i, 0x2000 + i);
    buf.emit(obs::Ev::PolicyKill, obs::packPolicyId("H2"), -1, 99);
    std::vector<obs::TraceEvent> chain = buf.taintChain(8);
    ASSERT_FALSE(chain.empty());
    // The source survives the last-8 window; the kill closes the chain.
    EXPECT_EQ(chain.front().kind,
              static_cast<uint16_t>(obs::Ev::TaintSource));
    EXPECT_EQ(chain.back().kind,
              static_cast<uint16_t>(obs::Ev::PolicyKill));
    EXPECT_EQ(chain.back().pc, 99u);
}

TEST(TraceBuffer, NonTaintEventsStayOutOfChains)
{
    obs::TraceBuffer buf(64, -1);
    buf.emit(obs::Ev::FastEnter, 0, 0, 1);
    buf.emit(obs::Ev::CowCopy, 0, 0, 2);
    buf.emit(obs::Ev::JobFork, 0, -1, 0, 7);
    EXPECT_TRUE(buf.taintChain(16).empty());
}

// ----- Histogram --------------------------------------------------------

TEST(Histogram, BucketBoundaries)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 63u);
    EXPECT_EQ(Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Histogram::bucketHigh(0), 0u);
    EXPECT_EQ(Histogram::bucketLow(3), 4u);
    EXPECT_EQ(Histogram::bucketHigh(3), 7u);
}

TEST(Histogram, QuantilesBracketedByMinMax)
{
    Histogram h;
    for (uint64_t v : {10, 20, 30, 40, 50, 1000})
        h.record(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_GE(h.quantile(0.0), 10u);
    EXPECT_LE(h.quantile(1.0), 1000u);
    EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
    Histogram empty;
    EXPECT_EQ(empty.quantile(0.5), 0u);
}

TEST(Histogram, MergeIsAssociative)
{
    auto fill = [](Histogram &h, uint64_t seed, int n) {
        uint64_t x = seed;
        for (int i = 0; i < n; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            h.record(x >> 40);
        }
    };
    Histogram a, b, c;
    fill(a, 1, 100);
    fill(b, 2, 257);
    fill(c, 3, 33);

    Histogram leftFirst = a;   // (a + b) + c
    leftFirst.merge(b);
    leftFirst.merge(c);
    Histogram rightFirst = b;  // a + (b + c)
    rightFirst.merge(c);
    Histogram result = a;
    result.merge(rightFirst);

    EXPECT_EQ(leftFirst.count(), result.count());
    EXPECT_EQ(leftFirst.sum(), result.sum());
    EXPECT_EQ(leftFirst.min(), result.min());
    EXPECT_EQ(leftFirst.max(), result.max());
    EXPECT_EQ(leftFirst.buckets(), result.buckets());
    EXPECT_EQ(leftFirst.quantile(0.5), result.quantile(0.5));
    EXPECT_EQ(leftFirst.quantile(0.99), result.quantile(0.99));
}

TEST(StatSet, DumpFormatAndMergeShapes)
{
    StatSet a;
    a.add("engine.instrs.total", 10);
    a.setGauge("fleet.workers", 4);
    a.record("fleet.latency.cycles", 100);
    StatSet b;
    b.add("engine.instrs.total", 5);
    b.setGauge("fleet.workers", 2);
    b.record("fleet.latency.cycles", 300);
    a.merge(b);
    EXPECT_EQ(a.get("engine.instrs.total"), 15u);
    EXPECT_EQ(a.gauge("fleet.workers"), 4u); // gauges keep the max
    const Histogram *h = a.histogram("fleet.latency.cycles");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);

    std::string dump = a.dump();
    EXPECT_NE(dump.find("counter engine.instrs.total = 15"),
              std::string::npos);
    EXPECT_NE(dump.find("gauge fleet.workers = 4"), std::string::npos);
    EXPECT_NE(dump.find("hist fleet.latency.cycles count=2"),
              std::string::npos);
}

// ----- exporters --------------------------------------------------------

TEST(Exporter, PrometheusShapes)
{
    StatSet stats;
    stats.add("engine.instrs.total", 42);
    stats.add("fastpath.deopts.main@12", 3);
    stats.add("fastpath.deopts.handle@7", 1);
    stats.setGauge("fleet.workers", 4);
    stats.record("fleet.latency.cycles", 100);
    stats.record("fleet.latency.cycles", 5000);

    std::string text = obs::renderPrometheus(stats);
    EXPECT_NE(text.find("shift_engine_instrs_total 42"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE shift_fleet_workers gauge"),
              std::string::npos);
    EXPECT_NE(text.find("shift_fleet_workers 4"), std::string::npos);
    // '@'-attributed counters become one labelled family with the
    // site split into {function, pc} labels — '@' is not legal in a
    // Prometheus metric name, and per-site label values keep the
    // family space bounded.
    EXPECT_NE(text.find("shift_fastpath_deopts_total"
                        "{function=\"main\",pc=\"12\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("{function=\"handle\",pc=\"7\"} 1"),
              std::string::npos);
    // Histogram triple with cumulative buckets and +Inf.
    EXPECT_NE(text.find("shift_fleet_latency_cycles_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("shift_fleet_latency_cycles_sum 5100"),
              std::string::npos);
    EXPECT_NE(text.find("shift_fleet_latency_cycles_count 2"),
              std::string::npos);
}

TEST(Exporter, JsonStatsParse)
{
    StatSet stats;
    stats.add("engine.instrs.total", 7);
    stats.setGauge("fleet.workers", 2);
    stats.record("fleet.cow.pages", 12);
    std::string text = obs::renderJsonStats(stats);
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"engine.instrs.total\": 7"), std::string::npos);
}

TEST(Exporter, PeriodicExporterWritesSink)
{
    ConcurrentStatSet live;
    live.add("engine.instrs.total", 9);
    std::string path = ::testing::TempDir() + "obs_metrics_test.txt";

    obs::PeriodicExporter exporter;
    exporter.start(0.01, path, obs::MetricsFormat::Prometheus,
                   [&live] { return live.snapshot(); });
    while (exporter.ticks() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    exporter.stop();
    EXPECT_GE(exporter.ticks(), 2u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("shift_engine_instrs_total 9"),
              std::string::npos);
    std::remove(path.c_str());
}

// ----- recorder + session integration -----------------------------------

/**
 * Reads 48 tainted bytes and copies them repeatedly: every tainted
 * byte store writes its tag, so one run emits a few hundred
 * TaintStore events — enough to wrap a 64-event ring.
 */
constexpr const char *kTaintyProgram = R"MC(
char buf[64];
char out[64];
int main() {
    int fd = open("/in.txt", 0);
    int n = read(fd, buf, 48);
    int pass = 0;
    while (pass < 4) {
        int i = 0;
        while (i < n) {
            out[i] = buf[i];
            i = i + 1;
        }
        pass = pass + 1;
    }
    return n;
}
)MC";

RunResult
runTainty(uint32_t capacity)
{
    obs::RecorderOptions options;
    options.capacity = capacity;
    ScopedRecorder recorder(options);
    return testutil::runShift(kTaintyProgram, Granularity::Byte,
                              [](Session &s) {
                                  s.os().addFile(
                                      "/in.txt",
                                      std::string(48, 'A'));
                              });
}

TEST(Recorder, SessionEmitsEventsIntoStats)
{
    RunResult result = runTainty(1 << 14);
    EXPECT_TRUE(result.exited);
    EXPECT_GT(result.stats.get("obs.events"), 0u);
    EXPECT_EQ(result.stats.get("obs.dropped"), 0u);
}

TEST(Recorder, TinyRingReportsDrops)
{
    RunResult result = runTainty(64);
    EXPECT_TRUE(result.exited);
    // 48 tainted bytes copied through out[] emit > 64 taint stores:
    // the ring wraps and the drop count surfaces as obs.dropped.
    EXPECT_GT(result.stats.get("obs.dropped"), 0u);
}

TEST(Recorder, ChromeJsonIsWellFormed)
{
    ScopedRecorder recorder;
    RunResult result = testutil::runShift(
        kTaintyProgram, Granularity::Byte, [](Session &s) {
            s.os().addFile("/in.txt", std::string(48, 'A'));
        });
    EXPECT_TRUE(result.exited);

    std::ostringstream os;
    recorder.rec->writeChromeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid())
        << json.substr(0, 400) << "...";
    // trace_event envelope + the spans/instants we expect.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"compile\""), std::string::npos);
    EXPECT_NE(json.find("\"taint.source\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

TEST(Recorder, StatIntoCountsBuffers)
{
    ScopedRecorder recorder;
    obs::TraceBuffer *a = recorder.rec->acquireBuffer(0);
    obs::TraceBuffer *b = recorder.rec->acquireBuffer(1);
    a->emit(obs::Ev::JobFork);
    b->emit(obs::Ev::JobFork);
    b->emit(obs::Ev::JobMerge);
    StatSet stats;
    recorder.rec->statInto(stats);
    EXPECT_EQ(stats.gauge("obs.buffers"), 2u);
    EXPECT_EQ(stats.get("obs.events"), 3u);
    EXPECT_EQ(stats.get("obs.dropped"), 0u);
}

// ----- provenance on the table-2 attacks --------------------------------

TEST(Provenance, EveryAttackKillCarriesAChain)
{
    for (const workloads::AttackScenario &scenario :
         workloads::attackScenarios()) {
        SCOPED_TRACE(scenario.name);
        ScopedRecorder recorder;
        workloads::AttackRun run = workloads::runAttackScenario(
            scenario, /*exploit=*/true, Granularity::Byte);
        ASSERT_TRUE(run.detected) << scenario.expectedPolicy;
        ASSERT_FALSE(run.result.provenance.empty());
        // The chain ends at the failing check: a policy kill whose pc
        // matches the alert the run reported.
        const obs::TraceEvent &last = run.result.provenance.back();
        EXPECT_EQ(last.kind, static_cast<uint16_t>(obs::Ev::PolicyKill));
        ASSERT_FALSE(run.result.alerts.empty());
        EXPECT_EQ(last.pc, run.result.alerts.back().pc);
        EXPECT_EQ(obs::unpackPolicyId(last.aux),
                  run.result.alerts.back().policy);
        // And renders as one line per event.
        std::string text = recorder.rec->renderChain(run.result.provenance);
        EXPECT_NE(text.find("policy.kill"), std::string::npos);
    }
}

// ----- clone-tagged fatal sink ------------------------------------------

TEST(Logging, FatalEmbedsCloneTag)
{
    setLogCloneTag(3);
    EXPECT_EQ(logCloneTag(), 3);
    try {
        SHIFT_FATAL("boom %d", 42);
        FAIL() << "SHIFT_FATAL returned";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("[clone 3]"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("boom 42"),
                  std::string::npos);
    }
    setLogCloneTag(-1);
    try {
        SHIFT_FATAL("quiet");
        FAIL() << "SHIFT_FATAL returned";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()).find("[clone"),
                  std::string::npos);
    }
}

// ----- tier-attribution profiler ----------------------------------------

/** Resolve func indices the way the tests build them: f<index>. */
std::string
testFuncName(int32_t func)
{
    return func < 0 ? std::string("host") : "f" + std::to_string(func);
}

/** Burn enough host time for a measurable steady_clock interval. */
void
spin()
{
    volatile uint64_t sink = 0;
    for (int i = 0; i < 20000; ++i)
        sink = sink + uint64_t(i);
}

/** A small table with carved, entered and sampled intervals. */
StatSet
makeProfileStats(int seed)
{
    obs::Profiler p;
    p.begin();
    uint64_t t0 = obs::Profiler::nowNanos();
    spin();
    p.carveSince(obs::Tier::AsyncPublish, seed, uint32_t(7 * seed), t0);
    p.enter(obs::Tier::Builtin, seed, 3);
    spin();
    p.enter(obs::Tier::Host, -1, 0);
    spin();
    p.sample(obs::Tier::InterpSlow, 0, uint32_t(seed));
    p.stop();
    StatSet stats;
    p.statInto(stats, testFuncName);
    return stats;
}

uint64_t
profTierSum(const StatSet &stats)
{
    uint64_t sum = 0;
    stats.forEach([&](const std::string &name, uint64_t value) {
        if (name.rfind("prof.tier.", 0) == 0)
            sum += value;
    });
    return sum;
}

TEST(Profiler, AttributionSumsExactlyAcrossTiers)
{
    StatSet stats = makeProfileStats(2);
    uint64_t total = stats.get("prof.total.nanos");
    EXPECT_GT(total, 0u);
    // Every attributed nanosecond lands in exactly one tier bucket:
    // the sum is EXACT, not approximate — the property the profiler's
    // whole accounting model hangs on.
    EXPECT_EQ(profTierSum(stats), total);
    EXPECT_GT(stats.get("prof.tier.async-publish.nanos"), 0u);
    EXPECT_GT(stats.get("prof.tier.builtin.nanos"), 0u);
    // The carved interval kept its {tier, function, pc} tag.
    EXPECT_GT(stats.get("prof.site.async-publish.f2@14.nanos"), 0u);
    EXPECT_EQ(stats.get("prof.samples"), 1u);
}

TEST(Profiler, StatSetMergeOfTablesIsAssociative)
{
    // Fleet merge discipline: per-clone tables fold to prof.* counters
    // and the report is an ordinary StatSet merge, so any merge order
    // must produce the same profile.
    StatSet a = makeProfileStats(1);
    StatSet b = makeProfileStats(2);
    StatSet c = makeProfileStats(3);

    StatSet leftFirst = a; // (a + b) + c
    leftFirst.merge(b);
    leftFirst.merge(c);
    StatSet rightFirst = b; // a + (b + c)
    rightFirst.merge(c);
    StatSet result = a;
    result.merge(rightFirst);

    size_t leftRows = 0;
    leftFirst.forEach([&](const std::string &name, uint64_t value) {
        ++leftRows;
        EXPECT_EQ(result.get(name), value) << name;
    });
    size_t rightRows = 0;
    result.forEach([&](const std::string &, uint64_t) { ++rightRows; });
    EXPECT_EQ(leftRows, rightRows);
    // And the merged profile still reconciles.
    EXPECT_EQ(profTierSum(result), result.get("prof.total.nanos"));
}

TEST(Profiler, SessionProfileTierSumMatchesTotal)
{
    SessionOptions options = testutil::shiftOptions();
    options.profile = true;
    Session session(kTaintyProgram, options);
    session.os().addFile("/in.txt", std::string(48, 'A'));
    RunResult result = session.run();
    EXPECT_TRUE(result.exited);

    uint64_t total = result.stats.get("prof.total.nanos");
    EXPECT_GT(total, 0u);
    EXPECT_EQ(profTierSum(result.stats), total);
    // Site rows carry the <function>@<pc> taxonomy.
    bool sawSite = false;
    result.stats.forEach([&](const std::string &name, uint64_t) {
        if (name.rfind("prof.site.", 0) == 0 &&
            name.find('@') != std::string::npos)
            sawSite = true;
    });
    EXPECT_TRUE(sawSite);
}

TEST(Profiler, FleetCloneTablesMergeIntoReport)
{
    workloads::HttpdFleetConfig config;
    config.jobs = 4;
    config.requestsPerJob = 2;
    config.workers = 2;
    config.profile = true;
    workloads::HttpdFleetRun fleet = workloads::runHttpdFleet(config);
    ASSERT_TRUE(fleet.report.allOk);

    // Four clones, four private tables, one associative StatSet merge:
    // the aggregate must still reconcile tier-for-tier.
    uint64_t total = fleet.report.stats.get("prof.total.nanos");
    EXPECT_GT(total, 0u);
    EXPECT_EQ(profTierSum(fleet.report.stats), total);
}

TEST(Profiler, RenderersParseAndWriteBothFormats)
{
    StatSet stats = makeProfileStats(2);

    std::string json = obs::renderProfileJson(stats);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"totalNanos\""), std::string::npos);

    std::string collapsed = obs::renderProfileCollapsed(stats);
    EXPECT_NE(collapsed.find("shift;async-publish;f2@14 "),
              std::string::npos);

    std::string summary = obs::renderProfileSummary(stats);
    EXPECT_NE(summary.find("async-publish"), std::string::npos);

    // writeProfileFile: extension selects the format.
    std::string cpath = ::testing::TempDir() + "prof_test.collapsed";
    std::string jpath = ::testing::TempDir() + "prof_test.json";
    ASSERT_TRUE(obs::writeProfileFile(stats, cpath));
    ASSERT_TRUE(obs::writeProfileFile(stats, jpath));
    std::ifstream cin(cpath);
    std::stringstream cbody;
    cbody << cin.rdbuf();
    EXPECT_EQ(cbody.str().rfind("shift;", 0), 0u) << cbody.str();
    std::ifstream jin(jpath);
    std::stringstream jbody;
    jbody << jin.rdbuf();
    EXPECT_TRUE(JsonChecker(jbody.str()).valid());
    std::remove(cpath.c_str());
    std::remove(jpath.c_str());
}

TEST(Exporter, SiteLabelsAcrossMetricKinds)
{
    StatSet stats;
    stats.add("prof.site.interp-slow.eval@7.nanos", 40);
    stats.add("prof.site.interp-slow.main@12.nanos", 100);
    stats.setGauge("jit.resident.main@3", 2);
    stats.record("async.fence.lag.main@5.cycles", 64);

    std::string text = obs::renderPrometheus(stats);
    // Counter sites embedded before a unit suffix: the suffix rejoins
    // the family, both sites share one TYPE line.
    const char *family = "# TYPE shift_prof_site_interp_slow_nanos_total";
    size_t first = text.find(family);
    ASSERT_NE(first, std::string::npos) << text;
    EXPECT_EQ(text.find(family, first + 1), std::string::npos);
    EXPECT_NE(text.find("shift_prof_site_interp_slow_nanos_total"
                        "{function=\"eval\",pc=\"7\"} 40"),
              std::string::npos);
    EXPECT_NE(text.find("{function=\"main\",pc=\"12\"} 100"),
              std::string::npos);
    // Gauges split the same way.
    EXPECT_NE(text.find("shift_jit_resident{function=\"main\",pc=\"3\"} 2"),
              std::string::npos);
    // Histograms merge the site labels with le on bucket lines and
    // carry them plain on _sum/_count.
    EXPECT_NE(text.find("shift_async_fence_lag_cycles_bucket"
                        "{function=\"main\",pc=\"5\",le=\""),
              std::string::npos);
    EXPECT_NE(text.find("shift_async_fence_lag_cycles_sum"
                        "{function=\"main\",pc=\"5\"} 64"),
              std::string::npos);
    EXPECT_NE(text.find("shift_async_fence_lag_cycles_count"
                        "{function=\"main\",pc=\"5\"} 1"),
              std::string::npos);
    // No '@' survives anywhere in the rendered text.
    EXPECT_EQ(text.find('@'), std::string::npos) << text;
}

TEST(Exporter, PeriodicExporterStartStopChurn)
{
    ConcurrentStatSet live;
    live.add("engine.instrs.total", 1);
    std::string path = ::testing::TempDir() + "obs_churn_test.txt";

    // Rapid start/stop cycles, half of them stopping before the first
    // interval elapses — the shutdown handshake (cv + final render)
    // is what the TSan tier-2 pass is pointed at.
    obs::PeriodicExporter exporter;
    for (int i = 0; i < 10; ++i) {
        exporter.start(0.001, path, obs::MetricsFormat::Json,
                       [&live] { return live.snapshot(); });
        if (i % 2) {
            uint64_t before = exporter.ticks();
            while (exporter.ticks() == before)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        exporter.stop();
    }
    // Every stop() renders once more, so ten cycles tick at least ten
    // times.
    EXPECT_GE(exporter.ticks(), 10u);
    std::remove(path.c_str());
}

// ----- JIT symbol sink (perf map / jitdump) -----------------------------

TEST(PerfMap, MapFileListsSymbols)
{
    std::string path = ::testing::TempDir() + "perfmap_test.map";
    ASSERT_TRUE(obs::PerfJitSink::enable(path));
    EXPECT_TRUE(obs::PerfJitSink::active());
    EXPECT_EQ(obs::PerfJitSink::path(), path);

    static const unsigned char code[16] = {0xc3};
    obs::PerfJitSink::add("main@12", code, sizeof(code));
    obs::PerfJitSink::add("main@12.fast", code, sizeof(code));
    obs::PerfJitSink::disable();
    EXPECT_FALSE(obs::PerfJitSink::active());
    EXPECT_EQ(obs::PerfJitSink::path(), "");

    // perf map text format: "<hex addr> <hex size> <name>" per line.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line1;
    std::string line2;
    ASSERT_TRUE(std::getline(in, line1));
    ASSERT_TRUE(std::getline(in, line2));
    uint64_t addr = 0;
    uint64_t size = 0;
    char name[64] = {};
    ASSERT_EQ(std::sscanf(line1.c_str(), "%llx %llx %63s",
                          (unsigned long long *)&addr,
                          (unsigned long long *)&size, name),
              3)
        << line1;
    EXPECT_EQ(addr, (uint64_t)(uintptr_t)code);
    EXPECT_EQ(size, sizeof(code));
    EXPECT_STREQ(name, "main@12");
    EXPECT_NE(line2.find("main@12.fast"), std::string::npos);
    std::remove(path.c_str());
}

TEST(PerfMap, JitdumpCarriesMagicAndPayload)
{
    std::string path = ::testing::TempDir() + "perfmap_test.dump";
    ASSERT_TRUE(obs::PerfJitSink::enable(path));

    static const unsigned char code[16] = {0xc3};
    obs::PerfJitSink::add("handle@7", code, sizeof(code));
    obs::PerfJitSink::disable();

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    uint32_t magic = 0;
    in.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    EXPECT_EQ(magic, 0x4A695444u); // "JiTD", writer-endian
    in.seekg(0, std::ios::end);
    // Header + one JIT_CODE_LOAD record with name + code payload.
    EXPECT_GT(size_t(in.tellg()),
              sizeof(magic) + std::strlen("handle@7") + sizeof(code));
    std::remove(path.c_str());
}

} // namespace
} // namespace shift
