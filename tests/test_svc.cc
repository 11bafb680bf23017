/**
 * @file
 * Fleet-service unit tests: the bounded MPMC queue, machine snapshot
 * capture/restore, the SessionTemplate compile-once / clone-many
 * factory, the Session run-once guard, and per-clone log tagging.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "runtime/session_template.hh"
#include "session_helpers.hh"
#include "support/logging.hh"
#include "svc/fleet.hh"
#include "svc/mpmc_queue.hh"
#include "workloads/httpd.hh"

namespace shift
{
namespace
{

using svc::MpmcQueue;
using testutil::shiftOptions;

// ----- MpmcQueue --------------------------------------------------------

TEST(MpmcQueue, FifoThroughOneThread)
{
    MpmcQueue<int> q(8);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), std::optional<int>(1));
    EXPECT_EQ(q.pop(), std::optional<int>(2));
    EXPECT_EQ(q.pop(), std::optional<int>(3));
}

TEST(MpmcQueue, CloseDrainsThenEndsStream)
{
    MpmcQueue<int> q(8);
    q.push(10);
    q.push(20);
    q.close();
    EXPECT_FALSE(q.push(30)); // rejected after close
    EXPECT_EQ(q.pop(), std::optional<int>(10));
    EXPECT_EQ(q.pop(), std::optional<int>(20));
    EXPECT_EQ(q.pop(), std::nullopt); // end of stream, no block
}

TEST(MpmcQueue, BoundedPushBlocksUntilPopped)
{
    MpmcQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(2); // must block: queue is full
        pushed.store(true);
    });
    // Give the producer a chance to (wrongly) complete.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop(), std::optional<int>(1));
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop(), std::optional<int>(2));
}

TEST(MpmcQueue, ManyProducersManyConsumers)
{
    constexpr int kPerProducer = 200;
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    MpmcQueue<int> q(4);
    std::atomic<long> sum{0};
    std::atomic<int> count{0};

    std::vector<std::thread> threads;
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (std::optional<int> v = q.pop()) {
                sum.fetch_add(*v);
                count.fetch_add(1);
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(p * kPerProducer + i);
        });
    }
    for (std::thread &t : producers)
        t.join();
    q.close();
    for (std::thread &t : threads)
        t.join();

    int n = kProducers * kPerProducer;
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

// ----- Session run-once guard -------------------------------------------

TEST(Session, SecondRunIsFatal)
{
    Session session("int main() { return 7; }", shiftOptions());
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, 7);
    EXPECT_THROW(session.run(), FatalError);
}

// ----- SessionTemplate / SessionClone -----------------------------------

const char *const kCounterSource =
    "int counter;"
    "int main() {"
    "  counter = counter + 1;"
    "  print_num(counter);"
    "  return counter;"
    "}";

TEST(SessionTemplate, ClonesMatchFreshSessionBitForBit)
{
    const char *src =
        "char buf[64];"
        "int main() {"
        "  __taint(buf, 64);"
        "  int i = 0; int acc = 0;"
        "  while (i < 1000) { acc = acc + i * 3; i = i + 1; }"
        "  print_num(acc);"
        "  return __mem_tainted(buf);"
        "}";

    Session fresh(src, shiftOptions());
    RunResult freshResult = fresh.run();
    std::string freshStdout = fresh.os().stdoutText();

    SessionTemplate tmpl(src, shiftOptions());
    for (int i = 0; i < 3; ++i) {
        auto clone = tmpl.instantiate();
        RunResult r = clone->run();
        EXPECT_EQ(r.exitCode, freshResult.exitCode);
        EXPECT_EQ(r.cycles, freshResult.cycles) << "clone " << i;
        EXPECT_EQ(r.instructions, freshResult.instructions);
        EXPECT_EQ(clone->os().stdoutText(), freshStdout);
    }
}

TEST(SessionTemplate, ClonesAreIsolated)
{
    // Each clone starts from the same snapshot: the global counter is
    // 1 in every clone, not accumulated across clones.
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    for (int i = 0; i < 4; ++i) {
        auto clone = tmpl.instantiate();
        RunResult r = clone->run();
        EXPECT_TRUE(r.exited);
        EXPECT_EQ(r.exitCode, 1) << "clone " << i << " saw a sibling's "
                                 << "write through a shared page";
    }
}

TEST(SessionTemplate, CloneIsSingleUse)
{
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    auto clone = tmpl.instantiate();
    clone->run();
    EXPECT_THROW(clone->run(), FatalError);
}

TEST(SessionTemplate, ProvisioningAfterFreezeIsFatal)
{
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    tmpl.os(); // fine before freeze
    auto clone = tmpl.instantiate();
    EXPECT_TRUE(tmpl.frozen());
    EXPECT_THROW(tmpl.os(), FatalError);
}

TEST(SessionTemplate, SnapshotSharesPagesAndClonesCowLittle)
{
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    auto clone = tmpl.instantiate();
    size_t shared = tmpl.snapshotPages();
    EXPECT_GT(shared, 0u);
    Memory &mem = clone->machine().memory();
    EXPECT_EQ(mem.cowCopies(), 0u);
    EXPECT_EQ(mem.privatePageCount(), 0u);
    EXPECT_EQ(mem.pageCount(), shared);

    std::set<uint64_t> copied;
    mem.setCowHook([&](uint64_t addr) {
        copied.insert(addr >> Memory::kPageShift);
    });
    clone->run();

    // Clone cost is O(snapshot pages written): the one snapshot page
    // the run writes (the counter's) is copied once...
    uint64_t dirtied = mem.cowCopies();
    EXPECT_EQ(dirtied, 1u);
    EXPECT_EQ(dirtied, copied.size());
    EXPECT_TRUE(copied.count(clone->machine().globalAddr("counter") >>
                             Memory::kPageShift));
    // ...and exactly the private pages that hide a snapshot page are
    // copies. The rest — the stack frames and tag pages the run
    // touched first — are demand-zero allocations, not copies.
    size_t demandZero = mem.pageCount() - shared;
    EXPECT_GT(demandZero, 0u);
    EXPECT_EQ(dirtied, mem.privatePageCount() - demandZero);
    for (uint64_t key : copied) {
        uint64_t addr = key << Memory::kPageShift;
        EXPECT_FALSE(addr - kStackBase < kStackSize)
            << "stack page 0x" << std::hex << addr
            << " was in the snapshot";
    }
}

TEST(SessionTemplate, ConcurrentClonesComputeIdenticalResults)
{
    SessionTemplate tmpl(kCounterSource, shiftOptions());
    tmpl.freeze();

    constexpr int kThreads = 8;
    std::vector<RunResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            auto clone = tmpl.instantiate();
            results[i] = clone->run();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        EXPECT_TRUE(results[i].exited);
        EXPECT_EQ(results[i].exitCode, 1);
        EXPECT_EQ(results[i].cycles, results[0].cycles);
    }
}

// ----- shared file bodies and moved responses ---------------------------

// A reader clone serves /doc back 50 times; a writer clone write-opens
// /doc and rewrites it 50 times. The request picks the role.
const char *const kDocSource =
    "char buf[64];"
    "char req[8];"
    "int main() {"
    "  int conn = accept();"
    "  recv(conn, req, 1);"
    "  int i = 0;"
    "  while (i < 50) {"
    "    if (req[0] == 'w') {"
    "      int out = open(\"/doc\", 1);"
    "      write(out, \"mutated\", 7);"
    "      close(out);"
    "    } else {"
    "      int in = open(\"/doc\", 0);"
    "      int n = read(in, buf, 63);"
    "      close(in);"
    "      send(conn, buf, n);"
    "    }"
    "    i = i + 1;"
    "  }"
    "  return 0;"
    "}";

TEST(SessionTemplate, WriteOpenedFileStaysPrivateToItsClone)
{
    SessionTemplate tmpl(kDocSource, shiftOptions());
    tmpl.os().addFile("/doc", "original");
    tmpl.freeze();
    std::string expected;
    for (int i = 0; i < 50; ++i)
        expected += "original";

    // Writers and readers run at the same time on separate threads;
    // every reader must see the provisioned bytes throughout.
    constexpr int kClones = 4;
    std::vector<std::string> written(kClones), served(kClones);
    std::thread writer([&] {
        for (int i = 0; i < kClones; ++i) {
            auto clone = tmpl.instantiate();
            clone->os().queueConnection("w");
            clone->run();
            const auto &bytes = clone->os().fileBytes("/doc");
            written[i].assign(bytes.begin(), bytes.end());
        }
    });
    std::thread reader([&] {
        for (int i = 0; i < kClones; ++i) {
            auto clone = tmpl.instantiate();
            clone->os().queueConnection("r");
            clone->run();
            std::vector<std::string> responses = clone->os().takeResponses();
            served[i] = responses.empty() ? "" : responses[0];
        }
    });
    writer.join();
    reader.join();
    for (int i = 0; i < kClones; ++i) {
        EXPECT_EQ(written[i], "mutated") << "writer " << i;
        EXPECT_EQ(served[i], expected) << "reader " << i;
    }

    // A clone forked after the writers still starts from the template.
    auto late = tmpl.instantiate();
    const auto &bytes = late->os().fileBytes("/doc");
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "original");
}

TEST(Fleet, MovedResponsesMatchFreshSessions)
{
    // The paper's Fig. 6 file sizes, served by 4 concurrent workers;
    // every job's responses must equal a single-use Session's.
    const uint64_t kSizes[] = {4 * 1024, 8 * 1024, 16 * 1024, 512 * 1024};
    auto provision = [&](Os &os) {
        workloads::provisionHttpdOs(os, kSizes[0]);
        for (uint64_t size : kSizes)
            os.addFile("/www/f" + std::to_string(size) + ".bin",
                       workloads::httpdFileBody(size));
    };
    SessionOptions options = workloads::httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte, CpuFeatures{},
        ExecEngine::Predecoded);
    options.fastPath = true;
    SessionTemplate tmpl(workloads::kHttpdSource, options);
    provision(tmpl.os());

    std::vector<svc::FleetJob> jobs;
    for (int j = 0; j < 8; ++j) {
        svc::FleetJob job;
        job.id = j;
        for (int r = 0; r <= j % 3; ++r) {
            uint64_t size = kSizes[(j + r) % 4];
            job.requests.push_back("GET /f" + std::to_string(size) +
                                   ".bin HTTP/1.0\r\n\r\n");
        }
        jobs.push_back(job);
    }
    svc::FleetOptions fleetOptions;
    fleetOptions.workers = 4;
    svc::Fleet fleet(tmpl, fleetOptions);
    svc::FleetReport report = fleet.serve(jobs);
    ASSERT_EQ(report.jobResults.size(), jobs.size());

    for (const svc::FleetJobResult &jr : report.jobResults) {
        Session fresh(workloads::kHttpdSource, options);
        provision(fresh.os());
        for (const std::string &request : jobs[size_t(jr.id)].requests)
            fresh.os().queueConnection(request);
        RunResult r = fresh.run();
        EXPECT_EQ(jr.result.cycles, r.cycles) << "job " << jr.id;
        ASSERT_EQ(jr.responses.size(), fresh.os().responses().size());
        for (size_t i = 0; i < jr.responses.size(); ++i) {
            const std::string &got = jr.responses[i];
            EXPECT_EQ(got, fresh.os().responses()[i])
                << "job " << jr.id << " response " << i;
            uint64_t size = kSizes[(size_t(jr.id) + i) % 4];
            std::string body = workloads::httpdFileBody(size);
            ASSERT_GT(got.size(), body.size());
            EXPECT_EQ(got.compare(got.size() - body.size(), body.size(),
                                  body),
                      0);
        }
    }
}

// ----- log tagging ------------------------------------------------------

TEST(Logging, CloneTagPrefixesOutput)
{
    setVerbose(true);
    setLogCloneTag(5);
    testing::internal::CaptureStderr();
    SHIFT_WARN("from a worker");
    std::string tagged = testing::internal::GetCapturedStderr();
    setLogCloneTag(-1);
    testing::internal::CaptureStderr();
    SHIFT_WARN("from the main thread");
    std::string untagged = testing::internal::GetCapturedStderr();
    setVerbose(false);

    EXPECT_EQ(tagged, "warn: [clone 5] from a worker\n");
    EXPECT_EQ(untagged, "warn: from the main thread\n");
}

} // namespace
} // namespace shift
