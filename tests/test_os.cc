/**
 * @file
 * Simulated-OS tests: files, sockets, stdout, the input hook, and the
 * I/O cost model, driven through runtime built-ins.
 */

#include <gtest/gtest.h>

#include "runtime/session.hh"
#include "session_helpers.hh"

namespace shift
{
namespace
{

SessionOptions
plain()
{
    SessionOptions options;
    options.mode = TrackingMode::None;
    return options;
}

TEST(Os, FileReadWriteRoundTrip)
{
    Session session(
        "char buf[64];"
        "int main() {"
        "  int in = open(\"a.txt\", 0);"
        "  int n = read(in, buf, 63);"
        "  close(in);"
        "  int out = open(\"b.txt\", 1);"
        "  write(out, buf, n);"
        "  close(out);"
        "  return n;"
        "}",
        plain());
    session.os().addFile("a.txt", "payload!");
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 8);
    const auto &bytes = session.os().fileBytes("b.txt");
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "payload!");
}

TEST(Os, MissingFileReturnsError)
{
    Session session("int main() { return open(\"nope\", 0); }", plain());
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, -1);
}

TEST(Os, ReadBeyondEofReturnsZero)
{
    Session session(
        "char buf[16];"
        "int main() {"
        "  int fd = open(\"f\", 0);"
        "  int a = read(fd, buf, 16);"
        "  int b = read(fd, buf, 16);"
        "  int c = read(fd, buf, 16);"
        "  return a * 100 + b * 10 + c;"
        "}",
        plain());
    session.os().addFile("f", "abc");
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, 300);
}

TEST(Os, BadFdOperationsFail)
{
    Session session(
        "char buf[8];"
        "int main() {"
        "  int a = read(42, buf, 8);"
        "  int b = write(42, buf, 8);"
        "  int c = close(42);"
        "  return (a == -1) + (b == -1) + (c == -1);"
        "}",
        plain());
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, 3);
}

TEST(Os, SocketsDeliverRequestsAndCollectResponses)
{
    Session session(
        "char buf[64];"
        "int main() {"
        "  int served = 0;"
        "  int conn = accept();"
        "  while (conn >= 0) {"
        "    int n = recv(conn, buf, 63);"
        "    buf[n] = 0;"
        "    send(conn, \"echo:\", 5);"
        "    send(conn, buf, n);"
        "    close(conn);"
        "    served++;"
        "    conn = accept();"
        "  }"
        "  return served;"
        "}",
        plain());
    session.os().queueConnection("one");
    session.os().queueConnection("two");
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 2);
    ASSERT_EQ(session.os().responses().size(), 2u);
    EXPECT_EQ(session.os().responses()[0], "echo:one");
    EXPECT_EQ(session.os().responses()[1], "echo:two");
}

TEST(Os, StdoutCapture)
{
    Session session(
        "int main() { print(\"hello \"); print_num(42);"
        " print(\"\\n\"); return 0; }",
        plain());
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(session.os().stdoutText(), "hello 42\n");
}

TEST(Os, InputHookSeesChannelAndRange)
{
    Session session(
        "char buf[32];"
        "int main() {"
        "  int fd = open(\"f\", 0);"
        "  read(fd, buf, 5);"
        "  int conn = accept();"
        "  recv(conn, buf, 3);"
        "  return 0;"
        "}",
        plain());
    session.os().addFile("f", "12345");
    session.os().queueConnection("abc");
    std::vector<std::pair<std::string, uint64_t>> seen;
    session.os().setInputHook([&](Machine &, uint64_t, uint64_t len,
                                  const std::string &channel) {
        seen.emplace_back(channel, len);
    });
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], std::make_pair(std::string("file"),
                                      uint64_t(5)));
    EXPECT_EQ(seen[1], std::make_pair(std::string("network"),
                                      uint64_t(3)));
}

TEST(Os, IoCostsAreCharged)
{
    auto cyclesFor = [](uint64_t fileSize) {
        Session session(
            "char buf[8192];"
            "int main() {"
            "  int fd = open(\"f\", 0);"
            "  int total = 0;"
            "  int n = read(fd, buf, 8192);"
            "  while (n > 0) { total += n; n = read(fd, buf, 8192); }"
            "  return total & 127;"
            "}",
            plain());
        session.os().addFile("f", std::string(fileSize, 'x'));
        RunResult r = session.run();
        EXPECT_TRUE(r.exited);
        return r.cycles;
    };
    uint64_t small = cyclesFor(1024);
    uint64_t large = cyclesFor(64 * 1024);
    EXPECT_GT(large, small + 20000); // per-byte I/O cost is visible
}

TEST(Os, MallocAndFree)
{
    Session session(
        "int main() {"
        "  char *a = malloc(100);"
        "  char *b = malloc(100);"
        "  if (b <= a) return 1;"
        "  a[0] = 7; a[99] = 8; b[0] = 9;"
        "  int ok = (a[0] == 7) + (a[99] == 8) + (b[0] == 9);"
        "  free(a); free(b);"
        "  return ok;"
        "}",
        plain());
    RunResult r = session.run();
    ASSERT_TRUE(r.exited) << faultKindName(r.fault.kind);
    EXPECT_EQ(r.exitCode, 3);
}

TEST(Os, SprintfFormatting)
{
    Session session(
        "char out[128];"
        "int main() {"
        "  int n = sprintf(out, \"%s=%d c=%c hex=%x %%\","
        "                  \"key\", -42, 'Z', 255);"
        "  print(out);"
        "  return n;"
        "}",
        plain());
    RunResult r = session.run();
    ASSERT_TRUE(r.exited) << faultKindName(r.fault.kind);
    EXPECT_EQ(session.os().stdoutText(), "key=-42 c=Z hex=ff %");
}

// A heap buffer whose first bytes are mapped and whose 8 KiB tail runs
// past the heap break into unmapped memory. Every faulting write or
// send must return -1 and append nothing to its sink.
const char *const kFaultingWrites =
    "int main() {"
    "  char *p = malloc(16);"
    "  p[0] = 'o'; p[1] = 'k';"
    "  int conn = accept();"
    "  int out = open(\"out.txt\", 1);"
    "  int ok = 0;"
    "  if (send(conn, p, 2) == 2) ok = ok + 1;"
    "  if (send(conn, p, 8192) == -1) ok = ok + 2;"
    "  if (write(conn, p, 8192) == -1) ok = ok + 4;"
    "  if (write(out, p, 2) == 2) ok = ok + 8;"
    "  if (write(out, p, 8192) == -1) ok = ok + 16;"
    "  if (write(1, p, 2) == 2) ok = ok + 32;"
    "  if (write(1, p, 8192) == -1) ok = ok + 64;"
    "  return ok;"
    "}";

void
expectFaultingWritesAppendNothing(SessionOptions options)
{
    Session session(kFaultingWrites, std::move(options));
    session.os().queueConnection("x");
    RunResult r = session.run();
    ASSERT_TRUE(r.exited) << faultKindName(r.fault.kind);
    EXPECT_EQ(r.exitCode, 127);
    ASSERT_EQ(session.os().responses().size(), 1u);
    EXPECT_EQ(session.os().responses()[0], "ok");
    const auto &file = session.os().fileBytes("out.txt");
    EXPECT_EQ(std::string(file.begin(), file.end()), "ok");
    EXPECT_EQ(session.os().stdoutText(), "ok");
}

TEST(Os, FaultingWriteAppendsNothing)
{
    expectFaultingWritesAppendNothing(plain());
}

TEST(Os, FaultingSendAppendsNothingWhenTracking)
{
    // Tracking routes send through the H5 check's copy of the payload.
    SessionOptions options = testutil::shiftOptions();
    options.policy.h5 = true;
    expectFaultingWritesAppendNothing(options);
}

TEST(Os, FaultingWriteChargesNoIo)
{
    auto cyclesFor = [](const char *call) {
        Session session(std::string("int main() {"
                                    "  char *p = malloc(16);"
                                    "  int out = open(\"o\", 1);") +
                            call + " return 0; }",
                        plain());
        RunResult r = session.run();
        EXPECT_TRUE(r.exited);
        return r.cycles;
    };
    // Same instruction stream; only the faulting length differs from a
    // zero-length write, which pays the base I/O cost.
    EXPECT_LT(cyclesFor("write(out, p, 8192);"),
              cyclesFor("write(out, p, 0);"));
}

TEST(Os, AlertedSendWritesNothing)
{
    // H5 in log-and-continue mode: the tainted <script> payload is
    // refused (-1) and the response keeps only what came before it.
    SessionOptions options = testutil::shiftOptions();
    options.policy.h5 = true;
    options.policy.alertKills = false;
    Session session(
        "char buf[64];"
        "int main() {"
        "  int conn = accept();"
        "  int n = recv(conn, buf, 63);"
        "  send(conn, \"hdr:\", 4);"
        "  int s = send(conn, buf, n);"
        "  close(conn);"
        "  return s == -1;"
        "}",
        options);
    session.os().queueConnection("<script>alert(1)</script>");
    RunResult r = session.run();
    ASSERT_TRUE(r.exited) << faultKindName(r.fault.kind);
    EXPECT_EQ(r.exitCode, 1);
    ASSERT_EQ(r.alerts.size(), 1u);
    EXPECT_EQ(r.alerts[0].policy, "H5");
    ASSERT_EQ(session.os().responses().size(), 1u);
    EXPECT_EQ(session.os().responses()[0], "hdr:");
}

TEST(Os, TakeResponsesMovesThemOut)
{
    Session session(
        "int main() {"
        "  int conn = accept();"
        "  send(conn, \"abc\", 3);"
        "  return 0;"
        "}",
        plain());
    session.os().queueConnection("x");
    session.run();
    std::vector<std::string> taken = session.os().takeResponses();
    ASSERT_EQ(taken.size(), 1u);
    EXPECT_EQ(taken[0], "abc");
    ASSERT_EQ(session.os().responses().size(), 1u);
    EXPECT_EQ(session.os().responses()[0], "");
}

TEST(Os, CopiesShareFileBodiesUntilWriteOpen)
{
    Os proto;
    proto.addFile("/f", "original");
    Os copy(proto);
    EXPECT_EQ(&copy.fileBytes("/f"), &proto.fileBytes("/f"));

    Session session(
        "int main() {"
        "  int fd = open(\"/f\", 1);"
        "  write(fd, \"new\", 3);"
        "  return 0;"
        "}",
        plain());
    session.os().addFile("/f", "original");
    Os before(session.os());
    session.run();
    const auto &written = session.os().fileBytes("/f");
    EXPECT_EQ(std::string(written.begin(), written.end()), "new");
    const auto &kept = before.fileBytes("/f");
    EXPECT_EQ(std::string(kept.begin(), kept.end()), "original");
}

} // namespace
} // namespace shift
