/**
 * @file
 * A small simulated operating system: files, sockets and standard
 * output, with an explicit I/O cost model.
 *
 * Program-visible I/O goes through runtime built-ins which call into
 * this class; the host (tests, benchmarks) provisions files and queues
 * network connections before a run and collects responses afterwards.
 *
 * Every input path reports the bytes it delivered through an input
 * hook together with its channel name ("file", "network", "stdin").
 * The SHIFT runtime installs a hook that taints those bytes according
 * to the [sources] section of the policy configuration — the paper's
 * taint sources (section 3.3.1).
 *
 * The I/O cost model (cycles charged per call and per byte) is what
 * reproduces the Apache result: server time is dominated by I/O, so
 * instrumented user-mode compute barely moves the bottom line
 * (figure 6), with the smallest files showing the largest relative
 * overhead.
 */

#ifndef SHIFT_SIM_OS_HH
#define SHIFT_SIM_OS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace shift
{

class Machine;

/** Called whenever OS input lands in program memory. */
using InputHook = std::function<void(Machine &, uint64_t addr,
                                     uint64_t len,
                                     const std::string &channel)>;

/** The simulated OS. */
class Os
{
  public:
    /** Cycle costs per operation. */
    struct Costs
    {
        uint64_t open = 5000;
        uint64_t close = 400;
        uint64_t ioBase = 1500;     ///< per read/write/recv/send call
        uint64_t ioPerByteNum = 1;  ///< per-byte cost = len * num / den
        uint64_t ioPerByteDen = 2;
        uint64_t accept = 2500;
    };

    Os() = default;

    // ----- host-side provisioning ---------------------------------------

    /** Create or replace a simulated file. */
    void addFile(const std::string &path, std::vector<uint8_t> bytes);

    /** Convenience: file from a string. */
    void addFile(const std::string &path, const std::string &text);

    /** True when the file exists. */
    bool hasFile(const std::string &path) const;

    /** Read back a file (e.g. one created by the program). */
    const std::vector<uint8_t> &fileBytes(const std::string &path) const;

    /** Queue an inbound network connection carrying `request`. */
    void queueConnection(std::string request);

    /** Responses written by the program, one per accepted connection. */
    const std::vector<std::string> &responses() const { return responses_; }

    /**
     * Move the responses out, e.g. into a fleet job's result at the
     * end of its run. Each accepted connection's response restarts
     * empty.
     */
    std::vector<std::string>
    takeResponses()
    {
        std::vector<std::string> out(responses_.size());
        out.swap(responses_);
        return out;
    }

    /** Everything written to fd 1. */
    const std::string &stdoutText() const { return stdout_; }

    /** Install the taint-source hook. */
    void setInputHook(InputHook hook) { inputHook_ = std::move(hook); }

    Costs &costs() { return costs_; }

    // ----- program-side operations (called from built-ins) --------------

    /** Flags for openFd. */
    static constexpr int64_t kReadOnly = 0;
    static constexpr int64_t kWriteCreate = 1;

    /** Open a file; returns an fd or -1. */
    int64_t openFd(Machine &m, const std::string &path, int64_t flags);

    /** Read from an fd into simulated memory; returns bytes or -1. */
    int64_t readFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len);

    /**
     * Write from simulated memory to an fd; returns bytes or -1. The
     * bytes are appended straight from guest pages; a buffer that
     * runs into unmapped memory appends nothing and returns -1.
     */
    int64_t writeFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len);

    /**
     * Write bytes the caller already copied out of simulated memory
     * (send's H5 check reads its payload first); same result and cost
     * as the guest-buffer overload.
     */
    int64_t writeFd(Machine &m, int64_t fd, std::string_view bytes);

    /** Close an fd; returns 0 or -1. */
    int64_t closeFd(Machine &m, int64_t fd);

    /** Accept a queued connection; returns an fd or -1 when none. */
    int64_t acceptFd(Machine &m);

    /** Size of a file, or -1. */
    int64_t fileSize(const std::string &path) const;

  private:
    enum class FdKind { File, Socket, Stdout };

    struct FdEntry
    {
        FdKind kind = FdKind::File;
        std::string path;    ///< for files
        size_t connIndex = 0;///< for sockets
        uint64_t offset = 0;
        bool writable = false;
        bool open = false;
    };

    struct Connection
    {
        std::string request;
        uint64_t consumed = 0;
        size_t responseIndex = 0;
    };

    using FileBody = std::shared_ptr<std::vector<uint8_t>>;

    void chargeIo(Machine &m, uint64_t base, uint64_t bytes);
    FdEntry *lookup(int64_t fd);

    /**
     * Resolve fd's sink (stdout, a write-open file or a connection's
     * response) and let append(sink) add `len` bytes to it; append
     * returns false, leaving the sink unchanged, when the bytes cannot
     * be read.
     */
    template <typename Append>
    int64_t writeTo(Machine &m, int64_t fd, uint64_t len, Append &&append);

    /** A file's body for appending, made private first if shared. */
    std::vector<uint8_t> &writableFile(const std::string &path);

    Costs costs_;
    /**
     * File bodies. A body is shared, never mutated, between copies of
     * an Os (a SessionTemplate's prototype and all its clones), so a
     * fork copies pointers, not file contents. A write-open installs a
     * fresh private body, and writableFile() copies any body that is
     * still shared before it is written.
     */
    std::map<std::string, FileBody> files_;
    std::deque<Connection> pending_;
    std::vector<Connection> active_;
    std::vector<std::string> responses_;
    std::string stdout_;
    std::vector<FdEntry> fds_;
    InputHook inputHook_;
};

} // namespace shift

#endif // SHIFT_SIM_OS_HH
