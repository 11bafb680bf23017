/**
 * @file
 * The executable code cache: hotness counting, promotion, and the
 * lifecycle of compiled buffers (see docs/JIT.md).
 *
 * A function compiles whole, synchronously, on the thread whose
 * lookup crosses the promotion threshold; the body publishes with a
 * release store (atomic pointer patch — there is no intermediate
 * state). Eviction is flush-when-full against the code-byte budget.
 */

#include "jit/jit.hh"

#include <algorithm>
#include <chrono>

#include "obs/perfmap.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

#if SHIFT_JIT_BACKEND
#include <sys/mman.h>
#endif

namespace shift::jit
{

bool
available()
{
    return SHIFT_JIT_BACKEND != 0;
}

const CompiledFunction CodeCache::kUncompilable;

namespace
{

/** Monotonic nanoseconds for the compile-pipeline latency samples. */
uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

} // namespace

CompiledFunction::~CompiledFunction()
{
#if SHIFT_JIT_BACKEND
    if (buf && ownsBuf)
        munmap(buf, size);
#endif
}

CodeCache::CodeCache(std::shared_ptr<const DecodedProgram> program,
                     CompileEnv env, uint32_t threshold,
                     size_t maxBytes)
    : program_(std::move(program)),
      env_(env),
      threshold_(threshold ? threshold : kDefaultThreshold),
      maxBytes_(maxBytes ? maxBytes : kDefaultMaxBytes),
      hot_(program_->functions.size()),
      fns_(program_->functions.size())
{
    SHIFT_ASSERT(program_, "code cache needs a program");
}

/**
 * Flush-when-full: unpublish everything and restart hotness, so only
 * what is still hot comes back. Concurrent executors keep running the
 * old buffers safely — owned_ retains them until the cache dies — and
 * their next lookup falls back to interpreting until the function
 * re-publishes. Uncompilable sentinels survive the flush (they hold
 * no bytes and a retry would fail the same way). A single body larger
 * than the whole budget still publishes: the bound can't be met, not
 * honored by thrashing.
 */
void
CodeCache::flushIfNeededLocked(size_t incoming, Credit *credit)
{
    size_t live = liveBytes_.load(std::memory_order_relaxed);
    if (live == 0 || live + incoming <= maxBytes_)
        return;
    for (auto &slot : fns_) {
        const CompiledFunction *cur =
            slot.load(std::memory_order_acquire);
        if (cur && cur != &kUncompilable)
            slot.store(nullptr, std::memory_order_release);
    }
    for (auto &hcnt : hot_)
        hcnt.store(0, std::memory_order_relaxed);
    liveBytes_.store(0, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    credit->evictions += 1;
    obs::note(obs::Ev::JitEvict, 0, -1, 0, live, 0);
}

/**
 * Seal-side observability, under compileMutex_ after a successful
 * publish: latency samples, the JitCompile flight-recorder event, and
 * perf-map / jitdump symbols so host `perf report` attributes samples
 * inside this unit by guest `<function>@<pc>` (docs/OBSERVABILITY.md).
 */
void
CodeCache::noteSealedLocked(int func, const CompiledFunction *f,
                            uint64_t compileNs, uint64_t sealNs)
{
    const void *codeAddr = f->buf;
    size_t codeBytes = f->size;
    compileNanos_.record(compileNs);
    sealNanos_.record(sealNs);
    obs::note(obs::Ev::JitCompile, 0, func, 0, codeBytes, compileNs);
    if (!obs::PerfJitSink::active() || !codeAddr || codeBytes == 0)
        return;
    const std::string &fn = program_->functions[size_t(func)].src->name;
    // Both streams share one buffer; per-block extents come from the
    // entry-offset tables (sorted offsets, each block runs to the next
    // entry or the buffer end).
    struct Block
    {
        int32_t off;
        uint32_t pc;
        bool fast;
    };
    std::vector<Block> blocks;
    for (size_t i = 0; i < f->slowEntry.size(); ++i)
        if (f->slowEntry[i] >= 0)
            blocks.push_back({f->slowEntry[i], uint32_t(i), false});
    for (size_t i = 0; i < f->fastEntry.size(); ++i)
        if (f->fastEntry[i] >= 0)
            blocks.push_back({f->fastEntry[i], uint32_t(i), true});
    if (blocks.empty()) {
        obs::PerfJitSink::add(fn + "@0", codeAddr, codeBytes);
        return;
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const Block &a, const Block &b) { return a.off < b.off; });
    // The entry thunk (and any shared prologue) before the first
    // block entry gets its own symbol.
    if (blocks.front().off > 0)
        obs::PerfJitSink::add(fn + "@thunk", codeAddr,
                              size_t(blocks.front().off));
    for (size_t i = 0; i < blocks.size(); ++i) {
        size_t end = i + 1 < blocks.size() ? size_t(blocks[i + 1].off)
                                           : codeBytes;
        if (end <= size_t(blocks[i].off))
            continue;
        std::string sym = fn + "@" + std::to_string(blocks[i].pc);
        if (blocks[i].fast)
            sym += ".fast";
        obs::PerfJitSink::add(
            sym,
            static_cast<const uint8_t *>(codeAddr) + blocks[i].off,
            end - size_t(blocks[i].off));
    }
}

void
CodeCache::drainStatsInto(StatSet &stats)
{
    std::lock_guard<std::mutex> lock(compileMutex_);
    if (compileNanos_.count()) {
        stats.mergeHistogram("jit.compile.nanos", compileNanos_);
        compileNanos_ = Histogram();
    }
    if (sealNanos_.count()) {
        stats.mergeHistogram("jit.seal.nanos", sealNanos_);
        sealNanos_ = Histogram();
    }
}

const CompiledFunction *
CodeCache::publishLocked(int func,
                         std::unique_ptr<CompiledFunction> compiled,
                         Credit *credit)
{
    const CompiledFunction *cur =
        fns_[size_t(func)].load(std::memory_order_acquire);
    if (cur) // a racer published first; drop ours
        return cur == &kUncompilable ? nullptr : cur;
    if (!compiled) {
        fns_[size_t(func)].store(&kUncompilable,
                                 std::memory_order_release);
        return nullptr;
    }
    flushIfNeededLocked(compiled->size, credit);
    const CompiledFunction *f = compiled.get();
    owned_.push_back(std::move(compiled));
    compiledFunctions_.fetch_add(1, std::memory_order_relaxed);
    compiledBlocks_.fetch_add(f->blocks, std::memory_order_relaxed);
    liveBytes_.fetch_add(f->size, std::memory_order_relaxed);
    credit->blocks += f->blocks;
    credit->codeBytes += f->size;
    fns_[size_t(func)].store(f, std::memory_order_release);
    return f;
}

const CompiledFunction *
CodeCache::hot(int func, Credit *credit)
{
    const CompiledFunction *f =
        fns_[func].load(std::memory_order_acquire);
    if (f)
        return f == &kUncompilable ? nullptr : f;
    // Exactly one caller observes the crossing and compiles; racers
    // keep interpreting until the body is published. The counter
    // keeps counting past the threshold, which is harmless.
    uint32_t h =
        hot_[func].fetch_add(1, std::memory_order_relaxed) + 1;
    if (h != threshold_)
        return nullptr;
    std::lock_guard<std::mutex> lock(compileMutex_);
    if (const CompiledFunction *raced =
            fns_[size_t(func)].load(std::memory_order_acquire))
        return raced == &kUncompilable ? nullptr : raced;
    uint64_t t0 = nowNs();
    std::unique_ptr<CompiledFunction> compiled =
        compileFunction(program_->functions[func], env_, &arena_);
    uint64_t t1 = nowNs();
    const CompiledFunction *pub =
        publishLocked(func, std::move(compiled), credit);
    uint64_t t2 = nowNs();
    credit->compileNanos += t2 - t0;
    if (pub)
        noteSealedLocked(func, pub, t1 - t0, t2 - t1);
    return pub;
}

CodeCache::Entry
CodeCache::entryIn(const CompiledFunction *f, bool inFast, uint64_t pc)
{
    if (!f)
        return {};
    const void *code = f->entryFor(inFast, pc);
    if (!code)
        return {};
    return {f->thunk, code};
}

CodeCache::Entry
CodeCache::entryAt(int func, bool inFast, uint64_t pc, Credit *credit)
{
    return entryIn(hot(func, credit), inFast, pc);
}

CodeCache::Entry
CodeCache::peekAt(int func, bool inFast, uint64_t pc) const
{
    const CompiledFunction *f =
        fns_[size_t(func)].load(std::memory_order_acquire);
    return entryIn(f == &kUncompilable ? nullptr : f, inFast, pc);
}

} // namespace shift::jit
