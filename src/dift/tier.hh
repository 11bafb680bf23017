/**
 * @file
 * The asynchronous taint tier: a per-machine DIFT coprocessor model.
 *
 * One AsyncTaintTier pairs one execution engine (the producer) with
 * one taint-propagation thread (the consumer) over a bounded SPSC
 * event ring — the trace-based decoupling of Wahab et al.'s DIFT
 * coprocessors and PAGURUS, grafted onto SHIFT's NaT/bitmap
 * semantics. The engine runs the *uninstrumented* program and emits
 * one Event per taint-relevant micro-op; the consumer replays the
 * instrumenter's exact propagation rules against a private shadow of
 * the tag bitmap plus a 64-bit register-taint mask.
 *
 * Verdict equivalence rests on the fence protocol:
 *
 *  - The producer publishes its event sequence number and, at every
 *    policy-relevant boundary (builtin call, syscall, divide-by-zero
 *    taint query, end of run), blocks until the consumer's consumed
 *    sequence catches up ("epoch/lag fence"). While quiesced, the
 *    engine may read the consumer's shadow (argNat for H policies),
 *    write it (taint-source mirroring, retval clears), and
 *    materialize dirty shadow tag words into simulated memory so
 *    TaintMap readers (H1-H5 checks) see exactly what the
 *    synchronous engine's bitmap would hold.
 *  - The consumer records the *first* policy violation it replays
 *    (L1/L2/L3 and the plain-store StoreValue fault), then keeps
 *    draining in discard mode so the producer can never deadlock.
 *    The engine observes the flag at the next publish or fence and
 *    raises the identical NaT-consumption fault the synchronous
 *    engine would have raised at that instruction — same context,
 *    same detail string, same function — before any further
 *    policy-visible effect can happen.
 *
 * Detection is therefore *lag-bounded*: a violation surfaces at the
 * next publish/fence rather than in the violating cycle. The tier
 * accounts for that honestly — ring-depth and fence-lag histograms
 * and the host-time delivery latency of each detection land in the
 * run's dift.* stats. See docs/ASYNC-TAINT.md.
 *
 * Threading contract: every public method except the consumer's
 * internals is producer-thread-only. Shadow reads/writes by the
 * engine are only legal while the consumer is quiesced at a fence
 * (enforced by the ring's acquire/release edges; TSan-verified).
 */

#ifndef SHIFT_DIFT_TIER_HH
#define SHIFT_DIFT_TIER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "dift/event.hh"
#include "dift/spsc_ring.hh"
#include "mem/address_space.hh"
#include "mem/memory.hh"
#include "obs/trace.hh"
#include "support/stats.hh"

namespace shift::dift
{

/**
 * Where the consumer runs. `Thread` is the coprocessor model proper:
 * a dedicated replay thread behind the ring. `Inline` folds the same
 * replay into the producer's push() call — no ring traffic, no
 * fences-with-lag, immediate detection — which is the only
 * configuration that can pay off on a single-hart host, where a
 * consumer thread merely serializes with the engine. `Auto` picks
 * Inline when std::thread::hardware_concurrency() <= 1.
 */
enum class AsyncConsumer : uint8_t
{
    Auto,
    Thread,
    Inline,
};

/** Session-level knobs for the async tier. */
struct AsyncTaintOptions
{
    bool enabled = false;
    /** Event ring capacity; must be a power of two in [2^10, 2^24]. */
    uint32_t ringEvents = 1u << 16;
    /** Events between sequence-number publishes (the lag quantum). */
    uint32_t publishBatch = 32;
    /** Consumer placement; see AsyncConsumer. */
    AsyncConsumer consumer = AsyncConsumer::Auto;
};

/** Empty when valid, else a one-line problem description. */
std::string validateAsyncOptions(const AsyncTaintOptions &options);

/** Which policy family the consumer saw violated. */
enum class ViolationKind : uint8_t
{
    LoadAddress,  ///< L1: tainted pointer dereferenced
    StoreAddress, ///< L2: tainted store address
    StoreValue,   ///< plain store of a tainted register (raw fault)
    ControlFlow,  ///< L3: tainted value into a branch register
};

/** The consumer's verdict, frozen at the first violating event. */
struct Violation
{
    ViolationKind kind = ViolationKind::LoadAddress;
    uint64_t addr = 0;      ///< faulting address, sync-identical
    int32_t pc = 0;         ///< original-stream index
    int16_t func = -1;      ///< function index
    uint64_t seq = 0;       ///< event sequence number
    const char *detail = ""; ///< sync engine's exact fault detail
};

class AsyncTaintTier
{
  public:
    /**
     * `memory` is the machine's memory; the tier bootstraps its
     * shadow from the tag region at start() and materializes dirty
     * shadow words back at every fence. Producer-thread only.
     */
    AsyncTaintTier(Memory &memory, Granularity granularity,
                   const AsyncTaintOptions &options);
    ~AsyncTaintTier();

    AsyncTaintTier(const AsyncTaintTier &) = delete;
    AsyncTaintTier &operator=(const AsyncTaintTier &) = delete;

    /** Observer for ring-stall / fence-wait events (may be null). */
    void setObserver(obs::TraceBuffer *obs) { obs_ = obs; }

    /**
     * Profiled runs measure the threaded consumer's active replay
     * time, exported as `prof.aux.async-consumer.nanos`: off-engine
     * host work that overlaps the engine wall clock, reported beside
     * (never inside) the engine's exhaustive prof.tier.* sum. The
     * inline consumer needs no aux counter — its replay runs inside
     * the engine's async-publish carve. Set before start().
     */
    void setProfiled(bool profiled) { profiled_ = profiled; }

    /** Bootstrap the shadow and launch the consumer thread. */
    void start();

    /** True between start() and shutdown(). */
    bool running() const { return running_; }

    // ----- engine hot path ----------------------------------------------

    /**
     * Append one event. Returns true when the consumer has flagged a
     * violation (checked once per publish batch): the engine must
     * fence and apply it.
     */
    bool
    push(const Event &ev)
    {
        if (inlineMode_) {
            // Inline consumer: replay right here, no ring traffic.
            // Detection is immediate rather than lag-bounded.
            ++inlineEvents_;
            process(ev);
            return violated_.load(std::memory_order_relaxed);
        }
        uint64_t spins = ring_.push(ev);
        if (spins) {
            stallSpins_ += spins;
            ++stalls_;
            if (obs_)
                obs_->emitCold(obs::Ev::RingStall, 0, ev.func, ev.pc,
                               ring_.capacity(), spins);
        }
        if (++sincePublish_ >= publishBatch_) {
            sincePublish_ = 0;
            ring_.publish();
            depthHist_.record(ring_.depth());
            return violated_.load(std::memory_order_relaxed);
        }
        return false;
    }

    // ----- fences (engine thread) ---------------------------------------

    /**
     * Publish and block until the consumer has replayed every pushed
     * event, then materialize dirty shadow tag words into memory.
     * Returns the pending violation, or nullptr. While quiesced the
     * shadow accessors below are valid.
     */
    const Violation *fence();

    /** The violation recorded so far, without fencing (post-fence). */
    const Violation *pendingViolation() const;

    // ----- shadow access, only valid while quiesced at a fence ----------

    /** Register taint (the NaT bit the sync engine would carry). */
    bool
    regTaint(int r) const
    {
        return r > 0 && r < 64 && ((regTaintView() >> r) & 1);
    }

    /** Force a register's taint (retval clears after builtins). */
    void setRegTaint(int r, bool tainted);

    /**
     * Mirror one TaintMap bitmap write into the shadow (the TaintMap
     * hook): `tagAddr`/`bitIndex` of one bit TaintMap wrote to
     * memory.
     */
    void mirrorTagWrite(uint64_t tagAddr, unsigned bitIndex, bool value);

    // ----- teardown -----------------------------------------------------

    /**
     * Final fence + consumer join. Idempotent. After shutdown the
     * shadow remains readable (regTaint / pendingViolation).
     */
    const Violation *shutdown();

    /** Fold dift.* counters and histograms into `stats`. */
    void statInto(StatSet &stats) const;

    uint64_t
    eventsPushed() const
    {
        return inlineMode_ ? inlineEvents_ : ring_.pushed();
    }

    /** True when the consumer replays inline in the engine thread. */
    bool inlineConsumer() const { return inlineMode_; }

    // ----- fused inline replay (inline mode, engine thread only) --------
    //
    // The per-kind entry points below skip Event construction and
    // kind dispatch entirely; they share the replay bodies with
    // process(), so the state transitions are identical to what the
    // threaded consumer would apply. Only legal in inline mode.

    /** ALU destination write; violations can never arise here. */
    void
    inlineRegWrite(uint8_t a, uint8_t b, uint8_t c, bool zeroIdiom)
    {
        ++inlineEvents_;
        ++seq_;
        replayRegWrite(a, b, c, zeroIdiom);
    }

    /** Load replay; true when a violation was raised. */
    bool
    inlineLoad(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
               uint8_t size, int32_t pc, int16_t func)
    {
        ++inlineEvents_;
        ++seq_;
        return replayLoad(a, b, flags, ea, size, pc, func);
    }

    /** Store replay; true when a violation was raised. */
    bool
    inlineStore(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
                uint8_t size, int32_t pc, int16_t func)
    {
        ++inlineEvents_;
        ++seq_;
        return replayStore(a, b, flags, ea, size, pc, func);
    }

  private:
    struct ShadowPage
    {
        uint8_t bytes[4096] = {};
        uint64_t dirty[8] = {}; ///< bit per 8-byte word (512 words)
    };

    ShadowPage &shadowPage(uint64_t tagAddr);
    ShadowPage *findPage(uint64_t key);
    ShadowPage &ensurePage(uint64_t key);
    uint64_t regTaintView() const { return regTaint_; }
    void consumerLoop();
    void process(const Event &ev);
    bool regBit(uint8_t r) const;
    void setRegBit(uint8_t r, bool t);
    void replayRegWrite(uint8_t a, uint8_t b, uint8_t c, bool zeroIdiom);
    bool replayLoad(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
                    uint8_t size, int32_t pc, int16_t func);
    bool replayStore(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
                     uint8_t size, int32_t pc, int16_t func);
    bool replayBranchCheck(uint8_t a, uint64_t ea, int32_t pc,
                           int16_t func);
    bool tagWindowTainted(uint64_t ea, unsigned size);
    void writeTagBits(uint64_t ea, unsigned size, bool tainted);
    void rmwShadowByte(uint64_t tagAddr, uint8_t mask, bool set,
                       bool markDirty);
    void violate(ViolationKind kind, uint64_t addr, int32_t pc,
                 int16_t func, const char *detail);
    void materializeDirty();

    Memory *mem_;
    Granularity gran_;
    uint32_t publishBatch_;
    uint32_t sincePublish_ = 0;
    obs::TraceBuffer *obs_ = nullptr;

    SpscRing<Event> ring_;
    std::thread consumer_;
    bool inlineMode_ = false;
    uint64_t inlineEvents_ = 0;
    bool profiled_ = false;
    /** Consumer-thread active replay ns; read after the join. */
    uint64_t consumerActiveNs_ = 0;
    bool running_ = false;
    std::atomic<bool> stop_{false};
    std::atomic<bool> violated_{false};

    // Consumer-owned shadow; engine access only at fence quiesce.
    uint64_t regTaint_ = 0;
    std::unordered_map<uint64_t, std::unique_ptr<ShadowPage>> tagPages_;
    /**
     * Direct-mapped shadow-page cache in front of tagPages_: tag
     * traffic folds 8:1 (or 64:1), so a handful of pages absorb
     * nearly every event and the per-event hash lookup is the
     * consumer's single largest cost. Entries may cache absence
     * (page == nullptr); that stays coherent because page creation
     * goes through ensurePage(), which refreshes the same slot.
     */
    static constexpr unsigned kPageCacheWays = 8;
    struct PageCacheEntry
    {
        uint64_t key = ~0ull;
        ShadowPage *page = nullptr;
    };
    PageCacheEntry pageCache_[kPageCacheWays];
    std::unordered_map<uint64_t, uint8_t> spillTaint_;
    uint64_t seq_ = 0; ///< consumer event sequence
    Violation violation_;
    std::chrono::steady_clock::time_point violationAt_;

    // Engine-side statistics.
    uint64_t stallSpins_ = 0;
    uint64_t stalls_ = 0;
    uint64_t fences_ = 0;
    uint64_t fenceWaitSpins_ = 0;
    uint64_t fenceWaitNs_ = 0;
    uint64_t detectLatencyNs_ = 0;
    bool detectLatencyValid_ = false;
    uint64_t materializedWords_ = 0;
    Histogram depthHist_;
    Histogram fenceLagHist_;
};

// ----- inline replay core -----------------------------------------------
//
// The consumer's per-event replay lives in the header so the inline
// consumer mode — where push() calls process() directly from the
// engine's dispatch loop — compiles to one straight-line path with no
// cross-TU call per event. The threaded consumer loop uses the same
// definitions.

/// The synchronous engine's exact NaT-consumption fault details
/// (sim/machine.cc). The consumer reproduces them verbatim so async
/// verdicts are string-identical to synchronous ones.
inline constexpr const char *kDetailLoadNat =
    "load through a NaT (tainted) address";
inline constexpr const char *kDetailStoreNat =
    "store through a NaT (tainted) address";
inline constexpr const char *kDetailStoreValue =
    "plain store of a NaT source register";
inline constexpr const char *kDetailBranchNat =
    "NaT (tainted) value moved into a branch register";

inline AsyncTaintTier::ShadowPage &
AsyncTaintTier::shadowPage(uint64_t tagAddr)
{
    return ensurePage(tagAddr >> 12);
}

inline AsyncTaintTier::ShadowPage *
AsyncTaintTier::findPage(uint64_t key)
{
    PageCacheEntry &slot = pageCache_[key & (kPageCacheWays - 1)];
    if (slot.key == key) [[likely]]
        return slot.page;
    auto it = tagPages_.find(key);
    slot.key = key;
    slot.page = it == tagPages_.end() ? nullptr : it->second.get();
    return slot.page;
}

inline AsyncTaintTier::ShadowPage &
AsyncTaintTier::ensurePage(uint64_t key)
{
    PageCacheEntry &slot = pageCache_[key & (kPageCacheWays - 1)];
    if (slot.key == key && slot.page) [[likely]]
        return *slot.page;
    std::unique_ptr<ShadowPage> &page = tagPages_[key];
    if (!page)
        page = std::make_unique<ShadowPage>();
    slot.key = key;
    slot.page = page.get();
    return *page;
}

inline bool
AsyncTaintTier::tagWindowTainted(uint64_t ea, unsigned size)
{
    uint64_t t0 = tagByteAddr(ea, gran_);
    if (gran_ == Granularity::Byte) {
        // Two-tag-byte window, exactly as the instrumenter assembles
        // it: the covered bits may straddle a tag-byte boundary. Both
        // bytes live on the same shadow page except at a page edge.
        unsigned off = static_cast<unsigned>(t0 & 0xfff);
        uint32_t window;
        ShadowPage *page = findPage(t0 >> 12);
        if (off != 0xfff) [[likely]] {
            window = page ? page->bytes[off] |
                                (uint32_t(page->bytes[off + 1]) << 8)
                          : 0;
        } else {
            ShadowPage *next = findPage((t0 + 1) >> 12);
            window = (page ? page->bytes[off] : 0) |
                     (next ? uint32_t(next->bytes[0]) << 8 : 0);
        }
        window >>= ea & 7;
        return (window & ((1u << size) - 1)) != 0;
    }
    // Word granularity: one tag byte, one bit, alignment-trusting —
    // the same single-bit test the instrumented stream performs even
    // for straddling accesses.
    ShadowPage *page = findPage(t0 >> 12);
    if (!page)
        return false;
    return (page->bytes[t0 & 0xfff] >> tagBitIndex(ea, gran_)) & 1;
}

inline void
AsyncTaintTier::rmwShadowByte(uint64_t tagAddr, uint8_t mask, bool set,
                              bool markDirty)
{
    if (mask == 0)
        return;
    // Clearing bits on a never-written page is a no-op: don't
    // instantiate shadow for it (clean stores over clean memory are
    // the common case).
    ShadowPage *found = set ? &shadowPage(tagAddr)
                            : findPage(tagAddr >> 12);
    if (!found)
        return;
    ShadowPage &page = *found;
    unsigned off = tagAddr & 0xfff;
    uint8_t before = page.bytes[off];
    uint8_t after = set ? uint8_t(before | mask) : uint8_t(before & ~mask);
    if (after == before)
        return;
    page.bytes[off] = after;
    if (markDirty) {
        unsigned word = off >> 3;
        page.dirty[word >> 6] |= 1ull << (word & 63);
    }
}

inline void
AsyncTaintTier::writeTagBits(uint64_t ea, unsigned size, bool tainted)
{
    uint64_t t0 = tagByteAddr(ea, gran_);
    if (gran_ == Granularity::Byte) {
        uint32_t mask = ((1u << size) - 1) << (ea & 7);
        rmwShadowByte(t0, mask & 0xff, tainted, true);
        rmwShadowByte(t0 + 1, mask >> 8, tainted, true);
        return;
    }
    rmwShadowByte(t0, uint8_t(1u << tagBitIndex(ea, gran_)), tainted,
                  true);
}

inline bool
AsyncTaintTier::regBit(uint8_t r) const
{
    return r > 0 && ((regTaint_ >> r) & 1);
}

inline void
AsyncTaintTier::setRegBit(uint8_t r, bool t)
{
    if (r == 0)
        return; // r0 is hardwired clean
    if (t)
        regTaint_ |= 1ull << r;
    else
        regTaint_ &= ~(1ull << r);
}

inline void
AsyncTaintTier::replayRegWrite(uint8_t a, uint8_t b, uint8_t c,
                               bool zeroIdiom)
{
    setRegBit(a, !zeroIdiom && (regBit(b) || regBit(c)));
}

inline bool
AsyncTaintTier::replayLoad(uint8_t a, uint8_t b, uint8_t flags,
                           uint64_t ea, uint8_t size, int32_t pc,
                           int16_t func)
{
    bool addrTainted = regBit(b);
    if (flags & kEvRelaxed) {
        // Pointer-taint relaxation: the access proceeds and the
        // pointer's taint joins the loaded value's.
        setRegBit(a, tagWindowTainted(ea, size) || addrTainted);
    } else if (addrTainted) [[unlikely]] {
        // L1. A checked load trips on its *tag* load (whose address
        // is the folded tag byte address); an unchecked or fill load
        // trips on the access itself.
        violate(ViolationKind::LoadAddress,
                (flags & kEvChecked) ? tagByteAddr(ea, gran_) : ea, pc,
                func, kDetailLoadNat);
        return true;
    } else if (flags & kEvChecked) {
        setRegBit(a, tagWindowTainted(ea, size));
    } else if (flags & kEvFill) {
        auto it = spillTaint_.find(ea);
        setRegBit(a, it != spillTaint_.end() && it->second);
    } else {
        setRegBit(a, false);
    }
    return false;
}

inline bool
AsyncTaintTier::replayStore(uint8_t a, uint8_t b, uint8_t flags,
                            uint64_t ea, uint8_t size, int32_t pc,
                            int16_t func)
{
    bool srcTainted = regBit(a);
    bool addrTainted = regBit(b);
    if (flags & kEvChecked) {
        // Tracked store: bitmap RMW. A tainted, unrelaxed address
        // trips L2 on the RMW's tag load, sync-identically.
        if (addrTainted && !(flags & kEvRelaxed)) [[unlikely]] {
            violate(ViolationKind::StoreAddress, tagByteAddr(ea, gran_),
                    pc, func, kDetailLoadNat);
            return true;
        }
        writeTagBits(ea, size, srcTainted);
        return false;
    }
    if (flags & kEvSpill) {
        // st8.spill: taint rides the NaT sidecar, shadowed here.
        if (addrTainted) [[unlikely]] {
            violate(ViolationKind::StoreAddress, ea, pc, func,
                    kDetailStoreNat);
            return true;
        }
        if (srcTainted)
            spillTaint_[ea] = 1;
        else
            spillTaint_.erase(ea);
        return false;
    }
    // Untracked plain store: no bitmap update (exactly the
    // uninstrumented-store semantics), but the hardware checks still
    // apply.
    if (addrTainted) [[unlikely]] {
        violate(ViolationKind::StoreAddress, ea, pc, func,
                kDetailStoreNat);
        return true;
    }
    if (srcTainted) [[unlikely]] {
        violate(ViolationKind::StoreValue, ea, pc, func,
                kDetailStoreValue);
        return true;
    }
    return false;
}

inline bool
AsyncTaintTier::replayBranchCheck(uint8_t a, uint64_t ea, int32_t pc,
                                  int16_t func)
{
    if (regBit(a)) [[unlikely]] {
        violate(ViolationKind::ControlFlow, ea, pc, func,
                kDetailBranchNat);
        return true;
    }
    return false;
}

inline void
AsyncTaintTier::process(const Event &ev)
{
    ++seq_;
    if (violated_.load(std::memory_order_relaxed)) [[unlikely]]
        return; // discard mode: drain so the producer can finish

    switch (static_cast<EvKind>(ev.kind)) {
      case EvKind::RegWrite:
        replayRegWrite(ev.a, ev.b, ev.c,
                       (ev.flags & kEvZeroIdiom) != 0);
        break;
      case EvKind::Load:
        replayLoad(ev.a, ev.b, ev.flags, ev.addr, ev.size, ev.pc,
                   ev.func);
        break;
      case EvKind::Store:
        replayStore(ev.a, ev.b, ev.flags, ev.addr, ev.size, ev.pc,
                    ev.func);
        break;
      case EvKind::BranchCheck:
        replayBranchCheck(ev.a, ev.addr, ev.pc, ev.func);
        break;
    }
}

} // namespace shift::dift

#endif // SHIFT_DIFT_TIER_HH
