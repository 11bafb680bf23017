/**
 * @file
 * The asynchronous taint tier: SHIFT's propagation rules replayed
 * beside an engine that runs the uninstrumented program.
 *
 * The engine executes the *original* program (annotated by
 * annotateForAsync) and, for every taint-relevant micro-op, calls one
 * of the replay entry points below instead of executing inline tag
 * instrumentation. The tier applies the instrumenter's exact
 * propagation rules against a private shadow of the tag bitmap plus a
 * 64-bit register-taint mask — the replay half of the decoupled DIFT
 * model of Wahab et al.'s coprocessors and PAGURUS, run on the
 * engine's own thread. A decoupled replay thread was measured and
 * deleted: the hand-off cost more than the replay it moved
 * (EXPERIMENTS.md).
 *
 * Verdict equivalence:
 *
 *  - Replay happens in program order at the op itself, so the shadow
 *    is always caught up. At every policy-relevant boundary (builtin
 *    call, syscall, divide-by-zero taint query, end of run) the
 *    engine calls fence(), which materializes dirty shadow tag words
 *    into simulated memory so TaintMap readers (H1-H5 checks) see
 *    exactly what the synchronous engine's bitmap would hold. The
 *    engine may also read the shadow (argNat for H policies) and
 *    write it (taint-source mirroring, retval clears) there.
 *  - A replayed load, store or branch check that violates L1/L2/L3
 *    (or the plain-store StoreValue fault) records the violation and
 *    returns true; the engine then raises the identical
 *    NaT-consumption fault the synchronous engine would have raised
 *    at that instruction — same context, same detail string, same
 *    function — before the op's own side effects.
 *
 * Detection is therefore immediate. See docs/ASYNC-TAINT.md.
 *
 * Threading contract: single-threaded; the tier belongs to its
 * machine's engine thread.
 */

#ifndef SHIFT_DIFT_TIER_HH
#define SHIFT_DIFT_TIER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "mem/address_space.hh"
#include "mem/memory.hh"
#include "support/stats.hh"

namespace shift::dift
{

// Replay flag bits, kind-specific. The engine derives them from the
// annotation bits (annotate.hh) on each micro-op.
// Load:
constexpr uint8_t kEvChecked = 1; ///< bitmap-checked (instrumented) access
constexpr uint8_t kEvRelaxed = 2; ///< pointer-taint relaxation applies
constexpr uint8_t kEvFill = 4;    ///< ld8.fill (NaT sidecar traffic)
// Store reuses kEvChecked ("tracked": the bitmap RMW applies) and
// kEvRelaxed (store-address relaxation), plus:
constexpr uint8_t kEvSpill = 4; ///< st8.spill (NaT sidecar traffic)

/** Session-level knobs for the async tier. */
struct AsyncTaintOptions
{
    bool enabled = false;
};

/** Which policy family the replay saw violated. */
enum class ViolationKind : uint8_t
{
    LoadAddress,  ///< L1: tainted pointer dereferenced
    StoreAddress, ///< L2: tainted store address
    StoreValue,   ///< plain store of a tainted register (raw fault)
    ControlFlow,  ///< L3: tainted value into a branch register
};

/** The replay's verdict, frozen at the first violating op. */
struct Violation
{
    ViolationKind kind = ViolationKind::LoadAddress;
    uint64_t addr = 0;      ///< faulting address, sync-identical
    int32_t pc = 0;         ///< original-stream index
    int16_t func = -1;      ///< function index
    const char *detail = ""; ///< sync engine's exact fault detail
};

class AsyncTaintTier
{
  public:
    /**
     * `memory` is the machine's memory; the tier bootstraps its
     * shadow from the tag region at start() and materializes dirty
     * shadow words back at every fence.
     */
    AsyncTaintTier(Memory &memory, Granularity granularity);
    ~AsyncTaintTier();

    AsyncTaintTier(const AsyncTaintTier &) = delete;
    AsyncTaintTier &operator=(const AsyncTaintTier &) = delete;

    /** Bootstrap the shadow from the tag bitmap. */
    void start();

    /** True between start() and shutdown(). */
    bool running() const { return running_; }

    // ----- replay entry points (engine hot path) -------------------------

    /** ALU destination write; violations can never arise here. */
    void
    regWrite(uint8_t a, uint8_t b, uint8_t c, bool zeroIdiom)
    {
        ++replays_;
        setRegBit(a, !zeroIdiom && (regBit(b) || regBit(c)));
    }

    /** Load replay; true when a violation was raised. */
    bool load(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
              uint8_t size, int32_t pc, int16_t func);

    /** Store replay; true when a violation was raised. */
    bool store(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
               uint8_t size, int32_t pc, int16_t func);

    /**
     * Register `a` (whose value is `ea`) moved into a branch
     * register; true when that raised L3.
     */
    bool branchCheck(uint8_t a, uint64_t ea, int32_t pc, int16_t func);

    // ----- fences ---------------------------------------------------------

    /**
     * Materialize dirty shadow tag words into memory. Returns the
     * recorded violation, or nullptr.
     */
    const Violation *fence();

    /** The violation recorded so far, or nullptr. */
    const Violation *
    pendingViolation() const
    {
        return violated_ ? &violation_ : nullptr;
    }

    // ----- shadow access ----------------------------------------------------

    /** Register taint (the NaT bit the sync engine would carry). */
    bool
    regTaint(int r) const
    {
        return r > 0 && r < 64 && ((regTaint_ >> r) & 1);
    }

    /** Force a register's taint (retval clears after builtins). */
    void setRegTaint(int r, bool tainted);

    /**
     * Mirror one TaintMap bitmap write into the shadow (the TaintMap
     * hook): `tagAddr`/`bitIndex` of one bit TaintMap wrote to
     * memory.
     */
    void mirrorTagWrite(uint64_t tagAddr, unsigned bitIndex, bool value);

    // ----- teardown -------------------------------------------------------

    /**
     * Final fence. Idempotent. After shutdown the shadow remains
     * readable (regTaint / pendingViolation).
     */
    const Violation *shutdown();

    /** Fold dift.* counters into `stats`. */
    void statInto(StatSet &stats) const;

  private:
    struct ShadowPage
    {
        uint8_t bytes[4096] = {};
        uint64_t dirty[8] = {}; ///< bit per 8-byte word (512 words)
    };

    ShadowPage &shadowPage(uint64_t tagAddr);
    ShadowPage *findPage(uint64_t key);
    ShadowPage &ensurePage(uint64_t key);
    bool regBit(uint8_t r) const;
    void setRegBit(uint8_t r, bool t);
    bool tagWindowTainted(uint64_t ea, unsigned size);
    void writeTagBits(uint64_t ea, unsigned size, bool tainted);
    void rmwShadowByte(uint64_t tagAddr, uint8_t mask, bool set,
                       bool markDirty);
    void violate(ViolationKind kind, uint64_t addr, int32_t pc,
                 int16_t func, const char *detail);
    void materializeDirty();

    Memory *mem_;
    Granularity gran_;
    bool running_ = false;
    bool violated_ = false;

    uint64_t regTaint_ = 0;
    std::unordered_map<uint64_t, std::unique_ptr<ShadowPage>> tagPages_;
    /**
     * Direct-mapped shadow-page cache in front of tagPages_: tag
     * traffic folds 8:1 (or 64:1), so a handful of pages absorb
     * nearly every op and the per-op hash lookup is the replay's
     * single largest cost. Entries may cache absence
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
    uint64_t replays_ = 0; ///< dift.events
    Violation violation_;

    uint64_t fences_ = 0;
    uint64_t materializedWords_ = 0;
};

// ----- replay core --------------------------------------------------------
//
// The per-op replay lives in the header so the engine's dispatch loop
// compiles it to one straight-line path with no cross-TU call per op.

/// The synchronous engine's exact NaT-consumption fault details
/// (sim/machine.cc). The replay reproduces them verbatim so async
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

inline bool
AsyncTaintTier::load(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
                     uint8_t size, int32_t pc, int16_t func)
{
    ++replays_;
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
AsyncTaintTier::store(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
                      uint8_t size, int32_t pc, int16_t func)
{
    ++replays_;
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
AsyncTaintTier::branchCheck(uint8_t a, uint64_t ea, int32_t pc,
                            int16_t func)
{
    ++replays_;
    if (regBit(a)) [[unlikely]] {
        violate(ViolationKind::ControlFlow, ea, pc, func,
                kDetailBranchNat);
        return true;
    }
    return false;
}

} // namespace shift::dift

#endif // SHIFT_DIFT_TIER_HH
