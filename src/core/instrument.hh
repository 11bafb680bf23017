/**
 * @file
 * The SHIFT instrumentation pass.
 *
 * This is the paper's core contribution realized as a compiler phase:
 * it runs AFTER register allocation (the paper inserts its GCC phase
 * between pass_leaf_regs and pass_sched2) and rewrites
 *
 *  - every load:  consult the taint bitmap for the accessed bytes and,
 *    when tainted, set the target register's NaT bit by adding the
 *    standing NaT-source register (paper figure 5, left);
 *  - every store: test the source register's NaT bit with tnat,
 *    read-modify-write the bitmap accordingly, and perform the real
 *    store with st8.spill so a tainted source does not fault (paper
 *    figure 5, right);
 *  - every compare: "relax" it, because Itanium compares clear both
 *    destination predicates when an operand carries NaT. Without
 *    hardware help this costs a spill/reload to strip the NaT plus a
 *    predicated re-taint (section 4.1 "Relaxing NaT-sensitive
 *    Instructions");
 *  - xor r,r / sub r,r zero idioms: purify the result register
 *    (section 3.3.2 "Implicit Information Flow").
 *
 * In-register propagation needs NO instrumentation at all: the
 * processor's deferred-exception hardware ORs NaT bits through every
 * computation. That asymmetry is the entire point of SHIFT.
 *
 * The pass honours the paper's proposed architectural enhancements
 * (section 6.3) when enabled: setnat/clrnat replace the multi-
 * instruction NaT manufacture/strip sequences, and cmp.nat removes
 * compare relaxation entirely. Figure 8 is reproduced by toggling
 * these options.
 *
 * Compiler-internal spill/fill traffic (st8.spill/ld8.fill emitted by
 * register allocation) is NOT instrumented: those instructions already
 * preserve NaT through the UNAT/sidecar mechanism, which is exactly
 * why SHIFT-era compilers must use them for register saves.
 */

#ifndef SHIFT_CORE_INSTRUMENT_HH
#define SHIFT_CORE_INSTRUMENT_HH

#include <cstdint>
#include <set>
#include <string>

#include "isa/program.hh"
#include "mem/address_space.hh"

namespace shift
{

/** Instrumentation options. */
struct InstrumentOptions
{
    Granularity granularity = Granularity::Byte;

    /** Use the proposed setnat/clrnat instructions (figure 8). */
    bool natSetClear = false;

    /** Use the proposed NaT-aware compare (figure 8). */
    bool natAwareCompare = false;

    /**
     * Allow loads through tainted pointers: strip the address taint,
     * perform the access, restore, and propagate the pointer taint to
     * the loaded value (section 3.3.2 "propagation of tags from/to
     * address registers"). When false (default), a tainted load
     * address hits the hardware NaT-consumption fault = policy L1.
     */
    bool relaxLoadAddress = false;

    /**
     * Application-specific rules (section 3.3.2: "for specific
     * translation or lookup tables, SHIFT allows users to write
     * application-specific rules"): loads in these functions are
     * relaxed as if relaxLoadAddress were set, because the user has
     * asserted their indices are bounds-checked.
     */
    std::set<std::string> relaxLoadFunctions;

    /** Same rule for stores through bounds-checked tainted indices. */
    std::set<std::string> relaxStoreFunctions;

    /**
     * Alert when a tainted value feeds a compare that controls a
     * branch (the policy used against the qwik-smtpd overflow in the
     * paper's figure 1 walk-through). Implies no compare relaxation:
     * the taint is deliberately consumed.
     */
    bool cmpTaintAlert = false;

    /**
     * Scoped form of cmpTaintAlert: only compares inside these
     * functions trap on tainted operands. This is how the figure-1
     * policy is applied in practice — to the sensitive comparison,
     * not to every string routine that legitimately inspects input.
     */
    std::set<std::string> cmpTaintAlertFunctions;

    /** Ablation switch: skip compare relaxation entirely. */
    bool instrumentCompares = true;

    /** Ablation switch: skip the load path. */
    bool instrumentLoads = true;

    /** Ablation switch: skip the store path. */
    bool instrumentStores = true;

    /**
     * The paper's section 6.4 optimization suggestion: "one possible
     * compiler optimization might be reusing the computation code for
     * some adjacent data". When consecutive accesses in a basic block
     * go through the same (unmodified) address register, the
     * tag-address fold already sitting in the scratch register is
     * reused instead of recomputed. On by default since the
     * differential taint-equivalence suite (tests/test_opt.cc) pinned
     * it down; the conservative invalidation model (redefinition of
     * the address register or of the scratch itself, joins, calls) is
     * documented in docs/INSTR-OPT.md.
     */
    bool reuseTagAddr = true;

    bool operator==(const InstrumentOptions &) const = default;
};

/** Static counts from one instrumentation run. */
struct InstrumentStats
{
    uint64_t loads = 0;        ///< loads instrumented
    uint64_t stores = 0;       ///< stores instrumented
    uint64_t compares = 0;     ///< compares relaxed / converted
    uint64_t purifies = 0;     ///< xor/sub zero idioms purified
    uint64_t added = 0;        ///< instructions added
    uint64_t originalSize = 0; ///< static instructions before
    uint64_t newSize = 0;      ///< static instructions after

    bool operator==(const InstrumentStats &) const = default;

    /** Field-wise sum: stats of disjoint function sets add up. */
    InstrumentStats &operator+=(const InstrumentStats &o);
};

/**
 * Instrument a whole program in place. Must run after register
 * allocation; fatals if it meets a virtual register.
 */
InstrumentStats instrumentProgram(Program &program,
                                  const InstrumentOptions &options);

} // namespace shift

#endif // SHIFT_CORE_INSTRUMENT_HH
