/**
 * @file
 * Software-only DIFT baseline (LIFT-style).
 *
 * The paper compares SHIFT against LIFT [22], a dynamic-binary-
 * translation DIFT whose 4.6X slowdown comes from doing in software
 * what SHIFT gets from the deferred-exception hardware: propagating a
 * taint bit per register through EVERY data-flow instruction.
 *
 * This pass reproduces that cost model on our IR so both systems run
 * the same workloads on the same substrate:
 *
 *  - Register taint lives in a reserved register (r31) as a 64-bit
 *    bitmap, bit i = taint of r(i) — the analogue of LIFT keeping tags
 *    in spare x86-64 registers.
 *  - Every ALU instruction gains explicit propagation code
 *    (tag[dst] = tag[src1] | tag[src2]).
 *  - Loads/stores exchange tags with the same in-memory bitmap layout
 *    SHIFT uses, plus explicit pre-access checks (the L1/L2 policies
 *    must be tested in software; hardware faults do nothing here).
 *  - Compares need NO relaxation — there is no NaT to trip over —
 *    which is the one place software DIFT is cheaper.
 *
 * Alert delivery uses a reserved "syscall 99" trap; the runtime maps
 * it onto the policy engine.
 */

#ifndef SHIFT_BASELINE_SOFTWARE_DIFT_HH
#define SHIFT_BASELINE_SOFTWARE_DIFT_HH

#include "core/instrument.hh"
#include "isa/program.hh"
#include "mem/address_space.hh"

namespace shift
{

/** Syscall number the baseline uses to raise a security alert. */
constexpr int64_t kDiftAlertSyscall = 99;

/** Alert reasons, passed in the kDiftAlertReasonReg scratch register. */
constexpr int64_t kDiftAlertLoad = 1;
constexpr int64_t kDiftAlertStore = 2;
constexpr int kDiftAlertReasonReg = reg::shiftTmp3;

/**
 * Options for the software baseline. Per-access address checks are
 * off by default: LIFT enforces policy at control transfers and API
 * boundaries rather than on every load/store (enabling them here is
 * the software analogue of SHIFT with no relax rules).
 */
struct BaselineOptions
{
    Granularity granularity = Granularity::Byte;
    bool checkLoads = false;  ///< software L1 checks
    bool checkStores = false; ///< software L2 checks

    bool operator==(const BaselineOptions &) const = default;
};

/**
 * Instrument a program with software-only DIFT, in place. Reuses
 * InstrumentStats for size accounting.
 */
InstrumentStats instrumentSoftwareDift(Program &program,
                                       const BaselineOptions &options);

} // namespace shift

#endif // SHIFT_BASELINE_SOFTWARE_DIFT_HH
