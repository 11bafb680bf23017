/**
 * @file
 * The MiniC standard library source.
 *
 * String and memory routines are written in MiniC and instrumented
 * like application code, exactly as the paper instrumented glibc:
 * taint then flows through strcpy/memcpy/... via the ordinary
 * load/store instrumentation, no summaries needed. Like glibc, it is
 * built once and linked: Session compiles it once per process and
 * runs the passes once per option set (docs/MINIC.md), so it must
 * stay self-contained — no globals, no string literals, no calls
 * outside itself (minic::Library enforces this). Only
 * functions that cannot be expressed in MiniC (I/O, variadic sprintf,
 * allocation) are native built-ins with hand-written taint summaries
 * — the analogue of the paper's ~17 wrap functions for assembly code.
 */

#ifndef SHIFT_RUNTIME_MINIC_STDLIB_HH
#define SHIFT_RUNTIME_MINIC_STDLIB_HH

namespace shift
{

/** MiniC source text of the standard library. */
extern const char *const kMiniCStdlib;

} // namespace shift

#endif // SHIFT_RUNTIME_MINIC_STDLIB_HH
