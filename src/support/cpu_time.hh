/**
 * @file
 * Per-thread CPU time, for host-time measurements that must not count
 * the time the host spends running other work.
 */

#ifndef SHIFT_SUPPORT_CPU_TIME_HH
#define SHIFT_SUPPORT_CPU_TIME_HH

#include <time.h>

namespace shift
{

/**
 * CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
 * Unlike wall time it does not grow while the host deschedules the
 * thread (steal, neighbours' bursts), so a single-threaded timed region
 * reads its own cost. Only valid for regions that do all their work on
 * the calling thread.
 */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

} // namespace shift

#endif // SHIFT_SUPPORT_CPU_TIME_HH
