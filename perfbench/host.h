/**
 * @file
 * What the benchmark knows about the box it runs on: a guard against
 * builds that measure a different program, the environment line printed
 * with every result, a resident-memory sampler, and the roofline probes
 * (STREAM-style copy bandwidth and an int8 multiply-accumulate loop)
 * that give the per-layer bandwidth and MAC figures an absolute base.
 */

#ifndef MANT_PERFBENCH_HOST_H_
#define MANT_PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

/** Empty when this is an optimized, unsanitized build; otherwise why
 *  the numbers it would print measure a different program. */
std::string buildProblem();

/** One line: SIMD path, kernel threads, nproc and the CPU's ISA flags
 *  that the kernels can dispatch on. */
std::string environmentLine();

/** Current resident set of this process in MB (1e6 bytes), read from
 *  /proc/self/statm; 0 where that file is unavailable. */
double residentMb();

/** Jiffies since boot over all CPUs: in total, and stolen by the
 *  hypervisor (time this box's vCPUs were runnable but not running). */
struct CpuTimes
{
    double total = 0.0;
    double steal = 0.0;
};

/** Read from /proc/stat; zeros where that file is unavailable. */
CpuTimes cpuTimes();

struct Roofline
{
    double copyGbs = 0.0;   ///< STREAM copy: (read + write bytes) / s
    double int8Gmacs = 0.0; ///< int8 x int8 -> int32 MACs / s
};

/** Both probes at the current kernel thread count (best of a few
 *  repetitions, as STREAM reports). Takes well under a second. */
Roofline probeRoofline();

} // namespace perfbench

#endif // MANT_PERFBENCH_HOST_H_
