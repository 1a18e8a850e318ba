#include "host.h"

#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/simd.h"
#include "trace.h"

// Sanitizer runtimes define these; an unsanitized link leaves them null.
extern "C" {
__attribute__((weak)) void __asan_init();
__attribute__((weak)) void __tsan_init();
__attribute__((weak)) void __msan_init();
__attribute__((weak)) void __ubsan_handle_add_overflow();
}

namespace perfbench {

std::string
buildProblem()
{
#ifndef NDEBUG
    return "built without NDEBUG (assertions on)";
#endif
    if (std::strlen(PERFBENCH_LIB_SANITIZE) != 0)
        return std::string("libmant built with MANT_SANITIZE=") +
               PERFBENCH_LIB_SANITIZE;
    if (__asan_init != nullptr || __tsan_init != nullptr ||
        __msan_init != nullptr || __ubsan_handle_add_overflow != nullptr)
        return "linked against a sanitizer runtime";
    return {};
}

std::string
environmentLine()
{
    std::string flags;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("flags", 0) != 0)
            continue;
        std::istringstream words(line.substr(line.find(':') + 1));
        for (std::string w; words >> w;) {
            for (const char *want :
                 {"sse4_2", "avx2", "fma", "f16c", "avx512f", "avx512bw",
                  "avx512_vnni", "avx_vnni", "amx_int8", "asimd"}) {
                if (w == want)
                    flags += (flags.empty() ? "" : ",") + w;
            }
        }
        break;
    }
    std::ostringstream os;
    os << "simd=" << mant::simdPathName(mant::activeSimdPath())
       << " threads=" << mant::maxThreads()
       << " nproc=" << std::thread::hardware_concurrency()
       << " cpu_flags=" << (flags.empty() ? "unknown" : flags);
    return os.str();
}

double
residentMb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0.0;
    long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%lld %lld", &size, &resident);
    std::fclose(f);
    if (got != 2)
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

CpuTimes
cpuTimes()
{
    CpuTimes t;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    if (cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        double v = 0.0;
        if (!(stat >> v))
            return CpuTimes{};
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

namespace {

constexpr int kDotLen = 2048;

/** Per-thread int8 dot products over an L1-resident pair of vectors:
 *  compute-bound, so the rate is the box's int8 MAC throughput. */
int64_t
int8DotScalar(const int8_t *a, const int8_t *b, int64_t reps)
{
    int64_t total = 0;
    for (int64_t r = 0; r < reps; ++r) {
        int32_t acc = 0;
        for (int i = 0; i < kDotLen; ++i)
            acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
        total += acc;
        // Keep the compiler from hoisting the loop out of the reps.
        asm volatile("" : : "r"(a) : "memory");
    }
    return total;
}

#if defined(__x86_64__)
/** The instruction mix the AVX2 GEMM kernels use: sign-extend int8 to
 *  int16, then vpmaddwd pairs into int32 lanes. */
__attribute__((target("avx2"))) int64_t
int8DotAvx2(const int8_t *a, const int8_t *b, int64_t reps)
{
    int64_t total = 0;
    for (int64_t r = 0; r < reps; ++r) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int i = 0; i < kDotLen; i += 32) {
            const auto *pa = reinterpret_cast<const __m128i *>(a + i);
            const auto *pb = reinterpret_cast<const __m128i *>(b + i);
            const __m256i a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa));
            const __m256i a1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa + 1));
            const __m256i b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb));
            const __m256i b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb + 1));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, b0));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, b1));
        }
        alignas(32) int32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                           _mm256_add_epi32(acc0, acc1));
        for (int32_t v : lanes)
            total += v;
        asm volatile("" : : "r"(a) : "memory");
    }
    return total;
}
#endif

int64_t
int8Dot(const int8_t *a, const int8_t *b, int64_t reps)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        return int8DotAvx2(a, b, reps);
#endif
    return int8DotScalar(a, b, reps);
}

} // namespace

Roofline
probeRoofline()
{
    Roofline r;
    const int64_t threads = std::max(1, mant::maxThreads());

    // Copy: 64 MB per array, far beyond any cache level of the box.
    const int64_t n = int64_t{64} << 20;
    std::vector<uint8_t> src(static_cast<size_t>(n), 1);
    std::vector<uint8_t> dst(static_cast<size_t>(n), 0);
    const int64_t chunk = int64_t{1} << 20;
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = nowS();
        mant::parallelFor(0, n / chunk, 1,
                          [&](int64_t b, int64_t e, int64_t) {
                              std::memcpy(dst.data() + b * chunk,
                                          src.data() + b * chunk,
                                          static_cast<size_t>((e - b) * chunk));
                          });
        const double dt = nowS() - t0;
        r.copyGbs =
            std::max(r.copyGbs, 2.0 * static_cast<double>(n) / dt / 1e9);
    }

    // Int8 MACs: one private vector pair per thread.
    std::vector<int8_t> ab(static_cast<size_t>(threads * 2 * kDotLen));
    for (size_t i = 0; i < ab.size(); ++i)
        ab[i] = static_cast<int8_t>((i * 37) % 251 - 125);
    const int64_t reps = 131072;
    std::vector<int64_t> sink(static_cast<size_t>(threads));
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = nowS();
        mant::parallelFor(0, threads, 1, [&](int64_t b, int64_t e, int64_t) {
            for (int64_t t = b; t < e; ++t) {
                const int8_t *a = ab.data() + t * 2 * kDotLen;
                sink[static_cast<size_t>(t)] = int8Dot(a, a + kDotLen, reps);
            }
        });
        const double dt = nowS() - t0;
        r.int8Gmacs = std::max(
            r.int8Gmacs, static_cast<double>(threads) *
                             static_cast<double>(reps) * kDotLen / dt / 1e9);
    }
    // Publish the sums so the loops cannot be optimized away.
    static volatile int64_t published = 0;
    for (int64_t v : sink)
        published = published + v;
    return r;
}

} // namespace perfbench
