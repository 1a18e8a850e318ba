/**
 * @file
 * The serving benchmark's statistics: seeded input generation, latency
 * summaries with a sample-supported tail, per-request TTFT/ITL
 * attribution at step() returns, and SLO accounting. Everything here is
 * a pure function of its arguments so selfCheck() can pin the rules the
 * reported numbers depend on.
 */

#ifndef MANT_PERFBENCH_STATS_H_
#define MANT_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64: the benchmark's only random source, so one --seed fixes
 *  every prompt and length on every platform. */
class SeededRng
{
  public:
    explicit SeededRng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [lo, hi]. */
    int64_t
    between(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(
                        next() % static_cast<uint64_t>(hi - lo + 1));
    }

  private:
    uint64_t state_;
};

/**
 * `n` lengths in [lo, hi], stratified: draw i falls in the i-th of n
 * equal slices of the range, and the draws are then shuffled. Every
 * seed gets a different assignment, but the total work of a batch
 * barely moves between seeds, so run-to-run spread measures the
 * program rather than the luck of the draw.
 */
inline std::vector<int64_t>
stratifiedLengths(SeededRng &rng, int64_t n, int64_t lo, int64_t hi)
{
    std::vector<int64_t> out(static_cast<size_t>(n));
    const double span = static_cast<double>(hi - lo + 1);
    for (int64_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(i) + rng.uniform()) /
                         static_cast<double>(n);
        out[static_cast<size_t>(i)] =
            std::min(hi, lo + static_cast<int64_t>(u * span));
    }
    for (int64_t i = n - 1; i > 0; --i)
        std::swap(out[static_cast<size_t>(i)],
                  out[static_cast<size_t>(rng.between(0, i))]);
    return out;
}

/** A latency sample's median and its supported tail. */
struct Summary
{
    size_t n = 0;
    double p50 = std::numeric_limits<double>::quiet_NaN();
    /** The tail percentile: the highest of kTailLadder with at least
     *  kTailBeyond samples above it, or 100 (the maximum) when the
     *  sample supports none of them. */
    double tailPct = 0.0;
    double tail = std::numeric_limits<double>::quiet_NaN();
};

constexpr size_t kTailBeyond = 10;

/** Conventional tail percentiles, highest first. A fixed ladder keeps
 *  the reported tail at the same percentile from run to run. */
constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};

/** 1-based nearest rank of percentile p in n samples. The epsilon keeps
 *  p * n / 100 that is whole in exact arithmetic (99 * 1000 / 100) from
 *  rounding up past its rank. */
inline size_t
nearestRank(double p, size_t n)
{
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

/** Highest ladder percentile a sample of `n` supports (>= kTailBeyond
 *  samples beyond it); 100 when none is. */
inline double
supportedTailPct(size_t n)
{
    for (double p : kTailLadder)
        if (n > 0 && n - nearestRank(p, n) >= kTailBeyond)
            return p;
    return 100.0;
}

/**
 * Median and tail of `xs`. The tail percentile is the one a sample of
 * `supportN` supports, or, when that is none, the one xs itself
 * supports. Passing the size of one round when xs pools several keeps
 * the percentile fixed however many rounds a run fits in, while the
 * pooled sample estimates it.
 */
inline Summary
summarize(std::vector<double> xs, size_t supportN = 0)
{
    Summary s;
    std::sort(xs.begin(), xs.end());
    s.n = xs.size();
    if (xs.empty())
        return s;
    s.p50 = xs[nearestRank(50.0, s.n) - 1];
    s.tailPct = supportedTailPct(supportN);
    if (s.tailPct == 100.0)
        s.tailPct = supportedTailPct(s.n);
    s.tail = xs[nearestRank(s.tailPct, s.n) - 1];
    return s;
}

inline double
mean(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0
                      : std::accumulate(xs.begin(), xs.end(), 0.0) /
                            static_cast<double>(xs.size());
}

/** One request as the client saw it. Times are seconds on the
 *  benchmark's steady clock. */
struct RequestRecord
{
    /** The submit() call; TTFT counts from here. */
    double submitS = 0.0;
    /** Return time of the step() that first showed token i. */
    std::vector<double> tokenS;
    bool done = false;
};

/**
 * Attribute the tokens a step() made visible: `outSize` is output()
 * after the step returned at `stepS`. Every token beyond those already
 * seen is stamped with this step's return, so a step that emits a
 * request's first token and a later step that emits its second give
 * one gap equal to the time between those two returns.
 */
inline void
noteTokens(RequestRecord &r, size_t outSize, double stepS)
{
    while (r.tokenS.size() < outSize)
        r.tokenS.push_back(stepS);
}

inline double
ttftS(const RequestRecord &r)
{
    return r.tokenS.empty() ? std::numeric_limits<double>::infinity()
                            : r.tokenS.front() - r.submitS;
}

inline void
appendGaps(const RequestRecord &r, std::vector<double> &gapsS)
{
    for (size_t i = 1; i < r.tokenS.size(); ++i)
        gapsS.push_back(r.tokenS[i] - r.tokenS[i - 1]);
}

/**
 * Independent observations among the gaps of `recs`: the distinct
 * (previous, next) step-return pairs they span. Every stream decoding
 * in one step gets the same gap, so a step with 16 rows adds 16 equal
 * gaps but one observation; a tail needs observations beyond it, not
 * copies of one step.
 */
inline size_t
gapObservations(const std::vector<const RequestRecord *> &recs)
{
    std::vector<std::pair<double, double>> spans;
    for (const RequestRecord *r : recs)
        for (size_t i = 1; i < r->tokenS.size(); ++i)
            spans.emplace_back(r->tokenS[i - 1], r->tokenS[i]);
    std::sort(spans.begin(), spans.end());
    return static_cast<size_t>(
        std::unique(spans.begin(), spans.end()) - spans.begin());
}

/** Mean inter-token gap of one request (0 with fewer than 2 tokens). */
inline double
meanItlS(const RequestRecord &r)
{
    return r.tokenS.size() < 2
               ? 0.0
               : (r.tokenS.back() - r.tokenS.front()) /
                     static_cast<double>(r.tokenS.size() - 1);
}

/** A request meets the SLO only if it finished, its first token came
 *  within the TTFT limit, and its mean ITL stayed within the ITL
 *  limit. Failed or refused requests always miss. */
inline bool
meetsSlo(const RequestRecord &r, double ttftLimitS, double itlLimitS)
{
    return r.done && ttftS(r) <= ttftLimitS && meanItlS(r) <= itlLimitS;
}

/** Self-checks of the rules above; returns the first violated rule's
 *  name, or an empty string. Runs at start-up of every benchmark run. */
inline std::string
selfCheck()
{
    // Tail: highest ladder percentile with >= 10 samples beyond it.
    {
        const auto beyond = [](const std::vector<double> &xs, double v) {
            return std::count_if(xs.begin(), xs.end(),
                                 [v](double x) { return x > v; });
        };
        std::vector<double> xs(100);
        for (size_t i = 0; i < xs.size(); ++i)
            xs[i] = static_cast<double>(100 - i); // unsorted input
        const Summary s = summarize(xs);
        if (s.n != 100 || s.tailPct != 90.0 || s.tail != 90.0 ||
            s.p50 != 50.0 || beyond(xs, s.tail) != 10)
            return "tail of 100 samples is p90, 10 beyond";
        std::vector<double> ys(1000);
        std::iota(ys.begin(), ys.end(), 1.0);
        const Summary u = summarize(ys);
        if (u.tailPct != 99.0 || beyond(ys, u.tail) != 10)
            return "tail of 1000 samples is p99, 10 beyond";
        ys.pop_back();
        if (summarize(ys).tailPct != 95.0)
            return "tail of 999 samples falls back to p95";
        if (summarize(std::vector<double>(40, 1.0)).tailPct != 75.0)
            return "tail of 40 samples is p75";
        std::vector<double> few(32);
        std::iota(few.begin(), few.end(), 1.0);
        const Summary f = summarize(few);
        if (f.tailPct != 100.0 || f.tail != 32.0)
            return "below 40 samples the maximum is reported";
        // Pooled rounds keep the percentile one round supports.
        std::vector<double> pooled(4000);
        std::iota(pooled.begin(), pooled.end(), 1.0);
        const Summary q = summarize(pooled, 240);
        if (q.tailPct != 95.0 || q.tail != 3800.0)
            return "pooled sample reports the per-round percentile";
        pooled.resize(288);
        if (summarize(pooled, 16).tailPct != 95.0)
            return "rounds too small for a tail use the pooled support";
    }
    // SLO: a failed request misses however fast it was.
    {
        RequestRecord fast;
        fast.submitS = 0.0;
        fast.tokenS = {0.001, 0.002};
        fast.done = true;
        if (!meetsSlo(fast, 0.1, 0.1))
            return "slo: fast done request meets";
        fast.done = false;
        if (meetsSlo(fast, 0.1, 0.1))
            return "slo: failed request counts as a miss";
        RequestRecord none;
        none.done = false;
        if (meetsSlo(none, 1e9, 1e9))
            return "slo: refused request without tokens misses";
    }
    // ITL attribution across steps.
    {
        RequestRecord r;
        r.submitS = 1.0;
        noteTokens(r, 0, 1.5); // prefill chunk, nothing visible
        noteTokens(r, 1, 2.0); // first token
        noteTokens(r, 1, 2.5); // no new token this step
        noteTokens(r, 3, 3.0); // two tokens at one return
        std::vector<double> gaps;
        appendGaps(r, gaps);
        if (gaps.size() != 2 || gaps[0] != 1.0 || gaps[1] != 0.0)
            return "itl: gaps between step returns";
        if (ttftS(r) != 1.0)
            return "itl: ttft from the first-token step";
        if (meanItlS(r) != 0.5)
            return "itl: mean gap per request";
        // A second stream decoding in the same steps adds gaps, not
        // observations; one that skipped a step adds one.
        RequestRecord same = r, other = r;
        other.tokenS = {2.5, 3.0};
        if (gapObservations({&r, &same}) != 2 ||
            gapObservations({&r, &same, &other}) != 3)
            return "itl: equal gaps from one step are one observation";
    }
    // Stratified lengths are a pure function of the seed.
    {
        SeededRng a(7), b(7);
        const auto lens = stratifiedLengths(a, 16, 16, 128);
        if (lens != stratifiedLengths(b, 16, 16, 128))
            return "seeded lengths repeat";
        for (int64_t l : lens)
            if (l < 16 || l > 128)
                return "stratified lengths stay in range";
    }
    return {};
}

} // namespace perfbench

#endif // MANT_PERFBENCH_STATS_H_
