/**
 * @file
 * The serving benchmark. One run = one workload at one seed:
 *
 *   1. synthesize float weights (the stand-in for a checkpoint; untimed);
 *   2. set up several times, timing each: exportModelToFile (quantize +
 *      pack + write), LoadedModel::load, ServingEngine construction —
 *      then free the float weights;
 *   3. drive submit()/step() from one single-threaded loop for the run's
 *      seconds, stamping the client-visible times around those calls;
 *   4. check the outputs (outside any timed region) and print the
 *      metrics, the last stdout line being one JSON object.
 *
 * With --trace 1 the same inputs are served with spans recorded around
 * every submit()/step() and each step's shape logged; a sample of the
 * shapes is then replayed through the layers' public calls (replay.h)
 * and the per-layer metrics are printed instead. Spans go to a Chrome
 * trace-event file written when the run ends.
 *
 * Usage: mant_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                       --workdir DIR      (files the run writes)
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/kv_pages.h"
#include "core/kv_panels.h"
#include "core/packed_tiles.h"
#include "core/parallel.h"
#include "model/model_file.h"
#include "model/model_profiles.h"
#include "serve/serving_engine.h"
#include "host.h"
#include "replay.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using mant::GenRequest;
using mant::RequestId;
using mant::RequestState;
using mant::ServingEngine;

/** A workload: a traffic mix plus the engine settings it runs under. */
struct Workload
{
    const char *name;
    /** Kernel threads. */
    int threads;
    int64_t kvGroup;
    /** Engine slots: the most requests the loop keeps in flight. */
    int64_t slots;
    /** Steps between submits (see PhaseRunner::run). */
    int64_t paceSteps;
    int64_t prefillChunk;
    int64_t promptLo, promptHi;
    int64_t outLo, outHi;
    /** Requests per draw: a round (see PhaseRunner::run). */
    int64_t perRound;
    /** KV page-pool budget in bytes; 0 sizes it for every slot at the
     *  workload's longest request, so the pool never runs out. */
    int64_t poolBytes;
    /** SLO limits: TTFT, and each request's mean inter-token gap. */
    double sloTtftMs;
    double sloItlMs;
    /** Requests per run checked against the serial oracle. */
    int64_t oracleChecks;
};

// Why each workload exists, and the layer it loads, is recorded in
// BENCHMARK.json. Both run on the 512d x 2L serving profile, with up to
// 16 requests in the engine for the whole run. Kernel threads stay
// below the core count: on a shared host, a step that waits on every
// core at each barrier measures the host's CPU steal.
// SLO limits sit above every request seen at the commit that defined
// the benchmark, so they flag a large regression only. The pressure
// budget is a byte count fixed at 40% of what 16 slots pin at that
// commit's KV geometry (kvGroup 16, 51-row requests), so a change that
// shrinks KV blocks fits more pages into the same bytes and shows as
// fewer evictions.
const Workload kWorkloads[] = {
    {.name = "longctx", .threads = 2, .kvGroup = 64, .slots = 16,
     .paceSteps = 5, .prefillChunk = 64, .promptLo = 512, .promptHi = 960,
     .outLo = 64, .outHi = 64, .perRound = 16, .poolBytes = 0,
     .sloTtftMs = 8000.0, .sloItlMs = 400.0, .oracleChecks = 2},
    {.name = "pressure", .threads = 1, .kvGroup = 16, .slots = 16,
     .paceSteps = 1, .prefillChunk = 8, .promptLo = 4, .promptHi = 35,
     .outLo = 16, .outHi = 16, .perRound = 64, .poolBytes = 1572864,
     .sloTtftMs = 3000.0, .sloItlMs = 250.0, .oracleChecks = 4},
};

constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 15;
constexpr double kSetupBudgetS = 4.0;

/** Pages one stream can pin at `maxRows` (the engine's own block math). */
int64_t
worstPagesPerStream(const mant::ArchDims &d, int64_t kvGroup,
                    int64_t maxRows, int64_t pageBytes)
{
    const int64_t kBlock =
        mant::KPanelStore::blockBytesFor(d.headDim(), kvGroup);
    const int64_t vBlock =
        mant::VPanelStore::blockBytesFor(d.headDim(), kvGroup);
    const auto ceilDiv = [](int64_t a, int64_t b) { return (a + b - 1) / b; };
    const int64_t perCache =
        ceilDiv(ceilDiv(maxRows, mant::kTilePanelCols), pageBytes / kBlock) +
        ceilDiv(ceilDiv(maxRows, kvGroup), pageBytes / vBlock);
    return perCache * d.nLayers * d.nHeads;
}

std::vector<GenRequest>
makeRequests(const Workload &w, SeededRng &rng, int64_t n, int64_t vocab)
{
    const auto prompts = stratifiedLengths(rng, n, w.promptLo, w.promptHi);
    const auto outs = stratifiedLengths(rng, n, w.outLo, w.outHi);
    std::vector<GenRequest> reqs(static_cast<size_t>(n));
    for (size_t i = 0; i < reqs.size(); ++i) {
        GenRequest &r = reqs[i];
        r.prompt.resize(static_cast<size_t>(prompts[i]));
        for (auto &t : r.prompt)
            t = static_cast<int32_t>(rng.between(0, vocab - 1));
        r.maxNewTokens = outs[i];
    }
    return reqs;
}

/** One request in flight, plus what the traced run infers about the
 *  rows its stream fed in each step. */
struct Live
{
    size_t rec = 0;
    RequestState last = RequestState::Queued;
    size_t outBefore = 0;
    int64_t feedLen = 0;
    int64_t fed = 0;
    bool prefilling = false;
    bool fresh = true;
    double activeS = -1.0;
};

/** Everything one serving phase measured. */
struct PhaseResult
{
    std::vector<RequestRecord> recs;
    std::vector<RequestId> ids;
    std::vector<GenRequest> reqs;
    double firstSubmitS = -1.0;
    double lastDoneS = 0.0;
    /** Peak resident set while each round ran. */
    std::vector<double> roundRssMb;
    std::vector<double> stepS;
    /** Rounds (draws of perRound requests, in flight together with
     *  their neighbours): [first, last) record indices. */
    std::vector<std::pair<size_t, size_t>> rounds;
    // Traced phase only.
    std::vector<StepShape> shapes;
    std::vector<double> queueWaitS;
    std::vector<double> poolUtil;
    int64_t shapeMismatches = 0;
    /** Wall time the loop spent recording the trace: everything the
     *  traced loop does that the untraced one skips. */
    double traceS = 0.0;
    ServingEngine::Stats before, after;
    int64_t allocBefore = 0, allocAfter = 0;

    double wallS() const { return lastDoneS - firstSubmitS; }
};

/** Drives one engine through one phase from a single thread. */
class PhaseRunner
{
  public:
    PhaseRunner(ServingEngine &engine, const Workload &w, Tracer *tracer)
        : engine_(engine), w_(w), tracer_(tracer)
    {
        res_.before = engine.stats();
        if (const auto *pool = engine.pagePool())
            res_.allocBefore = pool->allocAttempts();
    }

    /**
     * A paced loop: one submit every w_.paceSteps steps, held back while
     * w_.slots requests are live, until the budget is spent; then the
     * engine drains. Pacing in steps, not seconds, makes the sequence
     * of step shapes a function of the seed alone. In longctx a request
     * lives about 76 steps, so a submit every 5 steps keeps about 15 in
     * flight with their prefills evenly staggered: each step carries
     * two or three prefill chunks, where a closed loop lets streams
     * drift into phase and pile their prefills onto the same steps. In
     * pressure evictions stretch lifetimes, so the slot limit binds
     * and it runs as a closed loop at 16. Requests are drawn perRound
     * at a time (stratified); each draw is a round in res_.rounds,
     * which sets the tail percentile and the resident-set peaks.
     */
    void
    run(SeededRng &rng, int64_t vocab, double budgetS)
    {
        const double start = nowS();
        std::vector<GenRequest> draw;
        size_t next = 0, first = 0;
        int64_t sinceSubmit = w_.paceSteps;
        const auto closeRound = [&] {
            res_.rounds.emplace_back(first, res_.recs.size());
            res_.roundRssMb.push_back(rssPeakMb_);
        };
        while (nowS() - start < budgetS) {
            if (sinceSubmit >= w_.paceSteps &&
                static_cast<int64_t>(live_.size()) < w_.slots) {
                sinceSubmit = 0;
                if (next == draw.size()) {
                    if (!draw.empty())
                        closeRound();
                    draw = makeRequests(w_, rng, w_.perRound, vocab);
                    next = 0;
                    first = res_.recs.size();
                    rssPeakMb_ = 0.0;
                }
                submit(std::move(draw[next++]));
            }
            step();
            ++sinceSubmit;
        }
        while (!engine_.idle())
            step();
        closeRound();
    }

    PhaseResult
    finish()
    {
        res_.after = engine_.stats();
        if (const auto *pool = engine_.pagePool())
            res_.allocAfter = pool->allocAttempts();
        return std::move(res_);
    }

  private:
    void
    submit(GenRequest req)
    {
        res_.reqs.push_back(req);
        const double t0 = nowS();
        const RequestId id = engine_.submit(std::move(req));
        const double t1 = nowS();
        RequestRecord r;
        r.submitS = t0;
        if (res_.firstSubmitS < 0)
            res_.firstSubmitS = t0;
        res_.recs.push_back(r);
        res_.ids.push_back(id);
        Live l;
        l.rec = res_.recs.size() - 1;
        live_.push_back(l);
        traced([&] {
            tracer_->add({"serve.submit", "serve", t0, t1, Tracer::kServeTid,
                          Tracer::kNoParent, 1, 0.0, 0.0});
        });
    }

    /** Run trace-only bookkeeping, charging its time to the trace. */
    template <class F>
    void
    traced(F &&fn)
    {
        if (!tracer_)
            return;
        const double t0 = nowS();
        fn();
        res_.traceS += nowS() - t0;
    }

    void
    step()
    {
        ServingEngine::Stats before;
        traced([&] { before = engine_.stats(); });
        const double t0 = nowS();
        engine_.step();
        const double t1 = nowS();
        res_.stepS.push_back(t1 - t0);
        StepShape shape;
        shape.durS = t1 - t0;
        for (size_t i = 0; i < live_.size();) {
            Live &l = live_[i];
            RequestRecord &rec = res_.recs[l.rec];
            const RequestId id = res_.ids[l.rec];
            const size_t out = engine_.output(id).size();
            const RequestState st = engine_.state(id);
            noteTokens(rec, out, t1);
            traced([&] { inferShape(l, st, out, t1, shape); });
            if (mant::isTerminal(st)) {
                rec.done = st == RequestState::Done;
                res_.lastDoneS = t1;
                traced([&] { tracePhases(l, id, t1); });
                live_[i] = live_.back();
                live_.pop_back();
            } else {
                ++i;
            }
        }
        rssPeakMb_ = std::max(rssPeakMb_, residentMb());
        traced([&] { logStep(before, t0, t1, std::move(shape)); });
    }

    void
    logStep(const ServingEngine::Stats &before, double t0, double t1,
            StepShape shape)
    {
        tracer_->add({"serve.step", "serve", t0, t1, Tracer::kServeTid,
                      Tracer::kNoParent, 1, 0.0, 0.0});
        const ServingEngine::Stats &after = engine_.stats();
        const auto decoded =
            static_cast<size_t>(after.decodedTokens - before.decodedTokens);
        const int64_t chunks = after.prefillChunks - before.prefillChunks;
        if (shape.decodeVisible.size() != decoded ||
            static_cast<int64_t>(shape.chunks.size()) != chunks) {
            // Eviction mid-step can hide a stream's rows from the
            // output()/state() view; Stats holds the true row count.
            ++res_.shapeMismatches;
            const int64_t fill =
                shape.decodeVisible.empty() ? 1 : shape.decodeVisible.back();
            shape.decodeVisible.resize(decoded, fill);
        }
        res_.shapes.push_back(std::move(shape));
        if (const auto *pool = engine_.pagePool())
            res_.poolUtil.push_back(
                pool->createdPages() > 0
                    ? static_cast<double>(pool->inUsePages()) /
                          static_cast<double>(pool->createdPages())
                    : 0.0);
    }

    /**
     * Reconstruct the rows this request's stream ran in the step that
     * just returned. Admission feeds the first prompt chunk at once;
     * each later step feeds one more until the feed (the prompt, or a
     * preempted stream's replay of prompt + tokens so far) is in; the
     * final chunk of a fresh prompt emits the first token, and every
     * fully-prefilled stream decodes one row per step.
     */
    void
    inferShape(Live &l, RequestState st, size_t out, double t1,
               StepShape &shape)
    {
        const bool running =
            st == RequestState::Active || st == RequestState::Done;
        const auto promptLen = static_cast<int64_t>(
            res_.reqs[l.rec].prompt.size());
        int64_t firstToken = 0;
        const auto feedOne = [&]() {
            const int64_t rows = std::min(w_.prefillChunk, l.feedLen - l.fed);
            shape.chunks.push_back({l.fed, rows});
            l.fed += rows;
            if (l.fed >= l.feedLen) {
                l.prefilling = false;
                firstToken = l.fresh ? 1 : 0;
            }
        };
        if ((l.last == RequestState::Queued ||
             l.last == RequestState::Preempted) &&
            running) {
            if (l.activeS < 0) {
                l.activeS = t1;
                res_.queueWaitS.push_back(t1 - res_.recs[l.rec].submitS);
            }
            l.fresh = !(l.last == RequestState::Preempted && l.outBefore > 0);
            l.feedLen = l.fresh ? promptLen
                                : promptLen +
                                      static_cast<int64_t>(l.outBefore) - 1;
            l.fed = 0;
            l.prefilling = true;
            feedOne();
        } else if (l.last == RequestState::Active && l.prefilling && running) {
            feedOne();
        }
        if (!l.prefilling && running &&
            static_cast<int64_t>(out - l.outBefore) > firstToken)
            shape.decodeVisible.push_back(promptLen +
                                          static_cast<int64_t>(out) - 1);
        l.last = st;
        l.outBefore = out;
    }

    void
    tracePhases(const Live &l, RequestId id, double endS)
    {
        const RequestRecord &r = res_.recs[l.rec];
        tracer_->addPhase({id, "request", r.submitS, endS});
        if (l.activeS >= 0)
            tracer_->addPhase({id, "queued", r.submitS, l.activeS});
        if (!r.tokenS.empty()) {
            if (l.activeS >= 0)
                tracer_->addPhase({id, "prefill", l.activeS, r.tokenS.front()});
            tracer_->addPhase({id, "decode", r.tokenS.front(), endS});
        }
    }

    ServingEngine &engine_;
    const Workload &w_;
    Tracer *tracer_;
    PhaseResult res_;
    std::vector<Live> live_;
    double rssPeakMb_ = 0.0;
};

PhaseResult
servePhase(ServingEngine &engine, const Workload &w, uint64_t seed,
           double seconds, int64_t vocab, Tracer *tracer)
{
    SeededRng rng(seed * 0x100000001b3ULL + 0xcbf29ce484222325ULL);
    PhaseRunner runner(engine, w, tracer);
    runner.run(rng, vocab, seconds);
    return runner.finish();
}

/** Named correctness failure; empty when every check passed. */
std::string
checkOutputs(const Workload &w, ServingEngine &engine,
             mant::Transformer &model,
             const PhaseResult &p, int64_t poolCap, uint64_t seed)
{
    for (size_t i = 0; i < p.ids.size(); ++i) {
        const RequestId id = p.ids[i];
        if (engine.state(id) != RequestState::Done)
            return "request " + std::to_string(id) + " did not reach Done";
        if (static_cast<int64_t>(engine.output(id).size()) !=
            p.reqs[i].maxNewTokens)
            return "request " + std::to_string(id) +
                   " produced the wrong number of tokens";
    }
    if (engine.stats().failed != 0)
        return "engine reported failed requests";
    if (const mant::KvPageAllocator *pool = engine.pagePool()) {
        if (pool->inUsePages() != 0)
            return "page pool did not drain (" +
                   std::to_string(pool->inUsePages()) + " pages in use)";
        if (poolCap > 0 && pool->peakInUsePages() > poolCap)
            return "page pool peak " + std::to_string(pool->peakInUsePages()) +
                   " exceeded its cap " + std::to_string(poolCap);
    }
    SeededRng pick(seed ^ 0x0a11ce5eedULL);
    const auto n = static_cast<int64_t>(p.ids.size());
    for (int64_t c = 0; c < std::min(w.oracleChecks, n); ++c) {
        const auto i = static_cast<size_t>(pick.between(0, n - 1));
        const GenRequest &req = p.reqs[i];
        if (mant::bench::serialGreedyOracle(model, req.prompt,
                                            req.maxNewTokens) !=
            engine.output(p.ids[i]))
            return "request " + std::to_string(p.ids[i]) +
                   " differs from the serial greedy oracle";
    }
    return {};
}


struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string workdir;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val);
            else if (key == "--workdir")
                a.workdir = val;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0 &&
           (a.trace == 0 || a.trace == 1) && !a.workdir.empty();
}

/** All digits a double carries; JSON has no NaN/Inf, so those print 0. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

struct Reported
{
    Metric m;
    std::string detail; ///< sample count, tail percentile
};

void
printTable(const char *title, const std::vector<Reported> &rows)
{
    std::cout << title << "\n";
    for (const Reported &r : rows) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-28s %14s %-7s %s\n",
                      r.m.name.c_str(), num(r.m.value).c_str(),
                      r.m.unit.c_str(), r.detail.c_str());
        std::cout << line;
    }
}

std::string
nDetail(size_t n, double pct = 0.0)
{
    std::ostringstream os;
    os << "n=" << n;
    if (pct > 0.0)
        os << " p" << num(pct);
    return os.str();
}

void
printJson(bool correct, int64_t attempted, int64_t failed,
          const std::vector<Reported> &rows)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < rows.size(); ++i) {
        os << (i ? ", " : "") << "\"" << rows[i].m.name
           << "\": {\"value\": " << num(rows[i].m.value) << ", \"unit\": \""
           << rows[i].m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/**
 * The client-visible metrics of one untraced phase. Samples pool every
 * round, so rounds that differ (one with an eviction cascade, one
 * without) average out instead of flipping a median. A tail is taken
 * at the percentile one round's sample supports, so it stays the same
 * percentile however many rounds a faster or slower program fits into
 * the run. Throughput is all tokens over the phase's wall time, from
 * the first submit() to the step() that ended the last request.
 */
std::vector<Reported>
endToEnd(const Workload &w, const PhaseResult &p,
         const std::vector<double> &setupS)
{
    std::vector<double> ttftMs, gapsS, gapsMs;
    int64_t done = 0, sloOk = 0, tokens = 0;
    size_t roundReqs = 0, roundObs = 0;
    for (const auto &[first, last] : p.rounds) {
        std::vector<const RequestRecord *> round;
        for (size_t i = first; i < last; ++i) {
            const RequestRecord &r = p.recs[i];
            tokens += static_cast<int64_t>(r.tokenS.size());
            if (r.done) {
                ++done;
                ttftMs.push_back(ttftS(r) * 1e3);
            }
            appendGaps(r, gapsS);
            round.push_back(&r);
            sloOk += meetsSlo(r, w.sloTtftMs / 1e3, w.sloItlMs / 1e3) ? 1 : 0;
        }
        // The tail percentile is the one the smallest full round
        // supports, counting a TTFT per request and an ITL observation
        // per distinct step span (gapObservations); the last round, cut
        // short by the budget, does not set it.
        if (static_cast<int64_t>(last - first) == w.perRound) {
            const size_t obs = gapObservations(round);
            roundReqs = roundReqs ? std::min(roundReqs, last - first)
                                  : last - first;
            roundObs = roundObs ? std::min(roundObs, obs) : obs;
        }
    }
    for (double g : gapsS)
        gapsMs.push_back(g * 1e3);
    const Summary setup = summarize(setupS);
    const Summary ttft = summarize(ttftMs, roundReqs);
    const Summary itl = summarize(gapsMs, roundObs);
    const double sent = static_cast<double>(std::max<size_t>(p.recs.size(), 1));
    const std::string rounds =
        " over " + std::to_string(p.rounds.size()) + " round(s)";
    const auto tailDetail = [&](const Summary &s, size_t perRound) {
        return nDetail(s.n, s.tailPct) + rounds + ", " +
               (perRound ? std::to_string(perRound) + " independent per round"
                         : std::string("no full round"));
    };
    return {
        {{"setup_s", setup.p50, "s"}, nDetail(setup.n) + " set-ups"},
        {{"output_tok_s",
          p.wallS() > 0 ? static_cast<double>(tokens) / p.wallS() : 0.0,
          "tok/s"},
         "n=" + std::to_string(tokens) + " tokens" + rounds},
        {{"ttft_p50_ms", ttft.p50, "ms"}, nDetail(ttft.n) + rounds},
        {{"ttft_tail_ms", ttft.tail, "ms"}, tailDetail(ttft, roundReqs)},
        {{"itl_p50_ms", itl.p50, "ms"}, nDetail(itl.n) + rounds},
        {{"itl_tail_ms", itl.tail, "ms"}, tailDetail(itl, roundObs)},
        {{"slo_ok_frac", static_cast<double>(sloOk) / sent, "ratio"},
         nDetail(p.recs.size()) + " ttft<=" + num(w.sloTtftMs) +
             "ms mean_itl<=" + num(w.sloItlMs) + "ms"},
        {{"done_frac", static_cast<double>(done) / sent, "ratio"},
         nDetail(p.recs.size())},
        {{"rss_mb", summarize(p.roundRssMb).p50, "MB"},
         "peak over " + std::to_string(p.stepS.size()) +
             " samples, median of the rounds' peaks"},
    };
}

int
runWorkload(const Workload &w, const Args &a)
{
    mant::setMaxThreads(w.threads);
    std::cout << "workload=" << w.name << " seed=" << a.seed
              << " seconds=" << num(a.seconds) << " trace=" << a.trace << "\n"
              << "env: " << environmentLine() << "\n";
    const Roofline roof = probeRoofline();
    std::cout << "roofline: copy " << num(roof.copyGbs) << " GB/s, int8 "
              << num(roof.int8Gmacs) << " GMAC/s\n";

    const mant::ModelProfile profile = mant::bench::servingBenchProfile();
    const mant::ArchDims &d = profile.simDims;
    auto weights = std::make_unique<mant::ModelWeights>(
        mant::ModelWeights::generate(profile, 2048));
    const mant::QuantSetup setup = mant::mantFusedAttentionSetup(w.kvGroup);

    const int64_t pageBytes =
        std::max(mant::KPanelStore::blockBytesFor(d.headDim(), w.kvGroup),
                 mant::VPanelStore::blockBytesFor(d.headDim(), w.kvGroup));
    const int64_t poolPages =
        w.poolBytes > 0
            ? w.poolBytes / pageBytes
            : w.slots * worstPagesPerStream(d, w.kvGroup,
                                            w.promptHi + w.outHi, pageBytes);
    const mant::ServingConfig cfg{.maxStreams = w.slots,
                                  .prefillChunkTokens = w.prefillChunk,
                                  .pagePoolPages = poolPages};

    Tracer tracer;
    Tracer *tr = a.trace == 1 ? &tracer : nullptr;
    const double origin = nowS();
    std::filesystem::create_directories(a.workdir);

    // Set up at least kSetupMinReps times and report the median; cheap
    // set-ups repeat until kSetupBudgetS is spent, for a steadier median.
    std::vector<double> setupS, loadMs;
    std::vector<std::string> files;
    std::shared_ptr<mant::LoadedModel> model;
    std::unique_ptr<ServingEngine> engine;
    double setupTotalS = 0.0;
    for (int rep = 0; rep < kSetupMaxReps &&
                      (rep < kSetupMinReps || setupTotalS < kSetupBudgetS);
         ++rep) {
        engine.reset();
        model.reset();
        files.push_back(
            (std::filesystem::path(a.workdir) /
             (std::string(w.name) + "-" + std::to_string(rep) + ".mant"))
                .string());
        const double t0 = nowS();
        mant::exportModelToFile(files.back(), *weights, setup);
        const double t1 = nowS();
        model = mant::LoadedModel::load(files.back());
        const double t2 = nowS();
        engine = std::make_unique<ServingEngine>(model, cfg);
        const double t3 = nowS();
        setupS.push_back(t3 - t0);
        setupTotalS += t3 - t0;
        loadMs.push_back((t2 - t1) * 1e3);
        if (tr) {
            for (const auto &[name, b, e] :
                 {std::tuple<const char *, double, double>{"setup.export", t0,
                                                           t1},
                  {"model.load", t1, t2},
                  {"serve.engine_init", t2, t3}})
                tracer.add({name, "setup", b, e, Tracer::kSetupTid,
                            Tracer::kNoParent, 1, 0.0, 0.0});
        }
    }

    // The encode and pack stages of export, timed apart through their
    // public calls on every linear (traced run only).
    double encodeS = 0.0, packS = 0.0;
    if (tr) {
        for (const auto &nt : weights->namedLinearWeights()) {
            const double t0 = nowS();
            const mant::MantQuantizedMatrix q =
                mant::MantQuantizedMatrix::quantize(*nt.tensor,
                                                    setup.weightGroup);
            const double t1 = nowS();
            const mant::MantPackedTiles tiles = mant::MantPackedTiles::pack(q);
            const double t2 = nowS();
            encodeS += t1 - t0;
            packS += t2 - t1;
            tracer.add({"quant.encode", nt.kind, t0, t1, Tracer::kSetupTid,
                        Tracer::kNoParent, 1, 0.0, 0.0});
            tracer.add({"core.pack", nt.kind, t1, t2, Tracer::kSetupTid,
                        Tracer::kNoParent, 1,
                        static_cast<double>(tiles.storageBytes()), 0.0});
        }
    }
    weights.reset();
#if defined(__GLIBC__)
    // Hand the freed float weights back to the OS, so the resident
    // set sampled while serving holds only what serving keeps alive.
    malloc_trim(0);
#endif

    const int64_t vocab = d.vocab;
    const CpuTimes cpu0 = cpuTimes();
    const PhaseResult p =
        servePhase(*engine, w, a.seed, a.seconds, vocab, tr);
    const CpuTimes cpu1 = cpuTimes();
    if (cpu1.total > cpu0.total)
        std::cout << "cpu steal while serving: "
                  << num(100.0 * (cpu1.steal - cpu0.steal) /
                         (cpu1.total - cpu0.total))
                  << "% of CPU time (a busy host makes runs noisy)\n";
    const auto attempted = static_cast<int64_t>(p.recs.size());
    int64_t failed = 0;
    for (const RequestRecord &r : p.recs)
        failed += r.done ? 0 : 1;
    const std::string problem = checkOutputs(
        w, *engine, model->transformer(), p, poolPages, a.seed);

    std::vector<Reported> rows;
    if (!tr) {
        rows = endToEnd(w, p, setupS);
        printTable("end-to-end (untraced):", rows);
    } else {
        const auto &b = p.before;
        const auto &e = p.after;
        const double reqs =
            static_cast<double>(std::max<size_t>(p.recs.size(), 1));
        std::vector<double> stepMs, waitMs;
        for (double s : p.stepS)
            stepMs.push_back(s * 1e3);
        for (double s : p.queueWaitS)
            waitMs.push_back(s * 1e3);
        const Summary step = summarize(stepMs);
        const Summary wait = summarize(waitMs);
        const mant::KvPageAllocator *pool = engine->pagePool();

        std::vector<Metric> layer = {
            {"serve.step_ms_p50", step.p50, "ms"},
            {"serve.step_ms_tail", step.tail, "ms"},
            {"serve.decode_rows_mean",
             e.decodeBatches > b.decodeBatches
                 ? static_cast<double>(e.decodedTokens - b.decodedTokens) /
                       static_cast<double>(e.decodeBatches - b.decodeBatches)
                 : 0.0,
             "rows"},
            {"serve.prefill_tokens_step_max",
             static_cast<double>(e.maxPrefillTokensPerStep), "tokens"},
            {"serve.queue_wait_ms_p50", wait.p50, "ms"},
            {"serve.evictions",
             static_cast<double>(e.evictions - b.evictions) / reqs, "1/req"},
            {"serve.recompute_frac",
             static_cast<double>(e.recomputedTokens - b.recomputedTokens) /
                 static_cast<double>(std::max<int64_t>(
                     e.decodedTokens - b.decodedTokens + e.prefillTokens -
                         b.prefillTokens,
                     1)),
             "ratio"},
            {"kv.pool_peak_mb",
             pool ? static_cast<double>(pool->peakInUsePages() * pageBytes) /
                        1e6
                  : 0.0,
             "MB"},
            {"kv.pool_util", mean(p.poolUtil), "ratio"},
            {"kv.alloc_attempts",
             static_cast<double>(p.allocAfter - p.allocBefore) / reqs, "1/req"},
            {"model.load_ms", summarize(loadMs).p50, "ms"},
            {"quant.encode_s", encodeS, "s"},
            {"core.pack_s", packS, "s"},
            {"host.copy_gbs", roof.copyGbs, "GB/s"},
            {"host.int8_gmacs", roof.int8Gmacs, "GMAC/s"},
            {"trace.overhead_frac",
             p.wallS() > p.traceS ? p.traceS / (p.wallS() - p.traceS) : 0.0,
             "ratio"},
        };
        const ReplayConfig rc{w.prefillChunk, std::max(2.0, a.seconds / 4),
                              roof.copyGbs, roof.int8Gmacs};
        std::ostringstream shares;
        const size_t replayed =
            replayLayers(*model, p.shapes, rc, tracer, layer, shares);
        for (const Metric &m : layer)
            rows.push_back({m, ""});
        rows[0].detail = nDetail(step.n);
        rows[1].detail = nDetail(step.n, step.tailPct);
        rows[4].detail = nDetail(wait.n);
        printTable("per-layer (traced):", rows);
        std::cout << "replayed " << replayed << " of " << p.shapes.size()
                  << " traced steps (" << p.shapeMismatches
                  << " with rows the output()/state() view could not place); "
                     "bytes and MACs are computed from tile-view sizes and "
                     "shapes, not counted\n"
                  << shares.str();
        const std::string tracePath =
            (std::filesystem::path(a.workdir) /
             ("trace-" + std::string(w.name) + "-" + std::to_string(a.seed) +
              ".json"))
                .string();
        if (!tracer.writeChromeJson(tracePath, origin)) {
            std::cerr << "cannot write trace file " << tracePath << "\n";
            return 2;
        }
        std::cout << "trace: " << tracePath << " (" << tracer.spans().size()
                  << " spans)\n";
    }

    engine.reset();
    model.reset();
    for (const std::string &f : files)
        std::filesystem::remove(f);

    if (!problem.empty()) {
        std::cerr << "CORRECTNESS CHECK FAILED: workload " << w.name << ": "
                  << problem << "\n";
        printJson(false, attempted, failed, rows);
        return 1;
    }
    std::cout << "correctness: all " << attempted
              << " requests Done, oracle subset byte-equal, pool drained\n";
    printJson(true, attempted, failed, rows);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
#if defined(__GLIBC__)
    // Multi-megabyte set-up buffers (weights, codes, tiles) are mapped
    // and unmapped rather than left in whichever thread's heap freed
    // them, so the resident set sampled while serving does not depend
    // on how set-up work was scheduled across threads.
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
#endif
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: mant_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --workdir DIR\n";
        return 2;
    }
    const std::string bad = selfCheck();
    if (!bad.empty()) {
        std::cerr << "statistics self-check failed: " << bad << "\n";
        return 3;
    }
    const std::string build = buildProblem();
    if (!build.empty()) {
        std::cerr << "refusing to run: " << build
                  << "; its numbers would measure a different program\n";
        return 3;
    }
    for (const Workload &w : kWorkloads) {
        if (args.workload != w.name)
            continue;
        try {
            return runWorkload(w, args);
        } catch (const std::exception &e) {
            std::cerr << "workload " << w.name << " aborted: " << e.what()
                      << "\n";
            return 2;
        }
    }
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
}
