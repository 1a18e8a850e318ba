#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "core/fused_attention.h"
#include "core/kv_panels.h"
#include "core/simd.h"
#include "core/variance_selector.h"
#include "model/kv_cache.h"
#include "model/layers.h"
#include "model/quantized_linear.h"
#include "stats.h"

namespace perfbench {
namespace {

using mant::Shape;
using mant::Tensor;

/** Totals of one (layer call, step kind) pair over the replay. */
struct Totals
{
    double s = 0.0;
    int64_t calls = 0;
    double bytes = 0.0;
    double macs = 0.0;
};

/**
 * Replays one forward pass call by call, in the order
 * Transformer::forwardRows makes them. Attention calls of one kind are
 * grouped over rows and heads so each kind is one contiguous span; the
 * history cache they read is built once at the largest context the run
 * reached, and rows attend to a prefix of it.
 */
class LeafReplayer
{
  public:
    LeafReplayer(mant::LoadedModel &model, int64_t maxVisible,
                 Tracer &tracer)
        : model_(model), w_(model.weights()), d_(w_.profile.simDims),
          setup_(model.setup()), tracer_(tracer), rng_(0x5eed),
          selector_(mant::VarianceSelector::analytic()),
          hist_(setup_.kv, d_.headDim(), setup_.kvGroup, &selector_, true),
          append_(setup_.kv, d_.headDim(), setup_.kvGroup, &selector_, true)
    {
        std::vector<float> row(static_cast<size_t>(d_.headDim()));
        for (int64_t p = 0; p < std::max<int64_t>(maxVisible, 1); ++p) {
            fillRandom(row);
            hist_.appendK(row);
            fillRandom(row);
            hist_.appendV(row);
        }
    }

    /** Replays a forward over `visible.size()` rows (row r attends to
     *  visible[r] cache rows); returns the summed leaf-call time. */
    double
    forward(const std::vector<int64_t> &visible, const std::string &kind,
            int64_t parent)
    {
        const int64_t rows = static_cast<int64_t>(visible.size());
        const int64_t dm = d_.dModel, heads = d_.nHeads, dh = d_.headDim();
        const int64_t wg = setup_.weightGroup;
        Tensor x(Shape{rows, dm});
        fillRandom(x.span());
        if (attn_.numel() != rows * dm)
            attn_ = Tensor(Shape{rows, dm});
        double total = 0.0;
        const auto gemm = [&](const mant::MantTilesView &view, Tensor &out) {
            const double m = static_cast<double>(rows);
            const double n = static_cast<double>(view.rows());
            const double kk = static_cast<double>(view.cols());
            const double bytes =
                static_cast<double>(view.storageBytes()) + m * kk +
                m * static_cast<double>(view.groupsPerRow()) * 4.0 +
                m * n * 4.0;
            total += timed("core.gemm", kind, parent, 1, bytes, m * n * kk,
                           [&] { mant::fusedGemmTiledInto(act_, view, out); });
        };
        const auto normRows = [&](Tensor &t, const std::vector<float> &gain) {
            total += timed("model.norm", kind, parent, rows, 0.0, 0.0, [&] {
                for (int64_t r = 0; r < rows; ++r)
                    mant::rmsNormRow(t.row(r), gain);
            });
        };
        const auto quantAct = [&](const Tensor &t) {
            total += timed("core.act_quant", kind, parent, 1,
                           static_cast<double>(t.numel()) * 5.0, 0.0,
                           [&] { act_.assign(t, wg); });
        };

        const mant::SimdOps &ops = mant::simdOps();
        const float invSqrtDh = 1.0f / std::sqrt(static_cast<float>(dh));
        const int64_t kvg = setup_.kvGroup;
        const double kBlock = static_cast<double>(
            mant::KPanelStore::blockBytesFor(dh, kvg));
        const double vBlock = static_cast<double>(
            mant::VPanelStore::blockBytesFor(dh, kvg));
        if (static_cast<int64_t>(probs_.size()) < rows * heads)
            probs_.resize(static_cast<size_t>(rows * heads));
        int64_t visibleSum = 0;
        double scoreBytes = 0.0, pvBytes = 0.0;
        for (int64_t vis : visible) {
            visibleSum += vis;
            scoreBytes += std::ceil(static_cast<double>(vis) / 8.0) * kBlock;
            pvBytes += static_cast<double>(vis / kvg) * vBlock +
                       static_cast<double>((vis % kvg) * dh) +
                       static_cast<double>(vis) * 4.0;
        }

        for (int64_t l = 0; l < d_.nLayers; ++l) {
            const mant::LayerWeights &lw = w_.layers[static_cast<size_t>(l)];
            const mant::LayerTileViews &tv =
                model_.tileViews()[static_cast<size_t>(l)];
            h_ = x;
            normRows(h_, lw.normGain1);
            quantAct(h_);
            gemm(tv.wq, q_);
            gemm(tv.wk, k_);
            gemm(tv.wv, v_);
            total += timed("model.rope", kind, parent, 2 * rows * heads, 0.0,
                           0.0, [&] {
                               for (int64_t r = 0; r < rows; ++r) {
                                   const int64_t pos =
                                       visible[static_cast<size_t>(r)] - 1;
                                   for (int64_t hd = 0; hd < heads; ++hd) {
                                       mant::applyRope(headSeg(q_, r, hd), pos);
                                       mant::applyRope(headSeg(k_, r, hd), pos);
                                   }
                               }
                           });
            if (append_.size() + rows > kAppendCacheRows)
                append_.reset();
            total += timed("core.kv_append", kind, parent, rows * heads,
                           0.0, 0.0, [&] {
                               for (int64_t hd = 0; hd < heads; ++hd) {
                                   for (int64_t r = 0; r < rows; ++r) {
                                       append_.appendK(headSeg(k_, r, hd));
                                       append_.appendV(headSeg(v_, r, hd));
                                   }
                               }
                           });
            total += timed(
                "core.attn_scores", kind, parent, rows * heads,
                scoreBytes * static_cast<double>(heads),
                static_cast<double>(visibleSum * heads * dh), [&] {
                    for (int64_t hd = 0; hd < heads; ++hd) {
                        for (int64_t r = 0; r < rows; ++r) {
                            const int64_t vis =
                                visible[static_cast<size_t>(r)];
                            auto &p =
                                probs_[static_cast<size_t>(r * heads + hd)];
                            p.resize(static_cast<size_t>(vis));
                            mant::quantizeQRow(ops, headSeg(q_, r, hd), kvg,
                                               scratch_);
                            mant::attnScoresFused(ops, hist_.kPanels(),
                                                  scratch_.qCodes,
                                                  scratch_.qScales, vis,
                                                  invSqrtDh, 0.0f, p);
                        }
                    }
                });
            total += timed("model.softmax", kind, parent, rows * heads, 0.0,
                           0.0, [&] {
                               for (int64_t i = 0; i < rows * heads; ++i)
                                   mant::softmaxRow(
                                       probs_[static_cast<size_t>(i)]);
                           });
            total += timed(
                "core.attn_pv", kind, parent, rows * heads,
                pvBytes * static_cast<double>(heads),
                static_cast<double>(visibleSum * heads * dh), [&] {
                    for (int64_t hd = 0; hd < heads; ++hd) {
                        for (int64_t r = 0; r < rows; ++r) {
                            mant::attnPvFused(
                                ops, hist_.vQuant(),
                                probs_[static_cast<size_t>(r * heads + hd)],
                                scratch_, headSeg(attn_, r, hd));
                        }
                    }
                });
            quantAct(attn_);
            gemm(tv.wo, o_);
            for (int64_t i = 0; i < x.numel(); ++i)
                x[i] += o_[i];

            h_ = x;
            normRows(h_, lw.normGain2);
            quantAct(h_);
            gemm(tv.wGate, gate_);
            gemm(tv.wUp, up_);
            mant::siluInPlace(gate_.span());
            for (int64_t i = 0; i < gate_.numel(); ++i)
                gate_[i] *= up_[i];
            quantAct(gate_);
            gemm(tv.wDown, down_);
            for (int64_t i = 0; i < x.numel(); ++i)
                x[i] += down_[i];
        }
        normRows(x, w_.finalNormGain);
        const double vocab = static_cast<double>(d_.vocab);
        const double m = static_cast<double>(rows);
        const double dmf = static_cast<double>(dm);
        total += timed("model.logits", kind, parent, 1,
                       vocab * dmf * 4.0 + m * dmf * 4.0 + m * vocab * 4.0,
                       m * vocab * dmf, [&] {
                           const Tensor logits =
                               mant::linearNT(x, w_.embedding);
                           sink_ += logits[0];
                       });
        return total;
    }

    const std::map<std::string, Totals> &totals() const { return totals_; }

  private:
    static constexpr int64_t kAppendCacheRows = 4096;

    template <class F>
    double
    timed(const char *name, const std::string &kind, int64_t parent,
          int64_t calls, double bytes, double macs, F &&fn)
    {
        const double t0 = nowS();
        fn();
        const double t1 = nowS();
        tracer_.add({name, kind, t0, t1, Tracer::kReplayTid, parent, calls,
                     bytes, macs});
        Totals &t = totals_[std::string(name) + "/" + kind];
        t.s += t1 - t0;
        t.calls += calls;
        t.bytes += bytes;
        t.macs += macs;
        return t1 - t0;
    }

    std::span<float>
    headSeg(Tensor &t, int64_t row, int64_t head) const
    {
        const int64_t dh = d_.headDim();
        return {t.data() + row * d_.dModel + head * dh,
                static_cast<size_t>(dh)};
    }

    void
    fillRandom(std::span<float> xs)
    {
        for (float &f : xs)
            f = static_cast<float>(rng_.uniform() * 2.0 - 1.0);
    }

    mant::LoadedModel &model_;
    const mant::ModelWeights &w_;
    const mant::ArchDims &d_;
    const mant::QuantSetup &setup_;
    Tracer &tracer_;
    SeededRng rng_;
    mant::VarianceSelector selector_;
    mant::HeadKvCache hist_;
    mant::HeadKvCache append_;
    mant::AttnScratch scratch_;
    // Per-call scratch reused across forwards, as the Transformer reuses
    // its own, so no replayed call pays an allocation the engine skips.
    mant::Int8QuantizedActivations act_;
    Tensor h_, q_, k_, v_, o_, gate_, up_, down_, attn_;
    std::vector<std::vector<float>> probs_;
    std::map<std::string, Totals> totals_;
    float sink_ = 0.0f;
};

double
medianOf(std::vector<double> xs)
{
    return summarize(std::move(xs)).p50;
}

std::vector<int32_t>
randomTokens(SeededRng &rng, int64_t n, int64_t vocab)
{
    std::vector<int32_t> t(static_cast<size_t>(n));
    for (auto &x : t)
        x = static_cast<int32_t>(rng.between(0, vocab - 1));
    return t;
}

} // namespace

size_t
replayLayers(mant::LoadedModel &model, const std::vector<StepShape> &steps,
             const ReplayConfig &cfg, Tracer &tracer,
             std::vector<Metric> &out, std::ostream &log)
{
    std::vector<size_t> busy;
    int64_t maxVisible = 1;
    double busyS = 0.0;
    for (size_t i = 0; i < steps.size(); ++i) {
        const StepShape &s = steps[i];
        if (s.chunks.empty() && s.decodeVisible.empty())
            continue;
        busy.push_back(i);
        busyS += s.durS;
        for (const ChunkShape &c : s.chunks)
            maxVisible = std::max(maxVisible, c.start + c.rows);
        for (int64_t v : s.decodeVisible)
            maxVisible = std::max(maxVisible, v);
    }
    if (busy.empty())
        throw std::runtime_error("replayLayers: the traced run logged no "
                                 "step that did any work");

    LeafReplayer leaves(model, maxVisible, tracer);
    const double meanStepS = busyS / static_cast<double>(busy.size());
    const size_t sample = std::clamp<size_t>(
        static_cast<size_t>(cfg.budgetS / std::max(meanStepS, 1e-6)), 1,
        busy.size());
    // Evenly spaced steps, plus the first step of each kind (prefill
    // chunks, decode rows) when the spacing missed every one of them.
    std::vector<size_t> picked;
    bool sawChunks = false, sawDecode = false;
    for (size_t j = 0; j < sample; ++j) {
        picked.push_back(busy[(2 * j + 1) * busy.size() / (2 * sample)]);
        sawChunks = sawChunks || !steps[picked.back()].chunks.empty();
        sawDecode = sawDecode || !steps[picked.back()].decodeVisible.empty();
    }
    for (size_t i : busy) {
        if ((!sawChunks && !steps[i].chunks.empty()) ||
            (!sawDecode && !steps[i].decodeVisible.empty())) {
            picked.push_back(i);
            sawChunks = sawChunks || !steps[i].chunks.empty();
            sawDecode = sawDecode || !steps[i].decodeVisible.empty();
        }
    }
    double stepS = 0.0, leafS = 0.0;
    int64_t decodeForwards = 0, prefillForwards = 0;
    for (size_t idx : picked) {
        const StepShape &s = steps[idx];
        const double t0 = nowS();
        const int64_t parent =
            tracer.add({"replay.step", "replay", t0, t0, Tracer::kReplayTid,
                        Tracer::kNoParent, 1, 0.0, 0.0});
        for (const ChunkShape &c : s.chunks) {
            std::vector<int64_t> vis(static_cast<size_t>(c.rows));
            for (int64_t r = 0; r < c.rows; ++r)
                vis[static_cast<size_t>(r)] = c.start + r + 1;
            leafS += leaves.forward(vis, "prefill", parent);
            ++prefillForwards;
        }
        if (!s.decodeVisible.empty()) {
            leafS += leaves.forward(s.decodeVisible, "decode", parent);
            ++decodeForwards;
        }
        tracer.close(parent, nowS());
        stepS += s.durS;
    }

    const auto &tot = leaves.totals();
    const auto get = [&](const std::string &key) {
        const auto it = tot.find(key);
        return it == tot.end() ? Totals{} : it->second;
    };
    const auto both = [&](const char *name) {
        Totals a = get(std::string(name) + "/decode");
        const Totals b = get(std::string(name) + "/prefill");
        a.s += b.s;
        a.calls += b.calls;
        a.bytes += b.bytes;
        a.macs += b.macs;
        return a;
    };
    const auto perCallUs = [&](const char *name) {
        const Totals t = both(name);
        return t.calls > 0 ? t.s / static_cast<double>(t.calls) * 1e6 : 0.0;
    };
    // Per-step figures describe the decode pass when the sample has
    // one, the prefill chunk otherwise.
    const bool haveDecode = decodeForwards > 0;
    const char *stepKind = haveDecode ? "decode" : "prefill";
    const double stepForwards = static_cast<double>(
        std::max<int64_t>(haveDecode ? decodeForwards : prefillForwards, 1));
    const auto perStepMs = [&](const char *name) {
        return get(std::string(name) + "/" + stepKind).s / stepForwards * 1e3;
    };

    // Each layer call's share of the replayed steps' serving time, so a
    // reader can see which layer a workload loads.
    std::map<std::string, std::pair<double, double>> byLayer;
    for (const auto &[key, t] : tot) {
        const size_t slash = key.find('/');
        auto &shares = byLayer[key.substr(0, slash)];
        (key.substr(slash + 1) == "prefill" ? shares.first : shares.second) +=
            t.s;
    }
    std::vector<std::pair<std::string, std::pair<double, double>>> rowsByTime(
        byLayer.begin(), byLayer.end());
    std::sort(rowsByTime.begin(), rowsByTime.end(),
              [](const auto &a, const auto &b) {
                  return a.second.first + a.second.second >
                         b.second.first + b.second.second;
              });
    log << "share of the replayed steps' serving time (all = prefill + "
           "decode):\n";
    char line[128];
    for (const auto &[name, s] : rowsByTime) {
        std::snprintf(line, sizeof line, "  %-20s %6.3f = %6.3f + %6.3f\n",
                      name.c_str(), (s.first + s.second) / stepS,
                      s.first / stepS, s.second / stepS);
        log << line;
    }
    std::snprintf(line, sizeof line, "  %-20s %6.3f\n", "unattributed",
                  1.0 - leafS / stepS);
    log << line;

    const Totals gemm = both("core.gemm");
    const double gemmGbs = gemm.s > 0 ? gemm.bytes / gemm.s / 1e9 : 0.0;
    const double gemmGmacs = gemm.s > 0 ? gemm.macs / gemm.s / 1e9 : 0.0;
    const Totals scores = both("core.attn_scores");
    const Totals pv = both("core.attn_pv");
    const double attnS = scores.s + pv.s;

    out.push_back({"serve.unattributed_frac",
                   stepS > 0 ? 1.0 - leafS / stepS : 0.0, "ratio"});
    out.push_back(
        {"core.gemm_decode_ms",
         decodeForwards > 0 ? get("core.gemm/decode").s /
                                  static_cast<double>(decodeForwards) * 1e3
                            : 0.0,
         "ms"});
    out.push_back(
        {"core.gemm_prefill_ms",
         prefillForwards > 0 ? get("core.gemm/prefill").s /
                                   static_cast<double>(prefillForwards) * 1e3
                             : 0.0,
         "ms"});
    out.push_back({"core.gemm_gbs", gemmGbs, "GB/s"});
    out.push_back({"core.gemm_gmacs", gemmGmacs, "GMAC/s"});
    out.push_back({"core.gemm_bw_frac",
                   cfg.copyGbs > 0 ? gemmGbs / cfg.copyGbs : 0.0, "ratio"});
    out.push_back({"core.gemm_mac_frac",
                   cfg.int8Gmacs > 0 ? gemmGmacs / cfg.int8Gmacs : 0.0,
                   "ratio"});
    out.push_back({"core.act_quant_ms", perStepMs("core.act_quant"), "ms"});
    out.push_back({"core.kv_append_us", perCallUs("core.kv_append"), "us"});
    out.push_back(
        {"core.attn_scores_us", perCallUs("core.attn_scores"), "us"});
    out.push_back({"core.attn_pv_us", perCallUs("core.attn_pv"), "us"});
    out.push_back({"core.attn_gbs",
                   attnS > 0 ? (scores.bytes + pv.bytes) / attnS / 1e9 : 0.0,
                   "GB/s"});
    out.push_back({"model.logits_ms", perStepMs("model.logits"), "ms"});
    out.push_back({"model.norm_us", perCallUs("model.norm"), "us"});
    out.push_back({"model.rope_us", perCallUs("model.rope"), "us"});
    out.push_back({"model.softmax_us", perCallUs("model.softmax"), "us"});

    // Model-level calls at the run's median shapes.
    mant::Transformer &tf = model.transformer();
    const int64_t vocab = model.weights().profile.simDims.vocab;
    SeededRng rng(0xdec0de);
    std::vector<double> chunkStarts, chunkRows, decodeRows, decodeVis;
    for (const StepShape &s : steps) {
        for (const ChunkShape &c : s.chunks) {
            chunkStarts.push_back(static_cast<double>(c.start));
            chunkRows.push_back(static_cast<double>(c.rows));
        }
        if (!s.decodeVisible.empty())
            decodeRows.push_back(static_cast<double>(s.decodeVisible.size()));
        for (int64_t v : s.decodeVisible)
            decodeVis.push_back(static_cast<double>(v));
    }
    const auto buildStream = [&](mant::StreamContext &sc, int64_t rows) {
        tf.initStream(sc);
        const int64_t piece = std::max<int64_t>(cfg.prefillChunk, 64);
        for (int64_t fed = 0; fed < rows; fed += piece)
            tf.prefillChunk(sc, randomTokens(rng, std::min(piece, rows - fed),
                                             vocab));
    };
    constexpr int kModelReps = 3;
    double prefillMsPerTok = 0.0, decodeMs = 0.0;
    if (!chunkRows.empty()) {
        const auto rows = static_cast<int64_t>(medianOf(chunkRows));
        const auto start = static_cast<int64_t>(medianOf(chunkStarts));
        const double b0 = nowS();
        mant::StreamContext sc;
        buildStream(sc, start);
        tracer.add({"replay.build", "prefill", b0, nowS(), Tracer::kReplayTid,
                    Tracer::kNoParent, 1, 0.0, 0.0});
        std::vector<double> ms;
        for (int rep = 0; rep < kModelReps; ++rep) {
            const auto toks = randomTokens(rng, rows, vocab);
            const double t0 = nowS();
            tf.prefillChunk(sc, toks);
            const double t1 = nowS();
            tracer.add({"model.prefill", "prefill", t0, t1,
                        Tracer::kReplayTid, Tracer::kNoParent, rows, 0.0,
                        0.0});
            ms.push_back((t1 - t0) * 1e3 / static_cast<double>(rows));
        }
        prefillMsPerTok = medianOf(ms);
    }
    if (!decodeRows.empty()) {
        const auto m = static_cast<int64_t>(std::lround(medianOf(decodeRows)));
        const auto vis = static_cast<int64_t>(medianOf(decodeVis));
        const double b0 = nowS();
        std::vector<std::unique_ptr<mant::StreamContext>> owned;
        std::vector<mant::StreamContext *> streams;
        for (int64_t i = 0; i < m; ++i) {
            owned.push_back(std::make_unique<mant::StreamContext>());
            buildStream(*owned.back(), std::max<int64_t>(vis - 1, 1));
            streams.push_back(owned.back().get());
        }
        tracer.add({"replay.build", "decode", b0, nowS(), Tracer::kReplayTid,
                    Tracer::kNoParent, m, 0.0, 0.0});
        std::vector<double> ms;
        for (int rep = 0; rep < kModelReps; ++rep) {
            const auto toks = randomTokens(rng, m, vocab);
            const double t0 = nowS();
            tf.decodeBatch(toks, streams);
            const double t1 = nowS();
            tracer.add({"model.decode", "decode", t0, t1, Tracer::kReplayTid,
                        Tracer::kNoParent, m, 0.0, 0.0});
            ms.push_back((t1 - t0) * 1e3);
        }
        decodeMs = medianOf(ms);
    }
    out.push_back({"model.prefill_ms_per_tok", prefillMsPerTok, "ms"});
    out.push_back({"model.decode_ms", decodeMs, "ms"});
    return picked.size();
}

} // namespace perfbench
