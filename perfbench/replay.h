/**
 * @file
 * Per-layer attribution by replay. The traced serving run logs every
 * step's shape; this module replays a sample of those shapes through
 * the layers' public entry points on the same loaded model, timing
 * each call under a span whose parent is the replayed step. Bytes and
 * MACs come from tile-view sizes and shapes — computed, not counted.
 */

#ifndef MANT_PERFBENCH_REPLAY_H_
#define MANT_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "model/model_file.h"
#include "trace.h"

namespace perfbench {

/** One prefill chunk a step fed: the stream's position before the
 *  chunk and the rows it fed. */
struct ChunkShape
{
    int64_t start = 0;
    int64_t rows = 0;
};

/** A step of the traced serving run, as the replay needs it. */
struct StepShape
{
    double durS = 0.0;
    std::vector<ChunkShape> chunks;
    /** Visible context (cache rows attended) of each decode row. */
    std::vector<int64_t> decodeVisible;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct ReplayConfig
{
    int64_t prefillChunk = 0;
    /** Wall-clock budget for replaying sampled steps; the model-level
     *  calls (prefillChunk/decodeBatch) run once more after it. */
    double budgetS = 0.0;
    /** Host roofline the *_frac metrics divide by. */
    double copyGbs = 0.0;
    double int8Gmacs = 0.0;
};

/**
 * Replay an evenly spaced sample of `steps` (as many as the budget
 * allows, at least one) call by call, then time Transformer::
 * prefillChunk and Transformer::decodeBatch at the run's median chunk
 * and decode shapes. Appends the layer metrics (core.*, model.* and
 * serve.unattributed_frac) to `out` and writes each layer call's share
 * of the replayed steps' serving time to `log`. Returns the steps
 * replayed.
 */
size_t replayLayers(mant::LoadedModel &model,
                    const std::vector<StepShape> &steps,
                    const ReplayConfig &cfg, Tracer &tracer,
                    std::vector<Metric> &out, std::ostream &log);

} // namespace perfbench

#endif // MANT_PERFBENCH_REPLAY_H_
