/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are kept
 * in a vector while the run goes and written once, at the end, as
 * Chrome/Perfetto trace-event JSON. Replayed layer calls are leaf
 * spans under the replayed step they belong to, so a layer's self time
 * is its span's duration, and the step's own self time is what no
 * replayed layer covers (serve.unattributed_frac).
 *
 * The untraced run passes no Tracer to the serving loop, so it records
 * nothing.
 */

#ifndef MANT_PERFBENCH_TRACE_H_
#define MANT_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the benchmark's steady clock. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Tracer
{
  public:
    static constexpr int64_t kNoParent = -1;

    /** Track ids: the serving loop, replayed layer calls, and one
     *  async lane per request keyed by its id. */
    static constexpr int64_t kServeTid = 1;
    static constexpr int64_t kReplayTid = 2;
    static constexpr int64_t kSetupTid = 3;

    struct Span
    {
        std::string name;
        std::string cat;
        double startS = 0.0;
        double endS = 0.0;
        int64_t tid = 0;
        int64_t parent = kNoParent;
        /** Work the span covered, computed from shapes (not counted):
         *  calls, bytes moved and multiply-accumulates. */
        int64_t calls = 1;
        double bytes = 0.0;
        double macs = 0.0;
    };

    /** A request's lifecycle phase, written as an async event pair. */
    struct Phase
    {
        int64_t requestId = 0;
        std::string name;
        double startS = 0.0;
        double endS = 0.0;
    };

    int64_t
    add(Span s)
    {
        spans_.push_back(std::move(s));
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    /** Close a span opened with endS == startS once its children ran. */
    void
    close(int64_t i, double endS)
    {
        spans_[static_cast<size_t>(i)].endS = endS;
    }

    void addPhase(Phase p) { phases_.push_back(std::move(p)); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span and phase as trace-event JSON, timestamps in
     *  microseconds from `originS`. Returns false on an I/O error. */
    bool
    writeChromeJson(const std::string &path, double originS) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const auto us = [originS](double s) { return (s - originS) * 1e6; };
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        bool first = true;
        const auto sep = [&]() {
            std::fputs(first ? "" : ",\n", f);
            first = false;
        };
        for (const auto &[tid, name] :
             {std::pair<int64_t, const char *>{kServeTid, "serve loop"},
              {kReplayTid, "layer replay"},
              {kSetupTid, "setup"}}) {
            sep();
            std::fprintf(f,
                         "{\"ph\":\"M\",\"pid\":1,\"tid\":%lld,"
                         "\"name\":\"thread_name\",\"args\":{\"name\":"
                         "\"%s\"}}",
                         static_cast<long long>(tid), name);
        }
        for (const Span &s : spans_) {
            sep();
            std::fprintf(f,
                         "{\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                         "\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,"
                         "\"dur\":%.3f,\"args\":{\"span\":%zu,"
                         "\"parent\":%lld,\"calls\":%lld,"
                         "\"bytes\":%.0f,\"macs\":%.0f}}",
                         static_cast<long long>(s.tid), s.name.c_str(),
                         s.cat.c_str(), us(s.startS),
                         us(s.endS) - us(s.startS),
                         static_cast<size_t>(&s - spans_.data()),
                         static_cast<long long>(s.parent),
                         static_cast<long long>(s.calls), s.bytes, s.macs);
        }
        for (const Phase &p : phases_) {
            for (const char ph : {'b', 'e'}) {
                sep();
                std::fprintf(f,
                             "{\"ph\":\"%c\",\"pid\":1,\"cat\":\"request\","
                             "\"id\":%lld,\"name\":\"%s\",\"ts\":%.3f}",
                             ph, static_cast<long long>(p.requestId),
                             p.name.c_str(),
                             us(ph == 'b' ? p.startS : p.endS));
            }
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::vector<Phase> phases_;
};

} // namespace perfbench

#endif // MANT_PERFBENCH_TRACE_H_
