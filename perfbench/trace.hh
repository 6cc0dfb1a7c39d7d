/**
 * @file
 * Span log of the benchmark's traced run. Spans are kept in memory and
 * written out as JSON when the run ends; a span's self time is its
 * duration minus the durations of its child spans.
 */

#ifndef TAMRES_PERFBENCH_TRACE_HH
#define TAMRES_PERFBENCH_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** One timed interval; spans of one request share a trace id. */
struct Span
{
    int64_t trace = 0;   //!< request index (-1 for per-shape replays)
    int parent = -1;     //!< index of the enclosing span, -1 for roots
    std::string name;    //!< "<layer>.<call>"
    double start_s = 0;  //!< seconds since the run started
    double dur_s = 0;
    int resolution = 0;  //!< served shape, where the call has one
    int batch = 0;
};

class SpanLog
{
  public:
    /** Append a span; returns its index (the id children refer to). */
    int
    add(int64_t trace, int parent, std::string name, double start_s,
        double dur_s, int resolution = 0, int batch = 0)
    {
        spans_.push_back({trace, parent, std::move(name), start_s, dur_s,
                          resolution, batch});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close a span whose children were recorded after it opened. */
    void setDuration(int id, double dur_s)
    {
        spans_[static_cast<size_t>(id)].dur_s = dur_s;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self times of every span called @p name (optionally one shape). */
    std::vector<double>
    selfTimes(const std::string &name, int resolution = 0,
              int batch = 0) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<size_t>(s.parent)] += s.dur_s;
        std::vector<double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.name == name &&
                (resolution == 0 || s.resolution == resolution) &&
                (batch == 0 || s.batch == batch))
                out.push_back(s.dur_s - child[i]);
        }
        return out;
    }

    /** Write every span as one JSON document; false on I/O failure. */
    bool
    writeJson(const std::string &path, const std::string &header) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{%s, \"spans\": [\n", header.c_str());
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"trace\": %lld, \"parent\": %d, "
                         "\"name\": \"%s\", \"start_us\": %.3f, "
                         "\"dur_us\": %.3f, \"resolution\": %d, "
                         "\"batch\": %d}%s\n",
                         i, static_cast<long long>(s.trace), s.parent,
                         s.name.c_str(), s.start_s * 1e6, s.dur_s * 1e6,
                         s.resolution, s.batch,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // TAMRES_PERFBENCH_TRACE_HH
