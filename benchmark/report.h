/**
 * @file
 * Measurement plumbing of heapbench: a process-wide clock, exact
 * percentiles over every kept sample, the metric list a run emits, a
 * small JSON writer, and the span recorder behind `--trace 1`.
 *
 * Nothing here calls into the library; it only times and formats.
 */

#ifndef HEAPBENCH_REPORT_H
#define HEAPBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace heapbench {

/** Milliseconds on the monotonic clock since the process started. */
double nowMs();

/** Blocks the calling thread until nowMs() reaches `ms`. */
void sleepUntilMs(double ms);

/** The steady_clock instant at which nowMs() reads `ms`. */
std::chrono::steady_clock::time_point steadyAt(double ms);

/** Process CPU time (user + system), in milliseconds. */
double processCpuMs();

/** Peak resident set size of the process, in MB. */
double peakRssMb();

/**
 * The p-th percentile (p in [0, 100]) by linear interpolation over all
 * samples; NaN when empty. Every sample is kept: no decimation.
 */
double percentile(std::vector<double> samples, double p);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/** Shortest decimal that reads back as `v`; "null" when not finite. */
std::string jsonNumber(double v);

/** `s` as a quoted JSON string. */
std::string jsonString(const std::string& s);

/** One named measurement. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    /** Samples the value was computed from (0 = not a sample
     *  statistic). */
    size_t samples = 0;
};

/** Ordered, name-unique list of metrics produced by one run. */
class MetricList {
  public:
    void add(const std::string& name, double value,
             const std::string& unit, size_t samples = 0);
    const std::vector<Metric>& all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/**
 * In-memory span recorder. A span has a name, start and end on the
 * nowMs() clock, the id of the span that caused it (-1 for a root) and
 * the request it belongs to (0 = none). Thread-safe: the rotate replay
 * records from pool threads.
 */
class Tracer {
  public:
    struct Span {
        std::string name;
        double startMs = 0;
        double endMs = 0;
        int64_t parent = -1;
        uint64_t request = 0;
        uint32_t thread = 0;
    };

    /** Records a finished span; returns its id. */
    int64_t add(const std::string& name, double startMs, double endMs,
                int64_t parent = -1, uint64_t request = 0);

    /** Opens a span ending at close(id); returns its id. */
    int64_t open(const std::string& name, int64_t parent = -1,
                 uint64_t request = 0);
    void close(int64_t id);

    /** Span duration in ms. */
    double durationMs(int64_t id) const;

    /** Duration minus the part of it covered by child spans. */
    double selfMs(int64_t id) const;

    /** Summed duration of the children of `id` named `name`. */
    double childDurationMs(int64_t id, const std::string& name) const;

    size_t size() const;

    /** Chrome trace-event JSON (Perfetto / chrome://tracing). */
    bool writeChromeJson(const std::string& path) const;

  private:
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/** Opens a span on construction, closes it on destruction. */
class ScopedSpan {
  public:
    ScopedSpan(Tracer& t, const std::string& name, int64_t parent = -1)
        : t_(t), id_(t.open(name, parent))
    {
    }
    ~ScopedSpan() { t_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer& t_;
    int64_t id_;
};

} // namespace heapbench

#endif // HEAPBENCH_REPORT_H
