#include "report.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>

#include <sys/resource.h>

namespace heapbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

double
tvMs(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) * 1e3
           + static_cast<double>(tv.tv_usec) * 1e-3;
}

uint32_t
threadTag()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id())
        % 100000);
}

} // namespace

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

std::chrono::steady_clock::time_point
steadyAt(double ms)
{
    return kEpoch
           + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double, std::milli>(ms));
}

void
sleepUntilMs(double ms)
{
    std::this_thread::sleep_until(steadyAt(ms));
}

double
processCpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return tvMs(ru.ru_utime) + tvMs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(samples.begin(), samples.end());
    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
MetricList::add(const std::string& name, double value,
                const std::string& unit, size_t samples)
{
    for (Metric& m : metrics_) {
        if (m.name == name) {
            m = Metric{name, value, unit, samples};
            return;
        }
    }
    metrics_.push_back(Metric{name, value, unit, samples});
}

int64_t
Tracer::add(const std::string& name, double startMs, double endMs,
            int64_t parent, uint64_t request)
{
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(
        Span{name, startMs, endMs, parent, request, threadTag()});
    return static_cast<int64_t>(spans_.size() - 1);
}

int64_t
Tracer::open(const std::string& name, int64_t parent, uint64_t request)
{
    const double t = nowMs();
    return add(name, t, t, parent, request);
}

void
Tracer::close(int64_t id)
{
    const double t = nowMs();
    std::lock_guard<std::mutex> lock(m_);
    spans_.at(static_cast<size_t>(id)).endMs = t;
}

double
Tracer::durationMs(int64_t id) const
{
    std::lock_guard<std::mutex> lock(m_);
    const Span& s = spans_.at(static_cast<size_t>(id));
    return s.endMs - s.startMs;
}

double
Tracer::selfMs(int64_t id) const
{
    std::lock_guard<std::mutex> lock(m_);
    const Span& s = spans_.at(static_cast<size_t>(id));
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_) {
        if (c.parent == id) {
            kids.emplace_back(std::max(c.startMs, s.startMs),
                              std::min(c.endMs, s.endMs));
        }
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.startMs;
    for (const auto& [lo, hi] : kids) {
        const double from = std::max(lo, reach);
        if (hi > from) {
            covered += hi - from;
            reach = hi;
        }
    }
    return (s.endMs - s.startMs) - covered;
}

double
Tracer::childDurationMs(int64_t id, const std::string& name) const
{
    std::lock_guard<std::mutex> lock(m_);
    double total = 0;
    for (const Span& c : spans_) {
        if (c.parent == id && c.name == name) {
            total += c.endMs - c.startMs;
        }
    }
    return total;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_.size();
}

bool
Tracer::writeChromeJson(const std::string& path) const
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::lock_guard<std::mutex> lock(m_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(
            f,
            "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"ts\": %s, \"dur\": %s, \"args\": {\"id\": %zu, "
            "\"parent\": %lld, \"request\": %llu}}%s\n",
            jsonString(s.name).c_str(), s.thread,
            jsonNumber(s.startMs * 1e3).c_str(),
            jsonNumber((s.endMs - s.startMs) * 1e3).c_str(), i,
            static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.request),
            i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace heapbench
