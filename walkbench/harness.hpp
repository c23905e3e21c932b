/**
 * @file
 * Helpers of the walk benchmark that carry no knowledge of the engine:
 * the percentile rule, order-independent output digests, in-memory
 * spans with self-time/overlap accounting, a two-sample chi-square
 * check, and the last-line JSON result.  Header-only so the helper
 * tests (harness_test.cpp) link nothing but this file.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace walkbench {

// ---------------------------------------------------------------------------
// Percentiles

/** A percentile as reported: which one, its value, and the sample count. */
struct Percentile {
    /** The percentile actually reported, in (0, 1]; 1 means the maximum. */
    double rank = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
};

/**
 * The highest percentile, no higher than @p wanted, that still has at
 * least 10 samples beyond it.  Candidates are 99.9, 99, 95 and 90, or
 * just 50 when the median is wanted, so a tail never falls back to the
 * middle.  With too few samples for any candidate, reports the maximum
 * (rank 1).  Nearest-rank definition: sorted index ceil(p·n) − 1.
 */
inline Percentile
tail_percentile(std::vector<double> values, double wanted)
{
    Percentile out;
    out.samples = values.size();
    if (values.empty()) {
        return out;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    for (const double p : {0.999, 0.99, 0.95, 0.90, 0.50}) {
        if (p > wanted + 1e-12 || (p < 0.9 && wanted >= 0.9)) {
            continue;
        }
        const auto rank = static_cast<std::size_t>(
            std::ceil(p * static_cast<double>(n) - 1e-9));
        if (rank >= 1 && n - rank >= 10) {
            out.rank = p;
            out.value = values[rank - 1];
            return out;
        }
    }
    out.rank = 1.0;
    out.value = values.back();
    return out;
}

/** Median (mean of the middle pair for an even count); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * The median, over consecutive chunks of at least 1000 samples (in
 * arrival order), of each chunk's p99.  A host stall delays a run of
 * consecutive requests; it moves one chunk's p99, not the median of
 * them.  With fewer than 2000 samples this is the plain tail_percentile.
 */
inline double
chunked_p99(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    const std::size_t chunks = std::max<std::size_t>(1, n / 1000);
    std::vector<double> p99s;
    for (std::size_t c = 0; c < chunks; ++c) {
        p99s.push_back(
            tail_percentile({values.begin() + c * n / chunks,
                             values.begin() + (c + 1) * n / chunks},
                            0.99)
                .value);
    }
    return median(p99s);
}

// ---------------------------------------------------------------------------
// Digests

/** SplitMix64 finalizer: a bijective 64-bit mixer. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Order-independent digest of (key, value) pairs: the wrapping sum of
 * one mixed word per pair, so any insertion order or thread
 * interleaving gives the same result.
 */
class Digest {
  public:
    void
    add(std::uint64_t key, std::uint64_t value)
    {
        sum_ += mix64(mix64(key) ^ value);
        ++count_;
    }

    std::uint64_t value() const { return sum_ ^ mix64(count_); }

    bool
    operator==(const Digest &other) const
    {
        return sum_ == other.sum_ && count_ == other.count_;
    }

  private:
    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
};

/** Ordered hash of a sequence (one path, one payload), for Digest values. */
inline std::uint64_t
hash_sequence(const std::vector<std::uint64_t> &words)
{
    std::uint64_t h = mix64(words.size());
    for (const std::uint64_t w : words) {
        h = mix64(h ^ w);
    }
    return h;
}

// ---------------------------------------------------------------------------
// Spans

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock. */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One timed interval at a layer boundary. */
struct Span {
    std::uint64_t id = 0;
    /** The span that caused this one (0 = none). */
    std::uint64_t parent = 0;
    /** Small per-process thread number (first use order). */
    std::uint32_t thread = 0;
    const char *name = "";
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    /** Free argument: bytes of a read, index of a request. */
    std::uint64_t arg = 0;

    double seconds() const { return 1e-9 * double(end_ns - begin_ns); }
};

/** This thread's small span thread number. */
inline std::uint32_t
thread_number()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

/** Total length, in seconds, of the union of [begin, end) intervals. */
inline double
union_seconds(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cur_begin = 0;
    std::int64_t cur_end = 0;
    bool open = false;
    for (const auto &[b, e] : intervals) {
        if (e <= b) {
            continue;
        }
        if (!open || b > cur_end) {
            if (open) {
                total += cur_end - cur_begin;
            }
            cur_begin = b;
            cur_end = e;
            open = true;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (open) {
        total += cur_end - cur_begin;
    }
    return 1e-9 * static_cast<double>(total);
}

/** How a span's time divides among its children. */
struct SpanTime {
    double total_s = 0.0;
    /** Total minus the union of same-thread children (clipped). */
    double self_s = 0.0;
    /** Union of other-thread children inside the span: work that ran
     *  alongside it, reported as overlap, never subtracted. */
    double overlap_s = 0.0;
};

/** Self time and cross-thread overlap of @p parent among @p spans. */
inline SpanTime
span_time(const Span &parent, const std::vector<Span> &spans)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> same;
    std::vector<std::pair<std::int64_t, std::int64_t>> other;
    for (const Span &s : spans) {
        if (s.parent != parent.id || s.id == parent.id) {
            continue;
        }
        const std::int64_t b = std::max(s.begin_ns, parent.begin_ns);
        const std::int64_t e = std::min(s.end_ns, parent.end_ns);
        (s.thread == parent.thread ? same : other).emplace_back(b, e);
    }
    SpanTime t;
    t.total_s = parent.seconds();
    t.self_s = t.total_s - union_seconds(std::move(same));
    t.overlap_s = union_seconds(std::move(other));
    return t;
}

/**
 * In-memory span sink.  Recording is a mutex-guarded append; spans are
 * written out only when the benchmark ends (write_chrome_trace).  While
 * disabled, open() returns 0 and nothing is recorded, so the probes stay
 * in the untraced runs at the cost of one relaxed load.
 */
class Tracer {
  public:
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void set_enabled(bool on) { enabled_.store(on); }

    /** A fresh span id, or 0 when tracing is off. */
    std::uint64_t
    open()
    {
        return enabled() ? next_id_.fetch_add(1) : 0;
    }

    /** Record closed span @p id (ignored when @p id is 0). */
    void
    record(std::uint64_t id, const char *name, std::uint64_t parent,
           std::uint64_t arg, std::int64_t begin_ns, std::int64_t end_ns)
    {
        if (id == 0) {
            return;
        }
        const Span s{id, parent, thread_number(), name, begin_ns, end_ns,
                     arg};
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(s);
    }

    /** The span I/O reads attach to (set around engine runs). */
    void set_io_parent(std::uint64_t id) { io_parent_.store(id); }
    std::uint64_t io_parent() const { return io_parent_.load(); }

    /** Closed spans so far (a copy). */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> io_parent_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span on a Tracer. */
class ScopedSpan {
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t parent = 0,
               std::uint64_t arg = 0)
        : tracer_(&tracer), name_(name), parent_(parent), arg_(arg),
          id_(tracer.open()), begin_ns_(id_ != 0 ? now_ns() : 0)
    {
    }
    ~ScopedSpan()
    {
        if (id_ != 0) {
            tracer_->record(id_, name_, parent_, arg_, begin_ns_, now_ns());
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    const char *name_;
    std::uint64_t parent_;
    std::uint64_t arg_;
    std::uint64_t id_;
    std::int64_t begin_ns_;
};

/** Write @p spans as a Chrome trace-event JSON array. @return success. */
inline bool
write_chrome_trace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::int64_t origin = 0;
    for (const Span &s : spans) {
        origin = origin == 0 ? s.begin_ns : std::min(origin, s.begin_ns);
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu,\"arg\":%llu}}%s\n",
                     s.name, s.thread, 1e-3 * double(s.begin_ns - origin),
                     1e-3 * double(s.end_ns - s.begin_ns),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.arg),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Chi-square

/**
 * Two-sample chi-square statistic over matching bins of two equal-size
 * samples: Σ (a − b)² / (a + b) over bins with a + b > 0.
 * @return {statistic, degrees of freedom}.
 */
inline std::pair<double, double>
chi_square_two_sample(const std::vector<std::uint64_t> &a,
                      const std::vector<std::uint64_t> &b)
{
    double stat = 0.0;
    double bins = 0.0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        const double s = double(a[i]) + double(b[i]);
        if (s > 0.0) {
            const double d = double(a[i]) - double(b[i]);
            stat += d * d / s;
            bins += 1.0;
        }
    }
    return {stat, std::max(1.0, bins - 1.0)};
}

/** Upper chi-square quantile for a normal deviate @p z
 *  (Wilson–Hilferty). */
inline double
chi_square_bound(double dof, double z)
{
    const double c = 2.0 / (9.0 * dof);
    const double t = 1.0 - c + z * std::sqrt(c);
    return dof * t * t * t;
}

// ---------------------------------------------------------------------------
// Result line

/** One metric as printed. */
struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The result object the benchmark prints as its last stdout line. */
inline std::string
result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i > 0 ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace walkbench
