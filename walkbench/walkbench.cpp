/**
 * @file
 * The repository benchmark: runs one named workload on the K30' twin at
 * scale 15 for a given seed, checks the walk output, and prints every
 * metric by name and unit.  The last stdout line is the JSON result
 * (see README.md); walkbench/run.py builds this program and drives it.
 *
 *   walkbench --workload oc-basic --seed 1 --seconds 12 --trace 0
 *   walkbench --list-metrics
 *
 * --trace 0 reports the end-to-end metrics from untraced runs.
 * --trace 1 runs the same workload untraced and then traced, reports
 * the per-layer metrics of the traced runs plus the tracing overhead,
 * and writes the spans as a Chrome trace under .bench_build/traces.
 *
 * The library is driven only through its public calls; every time and
 * span here is taken around those calls or inside the benchmark's own
 * IoDevice adapter.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/basic_rw.hpp"
#include "apps/node2vec.hpp"
#include "baselines/inmemory.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "harness.hpp"
#include "service/walk_service.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"

namespace walkbench {
namespace {

namespace nw = noswalker;
using nw::graph::VertexId;

/** K30' at scale 15: 32,768 vertices, 1,048,576 edges. */
constexpr unsigned kScale = 15;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;
/** Timed repetitions per batch window, at least. */
constexpr std::size_t kMinReps = 3;
/** Where traced runs write their spans, relative to the checkout. */
constexpr const char *kTraceDir = ".bench_build/traces";

// ---------------------------------------------------------------------------
// Metric tables: the names BENCHMARK.json lists, in print order.

struct MetricDef {
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"steps_per_s", "steps/s"},
    {"steps_per_cpu_s", "steps/cpu-s"},
    {"modeled_steps_per_s", "steps/s"},
    {"io_bytes_per_step", "B/step"},
    {"peak_mem_bytes", "B"},
    {"setup_s", "s"},
    {"ok_share", "ratio"},
    {"svc_capacity_rps", "req/s"},
    {"svc_p50_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"graph.generate_s", "s"},
    {"graph.write_s", "s"},
    {"graph.open_s", "s"},
    {"graph.partition_s", "s"},
    {"storage.read_calls", "count"},
    {"storage.read_bytes", "B"},
    {"storage.read_s", "s"},
    {"storage.read_us_p50", "us"},
    {"storage.read_us_p99", "us"},
    {"storage.modeled_busy_s", "s"},
    {"core.run_s", "s"},
    {"core.construct_s", "s"},
    {"core.compute_s", "s"},
    {"core.blocked_s", "s"},
    {"core.read_overlap_s", "s"},
    {"core.io_wait_modeled_s", "s"},
    {"core.loads_per_kstep", "1/kstep"},
    {"core.fine_loads", "count"},
    {"core.prefetch_hit_ratio", "ratio"},
    {"core.mispredict_ratio", "ratio"},
    {"core.presample_step_share", "ratio"},
    {"core.block_step_share", "ratio"},
    {"core.presample_mem_use", "ratio"},
    {"core.stalls_per_step", "1/step"},
    {"core.edges_per_step", "edges/step"},
    {"core.planned_loads", "count"},
    {"core.plan_rescores", "count"},
    {"core.plan_cache_credits", "count"},
    {"core.kernel_cohorts", "count"},
    {"core.kernel_prefetches_per_step", "1/step"},
    {"core.kernel_scalar_fallbacks", "count"},
    {"core.rejection_accept_ratio", "ratio"},
    {"shard.rounds", "count"},
    {"shard.migrations_per_step", "1/step"},
    {"shard.migration_batches", "count"},
    {"shard.migration_wait_modeled_s", "s"},
    {"shard.migration_overlap_modeled_s", "s"},
    {"shard.compute_imbalance", "ratio"},
    {"shard.load_imbalance", "ratio"},
    {"svc.p99_ms", "ms"},
    {"svc.modeled_p99_ms", "ms"},
    {"svc.submit_us_p99", "us"},
    {"svc.queue_wait_ms_p50", "ms"},
    {"svc.queue_wait_ms_p99", "ms"},
    {"svc.run_ms_p50", "ms"},
    {"svc.run_ms_p99", "ms"},
    {"svc.batch_size_mean", "req/batch"},
    {"svc.open_batch_size_mean", "req/batch"},
    {"svc.coalesced_share", "ratio"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.backlog_max", "count"},
    {"svc.gen_late_ms_max", "ms"},
    {"svc.rejected", "count"},
    {"svc.expired", "count"},
    {"svc.failed", "count"},
    {"proc.cpu_per_wall", "ratio"},
    {"proc.max_rss_mib", "MiB"},
    {"trace.overhead_share", "ratio"},
};

/** Metric values of one run, keyed by name; unknown names throw. */
class MetricSet {
  public:
    explicit MetricSet(const std::vector<MetricDef> &defs) : defs_(&defs) {}

    void
    set(const std::string &name, double value)
    {
        for (const MetricDef &d : *defs_) {
            if (name == d.name) {
                values_[name] = value;
                return;
            }
        }
        throw std::logic_error("metric not in the table: " + name);
    }

    /** Every metric of the table, in table order; unset ones read 0
     *  (a layer the workload does not exercise). */
    std::vector<Metric>
    all() const
    {
        std::vector<Metric> out;
        for (const MetricDef &d : *defs_) {
            const auto it = values_.find(d.name);
            out.push_back({d.name, d.unit,
                           it == values_.end() ? 0.0 : it->second});
        }
        return out;
    }

  private:
    const std::vector<MetricDef> *defs_;
    std::map<std::string, double> values_;
};

/** Outcome of the output checks. */
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            problems.push_back(what);
        }
    }
};

// ---------------------------------------------------------------------------
// Process clocks

double
process_cpu_seconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return double(u.ru_utime.tv_sec) + 1e-6 * double(u.ru_utime.tv_usec) +
           double(u.ru_stime.tv_sec) + 1e-6 * double(u.ru_stime.tv_usec);
}

double
max_rss_mib()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return double(u.ru_maxrss) / 1024.0;
}

double
seconds_since(std::int64_t begin_ns)
{
    return 1e-9 * double(now_ns() - begin_ns);
}

// ---------------------------------------------------------------------------
// The graph, behind a traced device

/**
 * Read-only IoDevice over the twin's MemDevice: serves bytes through
 * the unaccounted peek() path (as shard::ShardDevice does) and, while
 * tracing, records one storage.read span per read.  Reads run on
 * loader threads, so the span's parent is whatever run the benchmark
 * has marked as the current I/O parent.
 */
class TracedDevice final : public nw::storage::IoDevice {
  public:
    TracedDevice(nw::storage::IoDevice &base, Tracer &tracer)
        : IoDevice(base.model()), base_(&base), tracer_(&tracer)
    {
    }

    std::uint64_t size() const override { return base_->size(); }

  protected:
    void
    do_read(std::uint64_t offset, std::uint64_t len, void *buffer) override
    {
        const std::uint64_t id = tracer_->open();
        const std::int64_t begin = id != 0 ? now_ns() : 0;
        base_->peek(offset, len, buffer);
        if (id != 0) {
            tracer_->record(id, "storage.read", tracer_->io_parent(), len,
                            begin, now_ns());
        }
    }

    void
    do_write(std::uint64_t, std::uint64_t, const void *) override
    {
        throw nw::util::IoError("TracedDevice is read-only");
    }

  private:
    nw::storage::IoDevice *base_;
    Tracer *tracer_;
};

struct Graph {
    std::unique_ptr<nw::storage::MemDevice> store;
    std::unique_ptr<TracedDevice> device;
    std::unique_ptr<nw::graph::GraphFile> file;
    std::unique_ptr<nw::graph::BlockPartition> partition;
};

/** Seconds of each graph call of one set-up. */
struct SetupTimes {
    double generate_s = 0.0;
    double write_s = 0.0;
    double open_s = 0.0;
    double partition_s = 0.0;
    double construct_s = 0.0;

    double
    total() const
    {
        return generate_s + write_s + open_s + partition_s + construct_s;
    }
};

/** Build, write, open and partition the K30' twin for @p seed. */
std::unique_ptr<Graph>
build_graph(std::uint64_t seed, Tracer &tracer, SetupTimes &times)
{
    auto g = std::make_unique<Graph>();
    std::int64_t t = now_ns();
    nw::graph::CsrGraph csr;
    {
        ScopedSpan span(tracer, "graph.generate");
        csr = nw::graph::build_dataset(nw::graph::DatasetId::kKron30, kScale,
                                       seed);
    }
    times.generate_s = seconds_since(t);
    t = now_ns();
    {
        ScopedSpan span(tracer, "graph.write");
        g->store = std::make_unique<nw::storage::MemDevice>(
            nw::storage::SsdModel::p4618());
        nw::graph::GraphFile::write(csr, *g->store);
    }
    times.write_s = seconds_since(t);
    t = now_ns();
    {
        ScopedSpan span(tracer, "graph.open");
        g->device = std::make_unique<TracedDevice>(*g->store, tracer);
        g->file = std::make_unique<nw::graph::GraphFile>(*g->device);
    }
    times.open_s = seconds_since(t);
    t = now_ns();
    {
        ScopedSpan span(tracer, "graph.partition");
        // 33 blocks, as the paper's Kron30 set-up.
        const std::uint64_t block_bytes = std::max<std::uint64_t>(
            16 * 1024, g->file->edge_region_bytes() / 32);
        g->partition = std::make_unique<nw::graph::BlockPartition>(
            *g->file, block_bytes);
    }
    times.partition_s = seconds_since(t);
    return g;
}

// ---------------------------------------------------------------------------
// Recording apps: per-walker output slots, written only by the thread
// stepping that walker (the engine's multi-threaded app contract).

/**
 * One packed word per walker: endpoint in the low 24 bits, steps in the
 * next 6, then a generated flag and a generated-twice flag.  One word
 * keeps the recording's memory traffic to a cache line per step.
 */
class WalkOutput {
  public:
    static constexpr std::uint32_t kVertexBits = 24;
    static constexpr std::uint32_t kMaxSteps = 63;

    void
    reset(std::uint64_t walkers)
    {
        words_.assign(walkers, 0);
    }

    template <typename W>
    void
    start(const W &w)
    {
        std::uint32_t &word = words_[w.id];
        word = (word & kGenerated ? kTwice : 0) | kGenerated | w.location;
    }

    template <typename W>
    void
    moved(const W &w)
    {
        std::uint32_t &word = words_[w.id];
        word = (word & (kGenerated | kTwice)) |
               (std::min(steps(word) + 1, kMaxSteps) << kVertexBits) |
               w.location;
    }

    std::size_t size() const { return words_.size(); }
    VertexId endpoint(std::size_t i) const { return words_[i] & kVertexMask; }
    std::uint32_t steps(std::size_t i) const { return steps(words_[i]); }
    /** Generated exactly once. */
    bool
    generated_once(std::size_t i) const
    {
        return (words_[i] & (kGenerated | kTwice)) == kGenerated;
    }

  private:
    static constexpr std::uint32_t kVertexMask = (1u << kVertexBits) - 1;
    static constexpr std::uint32_t kGenerated = 1u << 30;
    static constexpr std::uint32_t kTwice = 1u << 31;

    static std::uint32_t
    steps(std::uint32_t word)
    {
        return (word >> kVertexBits) & kMaxSteps;
    }

    std::vector<std::uint32_t> words_;
};

/** BasicRandomWalk recording each walker's endpoint and step count. */
class RecordedBasicWalk {
  public:
    using WalkerT = nw::apps::BasicRandomWalk::WalkerT;

    RecordedBasicWalk(nw::apps::BasicRandomWalk inner, WalkOutput &out)
        : inner_(inner), out_(&out)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        WalkerT w = inner_.generate(n);
        out_->start(w);
        return w;
    }

    VertexId
    sample(const nw::graph::VertexView &view, nw::util::Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const nw::graph::VertexView &view,
           nw::util::Rng probe) const
    {
        return inner_.gather(w, view, probe);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, VertexId next, nw::util::Rng &rng)
    {
        const bool consumed = inner_.action(w, next, rng);
        out_->moved(w);
        return consumed;
    }

  private:
    nw::apps::BasicRandomWalk inner_;
    WalkOutput *out_;
};

static_assert(nw::engine::DrawHintApp<RecordedBasicWalk>);

/** Node2Vec recording each walker's endpoint and accepted steps. */
class RecordedNode2Vec {
  public:
    using WalkerT = nw::apps::Node2Vec::WalkerT;

    RecordedNode2Vec(nw::apps::Node2Vec inner, WalkOutput &out)
        : inner_(inner), out_(&out)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        WalkerT w = inner_.generate(n);
        out_->start(w);
        return w;
    }

    VertexId
    sample(const nw::graph::VertexView &view, nw::util::Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const nw::graph::VertexView &view) const
    {
        return inner_.gather(w, view);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, VertexId next, nw::util::Rng &rng)
    {
        return inner_.action(w, next, rng);
    }

    bool has_candidate(const WalkerT &w) const
    {
        return inner_.has_candidate(w);
    }

    VertexId candidate(const WalkerT &w) const { return inner_.candidate(w); }

    bool
    rejection(WalkerT &w, const nw::graph::VertexView &view,
              nw::util::Rng &rng)
    {
        const bool accepted = inner_.rejection(w, view, rng);
        if (accepted) {
            out_->moved(w);
        }
        return accepted;
    }

  private:
    nw::apps::Node2Vec inner_;
    WalkOutput *out_;
};

static_assert(nw::engine::SecondOrderApp<RecordedNode2Vec>);
static_assert(nw::engine::GatherHintApp<RecordedNode2Vec>);

/** Result of checking one job's walk output. */
struct WalkCheck {
    Digest digest;
    std::uint64_t bad_walkers = 0;
    std::uint64_t step_sum = 0;
};

/**
 * Every walker was generated once, took at most @p length steps, and
 * stopped short only on a dead end.  Digest of (walker, endpoint, steps).
 */
WalkCheck
check_walks(const WalkOutput &out, const nw::graph::GraphFile &file,
            std::uint32_t length)
{
    WalkCheck c;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const VertexId v = out.endpoint(i);
        const std::uint32_t steps = out.steps(i);
        const bool ok = out.generated_once(i) && steps <= length &&
                        v < file.num_vertices() &&
                        (steps == length || file.degree(v) == 0);
        c.bad_walkers += ok ? 0 : 1;
        c.step_sum += steps;
        c.digest.add(i, (std::uint64_t(steps) << 32) | v);
    }
    return c;
}

/** Endpoint histogram over 256 vertex bins (chi-square input). */
std::vector<std::uint64_t>
endpoint_bins(const WalkOutput &out)
{
    std::vector<std::uint64_t> bins(256, 0);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ++bins[out.endpoint(i) % bins.size()];
    }
    return bins;
}

// ---------------------------------------------------------------------------
// Batch workloads

/** One timed job. */
struct Rep {
    nw::engine::RunStats stats;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double construct_s = 0.0;
    WalkCheck check;
    /** The job's run span (0 untraced) and its bounds. */
    Span span;
    /** Sharded jobs only. */
    std::uint64_t rounds = 0;
    double compute_imbalance = 0.0;
    double load_imbalance = 0.0;
    bool exchange_balanced = true;
};

/** What every timed job of a batch workload must match. */
struct Reference {
    /** The digest each job must repeat; without one, the first job's. */
    std::optional<Digest> digest;
    /** Who made the digest, for the failure message. */
    std::string source = "the first job";
    /** Endpoint bins of a reference engine; when set, each window's
     *  first job must pass the chi-square bound against them. */
    std::vector<std::uint64_t> bins;
};

/** A batch workload: how to set it up and run one job. */
struct BatchWorkload {
    std::uint64_t walkers = 0;
    std::uint32_t length = 0;
    const char *run_span = "core.run";
    /**
     * Construct the engine over @p g; returns the constructor time.
     * Called for every set-up and again before every job: a second
     * run() on one engine does not repeat the first one's output, so
     * each job gets a fresh engine, built outside its timed window.
     */
    std::function<double(Graph &g)> construct;
    /** Drop the engine (before its graph). */
    std::function<void()> destroy;
    /** Run one job into @p out (already reset). */
    std::function<nw::engine::RunStats(WalkOutput &out, Rep &rep)> run;
    /** Reference run, outside the timed window and outside setup_s. */
    std::function<Reference(Graph &g, Checks &checks)> reference;
};

/** max/mean of @p values (1 when all are zero). */
double
imbalance(const std::vector<double> &values)
{
    double max = 0.0;
    double sum = 0.0;
    for (const double v : values) {
        max = std::max(max, v);
        sum += v;
    }
    return sum > 0.0 ? max * double(values.size()) / sum : 1.0;
}

void
core_layer(MetricSet &m, const nw::engine::RunStats &s, double run_s,
           double construct_s)
{
    const double steps = std::max<double>(1.0, double(s.steps));
    m.set("core.run_s", run_s);
    m.set("core.construct_s", construct_s);
    m.set("core.compute_s", s.cpu_seconds);
    m.set("core.blocked_s", run_s - s.cpu_seconds);
    m.set("core.io_wait_modeled_s", s.io_wait_seconds);
    m.set("core.loads_per_kstep",
          1000.0 * double(s.blocks_loaded + s.fine_loads) / steps);
    m.set("core.fine_loads", double(s.fine_loads));
    m.set("core.prefetch_hit_ratio",
          s.blocks_loaded > 0 ? double(s.prefetch_hits) / s.blocks_loaded
                              : 0.0);
    const double speculated = double(s.prefetch_hits + s.prefetch_mispredicts);
    m.set("core.mispredict_ratio",
          speculated > 0 ? s.prefetch_mispredicts / speculated : 0.0);
    // Of the steps served from data (second-order walks also count
    // rejection trials here), the share pre-samples and the loaded
    // block served.
    const double served =
        std::max<double>(1.0, double(s.presample_steps + s.block_steps));
    m.set("core.presample_step_share", s.presample_steps / served);
    m.set("core.block_step_share", s.block_steps / served);
    m.set("core.presample_mem_use",
          s.presample_bytes_total > 0
              ? double(s.presample_bytes_used) / s.presample_bytes_total
              : 0.0);
    m.set("core.stalls_per_step", s.stalls / steps);
    m.set("core.edges_per_step", s.edges_per_step());
    m.set("core.planned_loads", double(s.planned_loads));
    m.set("core.plan_rescores", double(s.plan_rescores));
    m.set("core.plan_cache_credits", double(s.plan_cache_credits));
    m.set("core.kernel_cohorts", double(s.kernel_cohorts));
    m.set("core.kernel_prefetches_per_step", s.kernel_prefetches / steps);
    m.set("core.kernel_scalar_fallbacks", double(s.kernel_scalar_fallbacks));
    m.set("core.rejection_accept_ratio",
          s.rejection_trials > 0
              ? 1.0 - double(s.rejection_rejected) / s.rejection_trials
              : 0.0);
    m.set("storage.modeled_busy_s", s.io_busy_seconds);
    if (s.migrations > 0 || s.migration_batches > 0) {
        m.set("shard.migrations_per_step", s.migrations / steps);
        m.set("shard.migration_batches", double(s.migration_batches));
        m.set("shard.migration_wait_modeled_s", s.migration_wait_seconds);
        m.set("shard.migration_overlap_modeled_s",
              s.migration_overlap_seconds);
    }
}

/** storage.* from the read spans under @p parents, per parent. */
void
storage_layer(MetricSet &m, const std::vector<Span> &spans,
              const std::vector<std::uint64_t> &parents)
{
    std::vector<double> calls, bytes, union_s, micros;
    for (const std::uint64_t parent : parents) {
        std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
        double b = 0.0;
        for (const Span &s : spans) {
            if (s.parent == parent &&
                std::string_view(s.name) == "storage.read") {
                intervals.emplace_back(s.begin_ns, s.end_ns);
                b += double(s.arg);
                micros.push_back(1e6 * s.seconds());
            }
        }
        calls.push_back(double(intervals.size()));
        bytes.push_back(b);
        union_s.push_back(union_seconds(std::move(intervals)));
    }
    m.set("storage.read_calls", median(calls));
    m.set("storage.read_bytes", median(bytes));
    m.set("storage.read_s", median(union_s));
    m.set("storage.read_us_p50", tail_percentile(micros, 0.5).value);
    m.set("storage.read_us_p99", tail_percentile(micros, 0.99).value);
}

void
proc_layer(MetricSet &m, double cpu_s, double wall_s)
{
    m.set("proc.cpu_per_wall", wall_s > 0 ? cpu_s / wall_s : 0.0);
    m.set("proc.max_rss_mib", max_rss_mib());
}

void
graph_layer(MetricSet &m, const std::vector<SetupTimes> &setups)
{
    std::vector<double> gen, write, open, part;
    for (const SetupTimes &s : setups) {
        gen.push_back(s.generate_s);
        write.push_back(s.write_s);
        open.push_back(s.open_s);
        part.push_back(s.partition_s);
    }
    m.set("graph.generate_s", median(gen));
    m.set("graph.write_s", median(write));
    m.set("graph.open_s", median(open));
    m.set("graph.partition_s", median(part));
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** What a workload run hands back to main. */
struct Outcome {
    MetricSet e2e{kEndToEnd};
    MetricSet layer{kPerLayer};
    Checks checks;
    std::vector<Span> spans;
};

/** Run @p w's jobs for about @p seconds (at least kMinReps). */
std::vector<Rep>
timed_reps(BatchWorkload &w, Graph &g, Tracer &tracer, double seconds,
           Checks &checks, Reference &ref)
{
    std::vector<Rep> reps;
    WalkOutput out;
    const std::int64_t window = now_ns();
    double longest = 0.0;
    while (reps.size() < kMinReps ||
           seconds_since(window) + longest <= seconds) {
        Rep rep;
        out.reset(w.walkers);
        rep.construct_s = w.construct(g);
        const double cpu0 = process_cpu_seconds();
        rep.span.id = tracer.open();
        rep.span.name = w.run_span;
        rep.span.thread = thread_number();
        tracer.set_io_parent(rep.span.id);
        rep.span.begin_ns = now_ns();
        rep.stats = w.run(out, rep);
        rep.span.end_ns = now_ns();
        tracer.set_io_parent(0);
        tracer.record(rep.span.id, rep.span.name, 0, w.walkers,
                      rep.span.begin_ns, rep.span.end_ns);
        rep.wall_s = rep.span.seconds();
        rep.cpu_s = process_cpu_seconds() - cpu0;
        longest = std::max(longest, rep.wall_s);

        rep.check = check_walks(out, *g.file, w.length);
        if (!ref.digest) {
            ref.digest = rep.check.digest;
        }
        const Digest &expected = *ref.digest;
        const std::string tag = "rep " + std::to_string(reps.size()) + ": ";
        if (reps.empty() && !ref.bins.empty()) {
            const auto [stat, dof] =
                chi_square_two_sample(endpoint_bins(out), ref.bins);
            const double bound = chi_square_bound(dof, 4.75);
            std::printf("endpoint chi-square vs the reference engine: %.1f "
                        "(dof %.0f, bound %.1f)\n",
                        stat, dof, bound);
            checks.expect(stat <= bound, tag + "endpoint distribution "
                                               "differs from the reference");
        }
        checks.attempted += w.walkers;
        const bool whole =
            rep.stats.walkers == w.walkers &&
            rep.check.step_sum == rep.stats.steps &&
            rep.check.digest == expected && rep.exchange_balanced;
        checks.failed += whole ? rep.check.bad_walkers : w.walkers;
        checks.expect(rep.check.bad_walkers == 0,
                      tag + std::to_string(rep.check.bad_walkers) +
                          " walkers retired wrongly");
        checks.expect(rep.stats.walkers == w.walkers,
                      tag + "RunStats::walkers != walkers submitted");
        checks.expect(rep.check.step_sum == rep.stats.steps,
                      tag + "recorded steps != RunStats::steps");
        checks.expect(rep.check.digest == expected,
                      tag + "endpoint digest differs from " + ref.source);
        checks.expect(rep.exchange_balanced,
                      tag + "migration exchange posted != delivered");
        reps.push_back(rep);
    }
    return reps;
}

void
run_batch(BatchWorkload &w, const Options &opt, Outcome &o)
{
    Tracer tracer;
    tracer.set_enabled(opt.trace);
    std::vector<SetupTimes> setups;
    std::unique_ptr<Graph> g;
    for (int k = 0; k < kSetups; ++k) {
        if (g) {
            w.destroy();
        }
        SetupTimes t;
        g = build_graph(opt.seed, tracer, t);
        {
            ScopedSpan span(tracer, "core.construct");
            t.construct_s = w.construct(*g);
        }
        setups.push_back(t);
    }
    tracer.set_enabled(false);
    std::vector<double> setup_totals;
    for (const SetupTimes &t : setups) {
        setup_totals.push_back(t.total());
    }
    if (g->file->num_vertices() > (1u << WalkOutput::kVertexBits) ||
        w.length > WalkOutput::kMaxSteps) {
        throw std::runtime_error("workload too large for WalkOutput");
    }

    Reference ref = w.reference(*g, o.checks);
    const std::int64_t t0 = now_ns();
    std::vector<Rep> reps =
        timed_reps(w, *g, tracer, opt.seconds, o.checks, ref);
    const double window_wall = seconds_since(t0);

    std::vector<double> sps, spc, msps, bps, peak, walls, jobs;
    for (const Rep &r : reps) {
        const double steps = double(r.stats.steps);
        sps.push_back(steps / r.wall_s);
        spc.push_back(steps / r.cpu_s);
        msps.push_back(steps / r.stats.modeled_seconds());
        bps.push_back(double(r.stats.graph_bytes_read) / steps);
        peak.push_back(double(r.stats.peak_memory));
        walls.push_back(1e3 * r.wall_s);
        jobs.push_back(1.0 / r.wall_s);
    }
    // Other tenants of the host only ever slow a job down, and in bursts
    // that can cover most of a window, so the throughputs take the best
    // job of the window, as timeit takes the fastest repeat; the
    // latencies keep their median and tail.
    const auto best = [](const std::vector<double> &v) {
        return *std::max_element(v.begin(), v.end());
    };
    o.e2e.set("steps_per_s", best(sps));
    o.e2e.set("steps_per_cpu_s", best(spc));
    o.e2e.set("modeled_steps_per_s", best(msps));
    o.e2e.set("io_bytes_per_step", median(bps));
    o.e2e.set("peak_mem_bytes", median(peak));
    o.e2e.set("setup_s", median(setup_totals));
    // A batch job is one request: capacity is jobs per second and the
    // latencies are job wall (and modeled) times.
    o.e2e.set("svc_capacity_rps", best(jobs));
    o.e2e.set("svc_p50_ms", median(walls));

    std::printf("%zu timed jobs in %.2f s; job wall ms:", reps.size(),
                window_wall);
    for (const double v : walls) {
        std::printf(" %.1f", v);
    }
    std::printf("\nsteps/job %llu, walkers/job %llu, setup_s runs:",
                static_cast<unsigned long long>(reps.front().stats.steps),
                static_cast<unsigned long long>(w.walkers));
    for (const double v : setup_totals) {
        std::printf(" %.3f", v);
    }
    std::printf("\n");

    if (!opt.trace) {
        w.destroy(); // the engine goes before its graph
        return;
    }

    // Traced window: the same jobs with spans on.  Per-layer metrics
    // come from these jobs; the untraced window above is the baseline
    // of the tracing overhead.
    tracer.set_enabled(true);
    const std::int64_t t1 = now_ns();
    const double cpu1 = process_cpu_seconds();
    std::vector<Rep> traced =
        timed_reps(w, *g, tracer, opt.seconds, o.checks, ref);
    w.destroy();
    const double traced_wall = seconds_since(t1);
    const double traced_cpu = process_cpu_seconds() - cpu1;
    tracer.set_enabled(false);
    o.spans = tracer.spans();

    std::vector<double> untraced_walls, traced_walls;
    for (const Rep &r : reps) {
        untraced_walls.push_back(r.wall_s);
    }
    std::vector<std::uint64_t> parents;
    std::map<std::string, std::vector<double>> per_rep;
    for (const Rep &r : traced) {
        traced_walls.push_back(r.wall_s);
        parents.push_back(r.span.id);
        MetricSet one(kPerLayer);
        core_layer(one, r.stats, r.wall_s, r.construct_s);
        one.set("core.read_overlap_s", span_time(r.span, o.spans).overlap_s);
        if (r.rounds > 0) {
            one.set("shard.rounds", double(r.rounds));
            one.set("shard.compute_imbalance", r.compute_imbalance);
            one.set("shard.load_imbalance", r.load_imbalance);
        }
        for (const Metric &mt : one.all()) {
            per_rep[mt.name].push_back(mt.value);
        }
    }
    for (const MetricDef &d : kPerLayer) {
        if (std::string_view(d.name).substr(0, 5) == "core." ||
            std::string_view(d.name).substr(0, 6) == "shard." ||
            std::string_view(d.name) == "storage.modeled_busy_s") {
            o.layer.set(d.name, median(per_rep[d.name]));
        }
    }
    graph_layer(o.layer, setups);
    storage_layer(o.layer, o.spans, parents);
    proc_layer(o.layer, traced_cpu, traced_wall);
    o.layer.set("trace.overhead_share",
                median(traced_walls) / median(untraced_walls) - 1.0);
}

// --- the batch workloads ---

nw::core::EngineConfig
engine_config(const Graph &g, std::uint64_t seed, std::uint64_t budget)
{
    nw::core::EngineConfig cfg = nw::core::EngineConfig::full(
        budget, g.partition->target_block_bytes());
    cfg.seed = mix64(seed ^ 0x656e67696e65ULL);
    return cfg;
}

void
oc_basic(const Options &opt, Outcome &o)
{
    using Engine = nw::core::NosWalkerEngine<RecordedBasicWalk>;
    BatchWorkload w;
    w.walkers = 1'000'000;
    w.length = 10;
    std::unique_ptr<Engine> engine;
    const std::uint64_t app_seed = mix64(opt.seed ^ 0x617070ULL);
    Graph *graph = nullptr;
    w.construct = [&](Graph &g) {
        graph = &g;
        nw::core::EngineConfig cfg =
            engine_config(g, opt.seed, g.file->file_bytes() / 4);
        cfg.step_threads = 1;
        const std::int64_t t = now_ns();
        engine = std::make_unique<Engine>(*g.file, *g.partition, cfg);
        return seconds_since(t);
    };
    w.destroy = [&] { engine.reset(); };
    const auto make_app = [&](WalkOutput &out) {
        return RecordedBasicWalk(
            nw::apps::BasicRandomWalk(w.length, graph->file->num_vertices(),
                                      true, app_seed),
            out);
    };
    w.run = [&](WalkOutput &out, Rep &) {
        RecordedBasicWalk app = make_app(out);
        return engine->run(app, w.walkers);
    };
    w.reference = [&](Graph &g, Checks &) {
        // Pre-sampling draws from other streams, so the jobs cannot
        // repeat InMemoryEngine's walks, only their endpoint law.
        WalkOutput out;
        out.reset(w.walkers);
        RecordedBasicWalk app = make_app(out);
        nw::baselines::InMemoryEngine<RecordedBasicWalk> mem(
            *g.file, mix64(opt.seed ^ 0x6d656dULL));
        mem.run(app, w.walkers);
        Reference ref;
        ref.bins = endpoint_bins(out);
        return ref;
    };
    run_batch(w, opt, o);
}

void
oc_node2vec_2shard(const Options &opt, Outcome &o)
{
    using Sharded = nw::shard::ShardedEngine<RecordedNode2Vec>;
    using Plain = nw::core::NosWalkerEngine<RecordedNode2Vec>;
    BatchWorkload w;
    w.length = 20;
    w.run_span = "shard.run";
    std::unique_ptr<Sharded> engine;
    Graph *graph = nullptr;
    const auto config = [&](Graph &g, unsigned shards) {
        nw::core::EngineConfig cfg =
            engine_config(g, opt.seed, g.file->file_bytes() / 4);
        cfg.num_shards = shards;
        cfg.step_threads = 1;
        return cfg;
    };
    const auto make_app = [&](WalkOutput &out) {
        return RecordedNode2Vec(
            nw::apps::Node2Vec(2.0, 0.5, w.length,
                               graph->file->num_vertices(), 4),
            out);
    };
    w.construct = [&](Graph &g) {
        graph = &g;
        w.walkers = 4ULL * g.file->num_vertices();
        const nw::core::EngineConfig cfg = config(g, 2);
        const std::int64_t t = now_ns();
        engine = std::make_unique<Sharded>(*g.file, *g.partition, cfg);
        return seconds_since(t);
    };
    w.destroy = [&] { engine.reset(); };
    w.run = [&](WalkOutput &out, Rep &rep) {
        RecordedNode2Vec app = make_app(out);
        nw::engine::RunStats s = engine->run(app, w.walkers);
        rep.rounds = engine->rounds();
        std::vector<double> cpu, loads;
        for (const nw::engine::RunStats &t : engine->shard_stats()) {
            cpu.push_back(t.cpu_seconds);
            loads.push_back(double(t.blocks_loaded + t.fine_loads));
        }
        rep.compute_imbalance = imbalance(cpu);
        rep.load_imbalance = imbalance(loads);
        const auto &x = engine->exchange_counters();
        rep.exchange_balanced = x.posted_records == x.delivered_records &&
                                x.posted_batches == x.delivered_batches;
        return s;
    };
    w.reference = [&](Graph &g, Checks &checks) {
        checks.expect(engine->num_shards() == 2, "not 2 shards");
        WalkOutput out;
        out.reset(w.walkers);
        RecordedNode2Vec app = make_app(out);
        nw::core::EngineConfig cfg = config(g, 1);
        cfg.presample = false;
        Plain plain(*g.file, *g.partition, cfg);
        plain.run(app, w.walkers);
        Reference ref;
        ref.digest = check_walks(out, *g.file, w.length).digest;
        ref.source = "the plain engine with pre-sampling off";
        return ref;
    };
    run_batch(w, opt, o);
}

// ---------------------------------------------------------------------------
// Service workload

/**
 * Request @p i of the mixed endpoint/path/top-k, 4-tenant stream of
 * bench/service_throughput, seeded by @p seed.  Starts are hashed
 * vertices that have out-edges: a dead-end start makes an empty
 * request, and how many fall on dead ends would otherwise vary with
 * the seed and move the latency median.
 */
nw::service::WalkRequest
request_at(std::uint64_t i, const nw::graph::GraphFile &file,
           std::uint64_t seed)
{
    nw::service::WalkRequest r;
    r.seed = mix64(seed ^ 0x737663ULL) + i;
    const auto start = [&](std::uint64_t j) {
        const VertexId v = file.num_vertices();
        auto s = static_cast<VertexId>(mix64(r.seed ^ (j << 56)) % v);
        while (file.degree(s) == 0) {
            s = (s + 1) % v;
        }
        return s;
    };
    r.tenant = i % 4;
    r.length = 8 + static_cast<std::uint32_t>(i % 9);
    switch (i % 3) {
    case 0:
        r.kind = nw::service::WalkKind::kEndpoints;
        r.starts = {start(0), start(1)};
        r.walks_per_start = 8;
        break;
    case 1:
        r.kind = nw::service::WalkKind::kPaths;
        r.starts = {start(0)};
        r.walks_per_start = 4;
        break;
    default:
        r.kind = nw::service::WalkKind::kVisitCounts;
        r.starts = {start(0)};
        r.walks_per_start = 16;
        r.top_k = 16;
        break;
    }
    return r;
}

/** Whether @p r has the payload shape @p q asks for. */
bool
payload_shape_ok(const nw::service::WalkRequest &q,
                 const nw::service::WalkResult &r,
                 const nw::graph::GraphFile &file)
{
    const VertexId v = file.num_vertices();
    const std::uint64_t walks = q.num_walks();
    switch (q.kind) {
    case nw::service::WalkKind::kEndpoints:
        return r.endpoints.size() == walks && r.paths.empty() &&
               std::all_of(r.endpoints.begin(), r.endpoints.end(),
                           [&](VertexId e) { return e < v; });
    case nw::service::WalkKind::kPaths:
        if (r.paths.size() != walks || !r.endpoints.empty()) {
            return false;
        }
        for (const auto &path : r.paths) {
            if (path.empty() || path.size() > q.length + 1 ||
                !std::all_of(path.begin(), path.end(),
                             [&](VertexId e) { return e < v; })) {
                return false;
            }
        }
        return true;
    case nw::service::WalkKind::kVisitCounts:
        // Only moves count as visits: a dead-end start visits nothing.
        if (r.top_visits.size() > q.top_k ||
            r.top_visits.empty() != (file.degree(q.starts[0]) == 0)) {
            return false;
        }
        for (std::size_t k = 0; k < r.top_visits.size(); ++k) {
            if (r.top_visits[k].first >= v ||
                (k > 0 && r.top_visits[k].second >
                              r.top_visits[k - 1].second)) {
                return false;
            }
        }
        return true;
    }
    return false;
}

/** Ordered hash of a result's payload. */
std::uint64_t
payload_hash(const nw::service::WalkResult &r)
{
    std::vector<std::uint64_t> words(r.endpoints.begin(), r.endpoints.end());
    for (const auto &path : r.paths) {
        words.push_back(hash_sequence(
            std::vector<std::uint64_t>(path.begin(), path.end())));
    }
    for (const auto &[vertex, visits] : r.top_visits) {
        words.push_back(vertex);
        words.push_back(visits);
    }
    return hash_sequence(words);
}

/** What one load phase measured. */
struct Phase {
    std::int64_t begin_ns = 0;
    double elapsed_s = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t completed_in_window = 0;
    /** Payload hash by request index (0 = not OK). */
    std::vector<std::uint64_t> payload;
    std::vector<double> latency_ms, modeled_ms, wait_ms, run_ms, submit_us;
    double late_max_ms = 0.0;
    double backlog_max = 0.0;
    double cpu_s = 0.0;
    nw::engine::RunStats stats;
    std::map<std::uint64_t, double> batch_run_s;
    nw::service::WalkService::Counters before, after;
    std::uint64_t span = 0;
};

/** One generator thread driving a WalkService. */
class Client {
  public:
    Client(nw::service::WalkService &svc, const nw::graph::GraphFile &file,
           std::uint64_t seed, Tracer &tracer, Checks &checks)
        : svc_(&svc), file_(&file), seed_(seed), tracer_(&tracer),
          checks_(&checks)
    {
    }

    /** Keep @p outstanding requests in flight for @p seconds. */
    Phase
    closed_loop(double seconds, std::size_t outstanding, const char *name)
    {
        Phase p = begin(name);
        std::uint64_t next = 0;
        for (std::size_t k = 0; k < outstanding; ++k) {
            submit(p, next++, now_ns());
        }
        std::int64_t last = p.begin_ns;
        while (!queue_.empty()) {
            Inflight f = std::move(queue_.front());
            queue_.pop_front();
            nw::service::WalkResult r = f.ticket.get();
            const std::int64_t done = now_ns();
            complete(p, f, r, done);
            if (1e-9 * double(done - p.begin_ns) < seconds) {
                ++p.completed_in_window;
                last = done;
                submit(p, next++, now_ns());
            }
        }
        p.elapsed_s = 1e-9 * double(last - p.begin_ns);
        return end(p);
    }

    /** Send at @p rate requests/s for @p seconds; latency counts from
     *  when each request was due. */
    Phase
    open_loop(double seconds, double rate, const char *name)
    {
        Phase p = begin(name);
        for (std::uint64_t i = 0;; ++i) {
            const std::int64_t due =
                p.begin_ns + static_cast<std::int64_t>(1e9 * double(i) / rate);
            if (1e-9 * double(due - p.begin_ns) >= seconds) {
                break;
            }
            for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
                if (queue_.empty()) {
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due - now));
                } else if (queue_.front().ticket.wait_for(1e-9 *
                                                          double(due - now))) {
                    pop_ready(p);
                }
            }
            p.backlog_max = std::max(
                p.backlog_max, double(svc_->submit_queue_depth() +
                                      svc_->batch_queue_depth()));
            p.late_max_ms =
                std::max(p.late_max_ms, 1e-6 * double(now_ns() - due));
            submit(p, i, due);
        }
        while (!queue_.empty()) {
            queue_.front().ticket.wait_for(3600.0);
            pop_ready(p);
        }
        p.elapsed_s = seconds_since(p.begin_ns);
        return end(p);
    }

  private:
    struct Inflight {
        std::uint64_t index = 0;
        nw::service::WalkRequest request;
        nw::service::WalkTicket ticket;
        std::int64_t due_ns = 0;
        std::uint64_t span = 0;
    };

    Phase
    begin(const char *name)
    {
        Phase p;
        p.span = tracer_->open();
        name_ = name;
        tracer_->set_io_parent(p.span);
        p.before = svc_->counters();
        p.cpu_s = process_cpu_seconds();
        p.begin_ns = now_ns();
        return p;
    }

    Phase &
    end(Phase &p)
    {
        p.cpu_s = process_cpu_seconds() - p.cpu_s;
        p.after = svc_->counters();
        tracer_->set_io_parent(0);
        tracer_->record(p.span, name_, 0, p.submitted, p.begin_ns, now_ns());
        return p;
    }

    void
    submit(Phase &p, std::uint64_t index, std::int64_t due)
    {
        Inflight f;
        f.index = index;
        f.request = request_at(index, *file_, seed_);
        f.due_ns = due;
        f.span = tracer_->open();
        const std::int64_t t = now_ns();
        f.ticket = svc_->submit(f.request);
        const std::int64_t t_end = now_ns();
        tracer_->record(tracer_->open(), "svc.submit", f.span, index, t,
                        t_end);
        p.submit_us.push_back(1e-3 * double(t_end - t));
        ++p.submitted;
        queue_.push_back(std::move(f));
    }

    /** Complete the front request and every one behind it already done. */
    void
    pop_ready(Phase &p)
    {
        const std::int64_t done = now_ns();
        while (!queue_.empty() && queue_.front().ticket.wait_for(0.0)) {
            Inflight f = std::move(queue_.front());
            queue_.pop_front();
            nw::service::WalkResult r = f.ticket.get();
            complete(p, f, r, done);
        }
    }

    void
    complete(Phase &p, const Inflight &f, const nw::service::WalkResult &r,
             std::int64_t done)
    {
        tracer_->record(f.span, "svc.request", p.span, f.index, f.due_ns,
                        done);
        if (p.payload.size() <= f.index) {
            p.payload.resize(f.index + 1, 0);
        }
        ++checks_->attempted;
        const bool ok = r.ok() && payload_shape_ok(f.request, r, *file_);
        if (!ok) {
            ++checks_->failed;
            checks_->expect(false, std::string(name_) + " request " +
                                       std::to_string(f.index) + ": " +
                                       nw::service::to_string(r.status) +
                                       (r.ok() ? " with a bad payload" : ""));
            return;
        }
        p.payload[f.index] = payload_hash(r) | 1;
        p.latency_ms.push_back(1e-6 * double(done - f.due_ns));
        p.modeled_ms.push_back(1e3 * r.modeled_latency_seconds);
        p.wait_ms.push_back(1e3 * r.wait_seconds);
        p.run_ms.push_back(1e3 * r.run_seconds);
        p.stats += r.stats;
        p.batch_run_s[r.batch_id] = r.run_seconds;
    }

    nw::service::WalkService *svc_;
    const nw::graph::GraphFile *file_;
    std::uint64_t seed_;
    Tracer *tracer_;
    Checks *checks_;
    const char *name_ = "";
    std::deque<Inflight> queue_;
};

/** Requests that both phases served must carry identical payloads. */
void
compare_payloads(const Phase &a, const Phase &b, Checks &checks,
                 const std::string &what)
{
    const std::size_t n = std::min(a.payload.size(), b.payload.size());
    Digest da, db;
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (a.payload[i] != 0 && b.payload[i] != 0) {
            da.add(i, a.payload[i]);
            db.add(i, b.payload[i]);
            mismatched += a.payload[i] != b.payload[i] ? 1 : 0;
        }
    }
    checks.failed += mismatched;
    checks.expect(da == db && mismatched == 0,
                  what + ": " + std::to_string(mismatched) +
                      " payloads depend on batching");
}

/** Closed-loop outstanding requests (two full batches). */
constexpr std::size_t kOutstanding = 16;
/** Open-loop arrival rate, well under the closed-loop capacity. */
constexpr double kOpenRate = 200.0;
/** Share of the window spent in the closed loop. */
constexpr double kClosedShare = 0.2;
/** Untimed closed-loop warm-up: fills the block cache and lets the
 *  service's allocations settle before the measured phases. */
constexpr double kWarmupSeconds = 1.0;

void
svc(const Options &opt, Outcome &o)
{
    Tracer tracer;
    tracer.set_enabled(opt.trace);
    std::vector<SetupTimes> setups;
    std::unique_ptr<Graph> g;
    std::unique_ptr<nw::service::WalkService> service;
    for (int k = 0; k < kSetups; ++k) {
        service.reset();
        SetupTimes t;
        g = build_graph(opt.seed, tracer, t);
        nw::service::ServiceConfig cfg;
        cfg.num_workers = 1;
        cfg.max_batch = 8;
        cfg.batch_window_seconds = 0.001;
        cfg.cache_bytes = g->file->file_bytes() / 4;
        cfg.memory_budget = cfg.cache_bytes + (16ULL << 20);
        cfg.block_bytes = g->partition->max_block_bytes();
        const std::int64_t c0 = now_ns();
        {
            ScopedSpan span(tracer, "core.construct");
            service = std::make_unique<nw::service::WalkService>(
                *g->file, *g->partition, cfg);
        }
        t.construct_s = seconds_since(c0);
        setups.push_back(t);
    }
    tracer.set_enabled(false);
    std::vector<double> setup_totals, constructs;
    for (const SetupTimes &t : setups) {
        setup_totals.push_back(t.total());
        constructs.push_back(t.construct_s);
    }

    Client client(*service, *g->file, opt.seed, tracer, o.checks);
    const Phase warm = client.closed_loop(kWarmupSeconds, kOutstanding,
                                          "svc.warmup");
    const double closed_s = kClosedShare * opt.seconds;
    const double open_s = opt.seconds - closed_s;
    const Phase closed =
        client.closed_loop(closed_s, kOutstanding, "svc.closed");
    const Phase open = client.open_loop(open_s, kOpenRate, "svc.open");
    compare_payloads(closed, open, o.checks, "closed vs open");
    compare_payloads(warm, closed, o.checks, "warm-up vs closed");

    const double steps = std::max<double>(1.0, double(closed.stats.steps));
    o.e2e.set("steps_per_s", steps / closed.elapsed_s);
    o.e2e.set("steps_per_cpu_s", steps / closed.cpu_s);
    o.e2e.set("modeled_steps_per_s", steps / closed.stats.modeled_seconds());
    o.e2e.set("io_bytes_per_step", closed.stats.graph_bytes_read / steps);
    o.e2e.set("peak_mem_bytes", double(service->counters().budget_peak));
    o.e2e.set("setup_s", median(setup_totals));
    o.e2e.set("svc_capacity_rps",
              double(closed.completed_in_window) / closed.elapsed_s);
    o.e2e.set("svc_p50_ms", median(open.latency_ms));
    std::printf("closed loop: %llu requests in %.2f s; open loop: %llu "
                "requests at %.0f/s, %zu latency samples, generator late "
                "by at most %.3f ms\n",
                static_cast<unsigned long long>(closed.completed_in_window),
                closed.elapsed_s,
                static_cast<unsigned long long>(open.submitted), kOpenRate,
                open.latency_ms.size(), open.late_max_ms);
    std::printf("setup_s runs:");
    for (const double s : setup_totals) {
        std::printf(" %.3f", s);
    }
    std::printf("\n");

    if (opt.trace) {
        tracer.set_enabled(true);
        const Phase tc =
            client.closed_loop(closed_s, kOutstanding, "svc.closed");
        const Phase to = client.open_loop(open_s, kOpenRate, "svc.open");
        tracer.set_enabled(false);
        compare_payloads(tc, to, o.checks, "traced closed vs open");
        compare_payloads(closed, tc, o.checks, "untraced vs traced");
        o.spans = tracer.spans();

        double run_s = 0.0;
        for (const auto &[batch, seconds] : tc.batch_run_s) {
            run_s += seconds;
        }
        core_layer(o.layer, tc.stats, run_s, median(constructs));
        graph_layer(o.layer, setups);
        storage_layer(o.layer, o.spans, {tc.span});
        proc_layer(o.layer, tc.cpu_s + to.cpu_s, tc.elapsed_s + to.elapsed_s);
        const auto delta = [](const Phase &p, auto field) {
            return double(p.after.*field - p.before.*field);
        };
        using C = nw::service::WalkService::Counters;
        // Host stalls swing the open-loop tail by 2x between runs, so
        // the p99s are layer diagnostics here, not bounded end-to-end
        // metrics.
        o.layer.set("svc.p99_ms", chunked_p99(to.latency_ms));
        o.layer.set("svc.modeled_p99_ms", chunked_p99(to.modeled_ms));
        o.layer.set("svc.submit_us_p99",
                    tail_percentile(to.submit_us, 0.99).value);
        o.layer.set("svc.queue_wait_ms_p50", median(to.wait_ms));
        o.layer.set("svc.queue_wait_ms_p99",
                    tail_percentile(to.wait_ms, 0.99).value);
        o.layer.set("svc.run_ms_p50", median(to.run_ms));
        o.layer.set("svc.run_ms_p99", tail_percentile(to.run_ms, 0.99).value);
        o.layer.set("svc.batch_size_mean", delta(tc, &C::completed) /
                                               delta(tc, &C::batches));
        o.layer.set("svc.open_batch_size_mean", delta(to, &C::completed) /
                                                    delta(to, &C::batches));
        o.layer.set("svc.coalesced_share", delta(tc, &C::coalesced_requests) /
                                               delta(tc, &C::completed));
        const double hits = delta(tc, &C::cache_hits);
        o.layer.set("svc.cache_hit_ratio",
                    hits / std::max(1.0, hits + delta(tc, &C::cache_misses)));
        o.layer.set("svc.backlog_max", to.backlog_max);
        o.layer.set("svc.gen_late_ms_max", to.late_max_ms);
        const C c = service->counters();
        o.layer.set("svc.rejected", double(c.rejected_queue_full +
                                           c.rejected_tenant_queue +
                                           c.rejected_budget));
        o.layer.set("svc.expired", double(c.expired));
        o.layer.set("svc.failed", double(c.failed));
        o.layer.set("trace.overhead_share",
                    (double(closed.completed_in_window) / closed.elapsed_s) /
                            (double(tc.completed_in_window) / tc.elapsed_s) -
                        1.0);
    }
    service->stop();
}

// ---------------------------------------------------------------------------

const std::map<std::string, void (*)(const Options &, Outcome &)>
    kWorkloads = {
        {"oc-basic", oc_basic},
        {"oc-node2vec-2shard", oc_node2vec_2shard},
        {"svc", svc},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: walkbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "       walkbench --list-metrics\n");
    return 2;
}

int
main_impl(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            for (const MetricDef &d : kEndToEnd) {
                std::printf("end_to_end %s %s\n", d.name, d.unit);
            }
            for (const MetricDef &d : kPerLayer) {
                std::printf("per_layer %s %s\n", d.name, d.unit);
            }
            return 0;
        }
        if (i + 1 >= argc) {
            return usage();
        }
        const std::string val = argv[++i];
        if (a == "--workload") {
            opt.workload = val;
        } else if (a == "--seed") {
            opt.seed = std::stoull(val);
        } else if (a == "--seconds") {
            opt.seconds = std::stod(val);
        } else if (a == "--trace") {
            opt.trace = val == "1";
        } else {
            return usage();
        }
    }
    const auto it = kWorkloads.find(opt.workload);
    if (it == kWorkloads.end() || !(opt.seconds > 0.0)) {
        return usage();
    }

    std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    Outcome o;
    it->second(opt, o);

    const double ok =
        o.checks.attempted > 0
            ? 1.0 - double(o.checks.failed) / double(o.checks.attempted)
            : 0.0;
    o.e2e.set("ok_share", ok);
    for (const std::string &p : o.checks.problems) {
        std::printf("CHECK FAILED: %s\n", p.c_str());
    }
    if (opt.trace) {
        std::filesystem::create_directories(kTraceDir);
        const std::string path = std::string(kTraceDir) + "/" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".json";
        if (!write_chrome_trace(path, o.spans)) {
            throw std::runtime_error("cannot write " + path);
        }
        std::printf("%zu spans written to %s\n", o.spans.size(),
                    path.c_str());
    }
    const std::vector<Metric> metrics = opt.trace ? o.layer.all()
                                                  : o.e2e.all();
    for (const Metric &m : metrics) {
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("%s\n",
                result_json(o.checks.problems.empty(),
                            std::max<std::uint64_t>(1, o.checks.attempted),
                            o.checks.failed, metrics)
                    .c_str());
    return 0;
}

} // namespace
} // namespace walkbench

int
main(int argc, char **argv)
{
    try {
        return walkbench::main_impl(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "walkbench: %s\n", e.what());
        return 1;
    }
}
