/**
 * @file
 * Walk service throughput/latency sweep (the serving-layer companion
 * to the engine figures): a closed-loop client fires a fixed pool of
 * walk requests at a WalkService over the K30' twin and reports
 * requests/second, request latency p50/p99 and graph bytes read per
 * step across worker counts and coalescing batch sizes.
 *
 * Request latency here is *not* modeled end to end: it is the
 * request's measured queue wait (wall clock, submission to dispatch)
 * plus the modeled run time of the coalesced batch serving it (SSD
 * cost model + measured CPU, DESIGN.md §2).  On a closed loop the
 * queue wait dominates and moves with host load, hence the
 * "wait+run" column names.  B/step is graph bytes read per step,
 * summed over the requests' cost slices.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/walk_service.hpp"
#include "util/timer.hpp"

namespace noswalker::bench {
namespace {

/** The closed-loop request pool: a mixed endpoint/path/top-k workload. */
std::vector<service::WalkRequest>
make_workload(const GraphHandle &handle, std::size_t count)
{
    const graph::VertexId v = handle.file->num_vertices();
    std::vector<service::WalkRequest> requests;
    requests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        service::WalkRequest r;
        r.seed = 10'000 + i;
        r.tenant = i % 4;
        r.length = 8 + static_cast<std::uint32_t>(i % 9);
        switch (i % 3) {
        case 0:
            r.kind = service::WalkKind::kEndpoints;
            r.starts = {static_cast<graph::VertexId>((17 * i + 1) % v),
                        static_cast<graph::VertexId>((31 * i + 5) % v)};
            r.walks_per_start = 8;
            break;
        case 1:
            r.kind = service::WalkKind::kPaths;
            r.starts = {static_cast<graph::VertexId>((13 * i + 3) % v)};
            r.walks_per_start = 4;
            break;
        default:
            r.kind = service::WalkKind::kVisitCounts;
            r.starts = {static_cast<graph::VertexId>((7 * i + 11) % v)};
            r.walks_per_start = 16;
            r.top_k = 16;
            break;
        }
        requests.push_back(std::move(r));
    }
    return requests;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty()) {
        return 0.0;
    }
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

struct SweepPoint {
    unsigned workers;
    std::size_t max_batch;
    unsigned shards = 1;
    double wall_seconds = 0.0;
    double requests_per_second = 0.0;
    /** Request latency quantiles: measured queue wait + modeled run. */
    double p50 = 0.0;
    double p99 = 0.0;
    /** Graph bytes read per step over every served request. */
    double io_bytes_per_step = 0.0;
    std::uint64_t batches = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t steps = 0;
    double io_busy_seconds = 0.0;
    double cpu_seconds = 0.0;
    std::uint64_t peak_memory = 0;
    /** p99 across per-shard modeled seconds, one sample per shard per
     *  sharded batch run (0 on single-engine points). */
    double shard_p99 = 0.0;
};

SweepPoint
run_point(BenchEnv &env, GraphHandle &handle, unsigned workers,
          std::size_t max_batch, unsigned shards,
          const std::vector<service::WalkRequest> &workload)
{
    service::ServiceConfig cfg;
    cfg.num_workers = workers;
    cfg.max_batch = max_batch;
    cfg.num_shards = shards;
    cfg.batch_window_seconds = max_batch > 1 ? 0.001 : 0.0;
    // Every shard engine holds its own block buffers and walker pool
    // (and the index slice of its blocks), so the budget scales with
    // both workers and shards.
    cfg.memory_budget =
        env.budget_for(handle) * workers * shards + (16ULL << 20);
    cfg.cache_bytes = cfg.memory_budget / 4;
    cfg.block_bytes = handle.partition->max_block_bytes();

    SweepPoint point;
    point.workers = workers;
    point.max_batch = max_batch;
    point.shards = shards;

    service::WalkService svc(*handle.file, *handle.partition, cfg);
    util::Timer wall;
    std::vector<service::WalkTicket> tickets;
    tickets.reserve(workload.size());
    for (const service::WalkRequest &request : workload) {
        tickets.push_back(svc.submit(request));
    }
    std::vector<double> latencies;
    latencies.reserve(tickets.size());
    std::uint64_t ok = 0;
    std::uint64_t io_bytes = 0;
    for (service::WalkTicket &ticket : tickets) {
        service::WalkResult result = ticket.get();
        if (result.ok()) {
            ++ok;
            latencies.push_back(result.modeled_latency_seconds);
            point.steps += result.stats.steps;
            io_bytes += result.stats.total_io_bytes();
            point.io_busy_seconds += result.stats.io_busy_seconds;
            point.cpu_seconds += result.stats.cpu_seconds;
            point.peak_memory =
                std::max(point.peak_memory, result.stats.peak_memory);
        }
    }
    point.wall_seconds = wall.seconds();
    point.requests_per_second =
        static_cast<double>(ok) / point.wall_seconds;
    point.p50 = percentile(latencies, 0.50);
    point.p99 = percentile(latencies, 0.99);
    point.io_bytes_per_step =
        point.steps > 0 ? static_cast<double>(io_bytes) /
                              static_cast<double>(point.steps)
                        : 0.0;
    const auto counters = svc.counters();
    point.batches = counters.batches;
    point.cache_hits = counters.cache_hits;
    point.shard_p99 = percentile(svc.shard_modeled_samples(), 0.99);
    return point;
}

} // namespace
} // namespace noswalker::bench

int
main(int argc, char **argv)
{
    using namespace noswalker;
    using namespace noswalker::bench;

    JsonReporter json = JsonReporter::from_args(argc, argv);
    // --slo-p99 <seconds>: gate the sweep on tail request latency
    // (measured queue wait + modeled batch run, as the p99 column).
    // Any point whose p99 exceeds the threshold fails the run (exit 1),
    // so CI can hold the serving layer to a latency objective the same
    // way it holds correctness to the test suite.
    double slo_p99 = 0.0;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--slo-p99") {
            slo_p99 = std::strtod(argv[i + 1], nullptr);
            if (slo_p99 <= 0.0) {
                std::fprintf(stderr,
                             "--slo-p99 needs a positive threshold "
                             "in seconds, got %s\n",
                             argv[i + 1]);
                return 2;
            }
        }
    }
    BenchEnv env;
    GraphHandle &handle = env.get(graph::DatasetId::kKron30);
    std::printf("walk service throughput on %s (scale %u): "
                "%llu vertices, %llu edges\n\n",
                handle.spec.name.c_str(), env.scale(),
                static_cast<unsigned long long>(
                    handle.file->num_vertices()),
                static_cast<unsigned long long>(
                    handle.reference.num_edges()));

    const std::size_t kRequests = 96;
    const auto workload = make_workload(handle, kRequests);
    std::vector<std::string> slo_violations;

    print_table_header(
        "Closed-loop sweep (" + std::to_string(kRequests) + " requests)",
        {"workers", "max_batch", "shards", "req/s", "req/s/shard",
         "p50 wait+run", "p99 wait+run", "shard p99(s)", "batches",
         "cache hits", "steps", "B/step"});
    for (const unsigned workers : {1u, 2u, 4u}) {
        for (const std::size_t max_batch : {std::size_t{1}, std::size_t{8}}) {
            // Sharded backends only pay off for large coalesced runs;
            // sweep them at the batched point to keep the grid small.
            const std::vector<unsigned> shard_counts =
                max_batch > 1 ? std::vector<unsigned>{1u, 2u}
                              : std::vector<unsigned>{1u};
            for (const unsigned shards : shard_counts) {
                const SweepPoint p = run_point(env, handle, workers,
                                               max_batch, shards,
                                               workload);
                const double per_shard =
                    p.requests_per_second /
                    static_cast<double>(p.shards);
                print_table_row({std::to_string(p.workers),
                                 std::to_string(p.max_batch),
                                 std::to_string(p.shards),
                                 fmt_double(p.requests_per_second, 1),
                                 fmt_double(per_shard, 1),
                                 fmt_double(p.p50, 4),
                                 fmt_double(p.p99, 4),
                                 fmt_double(p.shard_p99, 4),
                                 fmt_count(p.batches),
                                 fmt_count(p.cache_hits),
                                 fmt_count(p.steps),
                                 fmt_double(p.io_bytes_per_step, 1)});
                JsonRecord r;
                r.engine = "WalkService";
                r.dataset = handle.spec.name;
                r.workload = "workers=" + std::to_string(p.workers) +
                             ",max_batch=" + std::to_string(p.max_batch) +
                             ",shards=" + std::to_string(p.shards);
                r.steps = p.steps;
                r.steps_per_second = p.wall_seconds > 0.0
                                         ? static_cast<double>(p.steps) /
                                               p.wall_seconds
                                         : 0.0;
                r.io_busy_seconds = p.io_busy_seconds;
                r.cpu_seconds = p.cpu_seconds;
                r.peak_memory = p.peak_memory;
                r.extras.emplace_back("requests_per_second",
                                      p.requests_per_second);
                r.extras.emplace_back("num_shards",
                                      static_cast<double>(p.shards));
                r.extras.emplace_back("req_per_shard_per_second",
                                      per_shard);
                r.extras.emplace_back("p50_latency_seconds", p.p50);
                r.extras.emplace_back("p99_latency_seconds", p.p99);
                r.extras.emplace_back("shard_p99_modeled_seconds",
                                      p.shard_p99);
                r.extras.emplace_back("io_bytes_per_step",
                                      p.io_bytes_per_step);
                json.add(std::move(r));
                if (slo_p99 > 0.0 && p.p99 > slo_p99) {
                    slo_violations.push_back(
                        "workers=" + std::to_string(p.workers) +
                        " max_batch=" + std::to_string(p.max_batch) +
                        " shards=" + std::to_string(p.shards) +
                        " p99=" + fmt_double(p.p99, 4) + "s");
                }
            }
        }
    }
    std::printf("\nwait+run: request latency in seconds, measured queue "
                "wait + modeled batch run (not modeled end to end).\n");
    std::printf("batching trades per-request latency for shared block "
                "loads; extra workers raise throughput until the shared "
                "budget (or the device) saturates.\n");
    if (slo_p99 > 0.0) {
        if (!slo_violations.empty()) {
            std::fprintf(stderr,
                         "\nSLO VIOLATION: %zu sweep point(s) exceed "
                         "the p99 latency objective (queue wait + "
                         "modeled run) of %.4fs:\n",
                         slo_violations.size(), slo_p99);
            for (const std::string &v : slo_violations) {
                std::fprintf(stderr, "  %s\n", v.c_str());
            }
            return 1;
        }
        std::printf("\nall sweep points meet the p99 latency objective "
                    "(queue wait + modeled run) of %.4fs.\n",
                    slo_p99);
    }
    return 0;
}
