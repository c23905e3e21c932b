#include "service/traffic_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace noswalker::service {

namespace {

/** Pick one element of a small literal set. */
template <typename T>
T
pick(util::Rng &rng, std::initializer_list<T> values)
{
    return values.begin()[rng.next_index(values.size())];
}

bool
close_enough(double a, double b)
{
    const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    return std::fabs(a - b) <= 1e-9 * scale;
}

} // namespace

TrafficModel::TrafficModel(const graph::GraphFile &file,
                           const graph::BlockPartition &partition)
    : TrafficModel(file, partition, Options())
{
}

TrafficModel::TrafficModel(const graph::GraphFile &file,
                           const graph::BlockPartition &partition,
                           Options options)
    : file_(&file), partition_(&partition), options_(options)
{
}

TrafficEpisode
TrafficModel::make_episode(std::uint64_t seed) const
{
    util::Rng rng(util::derive_stream(0x7ea4'f1c5'0bad'5eedULL, seed));

    TrafficEpisode ep;
    ep.seed = seed;

    // --- Knob permutation -------------------------------------------------
    ServiceConfig &cfg = ep.config;
    cfg.num_workers = pick(rng, {1u, 2u, 3u});
    cfg.max_batch = pick<std::size_t>(rng, {1, 4, 8});
    cfg.batch_window_seconds = pick(rng, {0.0, 0.0005, 0.002});
    cfg.max_queue = pick<std::size_t>(rng, {4, 16, 256});
    cfg.tenant_max_queue = pick<std::size_t>(rng, {0, 2, 6});
    cfg.step_threads = pick(rng, {1u, 2u});
    cfg.num_shards = pick(rng, {1u, 1u, 2u});
    cfg.prefetch_depth = pick(rng, {1u, 2u});
    cfg.queue_over_budget = rng.next_bool(0.5);
    // Fast-failing budget waits keep adversarial episodes short.
    cfg.budget_wait_seconds = 0.005;
    cfg.budget_retry_limit = 2;
    cfg.block_bytes = partition_->max_block_bytes();

    // Budget modes: unlimited, generous (everything fits with room to
    // queue), tight (giants starve it, sharded floors can reject).
    const std::uint64_t floor =
        WalkService::min_run_footprint(*file_, *partition_,
                                       cfg.num_shards);
    switch (rng.next_index(3)) {
    case 0:
        cfg.memory_budget = 0;
        break;
    case 1:
        cfg.memory_budget =
            floor * cfg.num_workers + (8ULL << 20) +
            rng.next_index(4ULL << 20);
        break;
    default:
        cfg.memory_budget = floor + (64ULL << 10) +
                            rng.next_index(2ULL << 20);
        break;
    }
    if (cfg.memory_budget != 0) {
        cfg.cache_bytes =
            rng.next_bool(0.5) ? cfg.memory_budget / 8 : 0;
    } else {
        cfg.cache_bytes = rng.next_bool(0.5) ? (1ULL << 20) : 0;
    }

    ep.num_clients = 1 + static_cast<unsigned>(rng.next_index(3));

    // --- Event script -----------------------------------------------------
    const std::size_t count =
        options_.min_requests +
        rng.next_index(options_.max_requests - options_.min_requests + 1);
    const graph::VertexId v = file_->num_vertices();

    ep.events.reserve(count + 1);
    for (std::size_t i = 0; i < count; ++i) {
        TrafficEvent ev;
        ev.client = static_cast<unsigned>(rng.next_index(ep.num_clients));
        WalkRequest &r = ev.request;
        r.seed = util::derive_stream(seed, 0x1000 + i);
        // Tenant skew: tenant 0 is hot (half the traffic), the rest of
        // the load spreads over three cold tenants.
        r.tenant = rng.next_bool(0.5) ? 0 : 1 + rng.next_index(3);
        r.priority = static_cast<std::int32_t>(rng.next_index(3)) - 1;
        switch (rng.next_index(3)) {
        case 0:
            r.kind = WalkKind::kEndpoints;
            break;
        case 1:
            r.kind = WalkKind::kPaths;
            break;
        default:
            r.kind = WalkKind::kVisitCounts;
            r.top_k = 4 + static_cast<std::uint32_t>(rng.next_index(12));
            break;
        }
        if (rng.next_bool(options_.malformed_probability)) {
            // Malformed: fails validation, lands kFailed — still a
            // terminal status the conservation sweep must account for.
            if (rng.next_bool(0.5)) {
                r.starts.clear();
            } else {
                r.starts = {v + 7};
            }
            r.walks_per_start = 1;
            r.length = 4;
        } else if (rng.next_bool(options_.giant_probability)) {
            // Budget-starving giant: a paths request whose result
            // buffer estimate rivals the tight budget mode.
            r.kind = WalkKind::kPaths;
            const std::size_t starts =
                32 + rng.next_index(std::uint64_t{96});
            r.starts.reserve(starts);
            for (std::size_t s = 0; s < starts; ++s) {
                r.starts.push_back(
                    static_cast<graph::VertexId>(rng.next_index(v)));
            }
            r.walks_per_start =
                8 + static_cast<std::uint32_t>(rng.next_index(24));
            r.length =
                32 + static_cast<std::uint32_t>(rng.next_index(64));
        } else {
            const std::size_t starts = 1 + rng.next_index(4);
            r.starts.reserve(starts);
            for (std::size_t s = 0; s < starts; ++s) {
                r.starts.push_back(
                    static_cast<graph::VertexId>(rng.next_index(v)));
            }
            r.walks_per_start =
                1 + static_cast<std::uint32_t>(rng.next_index(8));
            r.length =
                2 + static_cast<std::uint32_t>(rng.next_index(14));
        }
        if (rng.next_bool(options_.tight_deadline_probability)) {
            // 10 µs – 1 ms: expires while queued, while blocked on the
            // budget, or not at all — all three paths get exercised.
            r.deadline_seconds =
                1e-5 * static_cast<double>(1 + rng.next_index(100));
        }
        ep.events.push_back(std::move(ev));
    }

    if (rng.next_bool(options_.stop_probability) && ep.events.size() > 2) {
        TrafficEvent stop;
        stop.kind = TrafficEvent::Kind::kStop;
        stop.client =
            static_cast<unsigned>(rng.next_index(ep.num_clients));
        const std::size_t at = 1 + rng.next_index(ep.events.size() - 1);
        ep.events.insert(
            ep.events.begin() + static_cast<std::ptrdiff_t>(at),
            std::move(stop));
        ep.stops_mid_flight = true;
    }
    return ep;
}

EpisodeReport
TrafficModel::run_episode(std::uint64_t seed) const
{
    return run_episode(make_episode(seed));
}

EpisodeReport
TrafficModel::run_episode(const TrafficEpisode &episode) const
{
    EpisodeReport report;
    report.seed = episode.seed;
    report.stopped_mid_flight = episode.stops_mid_flight;

    WalkService service(*file_, *partition_, episode.config);

    // Each client thread plays its slice of the script in order;
    // cross-client interleaving is the adversarial part and is free to
    // vary — every invariant below is interleaving-independent.
    std::vector<std::vector<const TrafficEvent *>> scripts(
        episode.num_clients);
    for (const TrafficEvent &ev : episode.events) {
        scripts[ev.client % episode.num_clients].push_back(&ev);
    }

    std::mutex ticket_mutex;
    std::vector<WalkTicket> tickets;
    tickets.reserve(episode.events.size());

    std::vector<std::thread> clients;
    clients.reserve(scripts.size());
    for (const auto &script : scripts) {
        clients.emplace_back([&service, &script, &ticket_mutex,
                              &tickets] {
            for (const TrafficEvent *ev : script) {
                if (ev->kind == TrafficEvent::Kind::kStop) {
                    service.stop();
                    continue;
                }
                WalkTicket ticket = service.submit(ev->request);
                std::lock_guard lock(ticket_mutex);
                tickets.push_back(std::move(ticket));
            }
        });
    }
    for (std::thread &client : clients) {
        client.join();
    }
    service.stop();

    // Invariant: every submitted request reaches exactly one terminal
    // status — no future may be left hanging after stop().
    for (WalkTicket &ticket : tickets) {
        ++report.submitted;
        if (!ticket.wait_for(options_.ticket_timeout_seconds)) {
            report.violations.push_back(
                "request " + std::to_string(ticket.id()) +
                " never reached a terminal status");
            continue;
        }
        const WalkResult result = ticket.get();
        if (result.ok()) {
            ++report.ok;
        } else {
            ++report.not_ok;
        }
    }

    const auto sweep = check_invariants(service);
    report.violations.insert(report.violations.end(), sweep.begin(),
                             sweep.end());
    if (service.counters().submitted != report.submitted) {
        report.violations.push_back(
            "submitted counter " +
            std::to_string(service.counters().submitted) +
            " != tickets issued " + std::to_string(report.submitted));
    }
    return report;
}

std::vector<std::string>
TrafficModel::check_invariants(const WalkService &service)
{
    std::vector<std::string> violations;

    // 1. The shared budget drains to exactly zero: every reservation
    //    (result buffers, engine pools, cache entries) was returned.
    if (const std::uint64_t used = service.budget().used(); used != 0) {
        violations.push_back("memory budget left non-zero: " +
                             std::to_string(used) + " bytes");
    }

    // 2. Terminal conservation: the terminal counters partition the
    //    submissions — every request got exactly one outcome.
    const WalkService::Counters c = service.counters();
    const std::uint64_t terminal =
        c.completed + c.failed + c.rejected_queue_full +
        c.rejected_tenant_queue + c.rejected_budget + c.expired +
        c.shutdown_dropped;
    if (terminal != c.submitted) {
        violations.push_back(
            "terminal statuses (" + std::to_string(terminal) +
            ") != submitted (" + std::to_string(c.submitted) + ")");
    }

    // 3. Per-tenant stats conserve: summing every tenant's aggregate
    //    reproduces the service-wide aggregate.
    engine::RunStats tenant_sum;
    for (const auto &[tenant, stats] : service.all_tenant_stats()) {
        tenant_sum += stats;
    }
    const engine::RunStats total = service.aggregate_stats();
    const auto check_u64 = [&](const char *name, std::uint64_t a,
                               std::uint64_t b) {
        if (a != b) {
            violations.push_back(
                std::string("tenant-sum ") + name + " (" +
                std::to_string(a) + ") != aggregate (" +
                std::to_string(b) + ")");
        }
    };
    check_u64("walkers", tenant_sum.walkers, total.walkers);
    check_u64("steps", tenant_sum.steps, total.steps);
    check_u64("graph_bytes_read", tenant_sum.graph_bytes_read,
              total.graph_bytes_read);
    check_u64("blocks_loaded", tenant_sum.blocks_loaded,
              total.blocks_loaded);
    check_u64("migrations", tenant_sum.migrations, total.migrations);
    check_u64("peak_memory", tenant_sum.peak_memory, total.peak_memory);
    const auto check_dbl = [&](const char *name, double a, double b) {
        if (!close_enough(a, b)) {
            violations.push_back(std::string("tenant-sum ") + name +
                                 " (" + std::to_string(a) +
                                 ") != aggregate (" + std::to_string(b) +
                                 ")");
        }
    };
    check_dbl("cpu_seconds", tenant_sum.cpu_seconds, total.cpu_seconds);
    check_dbl("io_busy_seconds", tenant_sum.io_busy_seconds,
              total.io_busy_seconds);
    check_dbl("io_wait_seconds", tenant_sum.io_wait_seconds,
              total.io_wait_seconds);

    // 4. Nothing left in the pipeline after close.
    if (const std::size_t depth = service.submit_queue_depth();
        depth != 0) {
        violations.push_back("submission queue left non-empty: " +
                             std::to_string(depth));
    }
    if (const std::size_t depth = service.batch_queue_depth();
        depth != 0) {
        violations.push_back("batch queue left non-empty: " +
                             std::to_string(depth));
    }
    return violations;
}

std::string
TrafficModel::describe(const TrafficEpisode &episode)
{
    std::ostringstream out;
    const ServiceConfig &cfg = episode.config;
    out << "episode seed=" << episode.seed
        << " workers=" << cfg.num_workers
        << " max_batch=" << cfg.max_batch
        << " window=" << cfg.batch_window_seconds
        << " max_queue=" << cfg.max_queue
        << " tenant_max_queue=" << cfg.tenant_max_queue
        << " step_threads=" << cfg.step_threads
        << " shards=" << cfg.num_shards
        << " prefetch_depth=" << cfg.prefetch_depth
        << " budget=" << cfg.memory_budget
        << " cache=" << cfg.cache_bytes
        << " queue_over_budget=" << cfg.queue_over_budget
        << " clients=" << episode.num_clients << "\n";
    for (const TrafficEvent &ev : episode.events) {
        if (ev.kind == TrafficEvent::Kind::kStop) {
            out << "client " << ev.client << ": stop\n";
            continue;
        }
        const WalkRequest &r = ev.request;
        out << "client " << ev.client << ": submit kind="
            << static_cast<int>(r.kind) << " tenant=" << r.tenant
            << " seed=" << r.seed << " starts=[";
        for (std::size_t i = 0; i < r.starts.size(); ++i) {
            out << (i ? "," : "") << r.starts[i];
        }
        out << "] walks=" << r.walks_per_start << " len=" << r.length
            << " prio=" << r.priority << " deadline="
            << r.deadline_seconds << " top_k=" << r.top_k << "\n";
    }
    return out.str();
}

} // namespace noswalker::service
