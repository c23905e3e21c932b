/**
 * @file
 * Walk service tests: per-request determinism independent of worker
 * count and batching, admission control, request coalescing, deadline
 * and shutdown handling, and per-tenant accounting.
 */
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "service/walk_service.hpp"
#include "storage/mem_device.hpp"

namespace noswalker::service {
namespace {

struct Fixture {
    graph::CsrGraph graph;
    storage::MemDevice device;
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;

    Fixture(graph::CsrGraph g, std::uint64_t block_bytes,
            bool with_alias = false)
        : graph(std::move(g))
    {
        graph::GraphFile::write(graph, device, with_alias);
        file = std::make_unique<graph::GraphFile>(device);
        partition =
            std::make_unique<graph::BlockPartition>(*file, block_bytes);
    }
};

graph::CsrGraph
skewed_graph()
{
    return graph::generate_rmat({.scale = 9,
                                 .edge_factor = 8,
                                 .a = 0.57,
                                 .b = 0.19,
                                 .c = 0.19,
                                 .seed = 21,
                                 .symmetrize = false,
                                 .weighted = false});
}

/** A mixed workload exercising every request kind. */
std::vector<WalkRequest>
canned_requests(graph::VertexId num_vertices)
{
    std::vector<WalkRequest> requests;
    for (int i = 0; i < 12; ++i) {
        WalkRequest r;
        r.seed = 1000 + 37 * static_cast<std::uint64_t>(i);
        r.length = 6 + static_cast<std::uint32_t>(i % 5);
        r.tenant = static_cast<std::uint64_t>(i % 2);
        switch (i % 3) {
        case 0:
            r.kind = WalkKind::kEndpoints;
            r.starts = {static_cast<graph::VertexId>((1 + i) %
                                                     num_vertices),
                        static_cast<graph::VertexId>((7 + 3 * i) %
                                                     num_vertices)};
            r.walks_per_start = 3;
            break;
        case 1:
            r.kind = WalkKind::kPaths;
            r.starts = {static_cast<graph::VertexId>((5 + 11 * i) %
                                                     num_vertices)};
            r.walks_per_start = 2;
            break;
        default:
            r.kind = WalkKind::kVisitCounts;
            r.starts = {static_cast<graph::VertexId>((13 * i) %
                                                     num_vertices)};
            r.walks_per_start = 20;
            r.top_k = 8;
            break;
        }
        requests.push_back(std::move(r));
    }
    return requests;
}

/** Submit @p requests to a fresh service and collect all results. */
std::vector<WalkResult>
run_all(Fixture &fixture, ServiceConfig config,
        const std::vector<WalkRequest> &requests)
{
    WalkService service(*fixture.file, *fixture.partition, config);
    std::vector<WalkTicket> tickets;
    tickets.reserve(requests.size());
    for (const WalkRequest &request : requests) {
        tickets.push_back(service.submit(request));
    }
    std::vector<WalkResult> results;
    results.reserve(tickets.size());
    for (WalkTicket &ticket : tickets) {
        results.push_back(ticket.get());
    }
    return results;
}

TEST(WalkService, ResultsBitIdenticalAcrossWorkerCountsAndBatching)
{
    Fixture s(skewed_graph(), 4096);
    const auto requests = canned_requests(s.file->num_vertices());

    ServiceConfig base;
    base.cache_bytes = 1ULL << 20;
    base.batch_window_seconds = 0.002;

    ServiceConfig solo = base;
    solo.num_workers = 1;
    solo.max_batch = 1;
    const auto reference = run_all(s, solo, requests);

    for (const auto &[workers, batch] :
         {std::pair<unsigned, std::size_t>{2, 4}, {8, 8}}) {
        ServiceConfig cfg = base;
        cfg.num_workers = workers;
        cfg.max_batch = batch;
        const auto results = run_all(s, cfg, requests);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].status, WalkStatus::kOk)
                << "request " << i << ": " << results[i].error;
            EXPECT_EQ(results[i].endpoints, reference[i].endpoints)
                << "request " << i << " at " << workers << " workers";
            EXPECT_EQ(results[i].paths, reference[i].paths)
                << "request " << i << " at " << workers << " workers";
            EXPECT_EQ(results[i].top_visits, reference[i].top_visits)
                << "request " << i << " at " << workers << " workers";
            EXPECT_EQ(results[i].stats.walkers,
                      reference[i].stats.walkers);
            EXPECT_EQ(results[i].stats.steps, reference[i].stats.steps);
        }
    }
}

TEST(WalkService, WeightedResultsBitIdenticalAndFollowRealEdges)
{
    // Every other request is weighted: those batches draw alias rows
    // from each walker's own stream, the rest sample uniformly.  Results
    // must not depend on worker count or batching, and every hop must
    // be a real edge.
    Fixture s(graph::generate_rmat({.scale = 9,
                                    .edge_factor = 8,
                                    .a = 0.57,
                                    .b = 0.19,
                                    .c = 0.19,
                                    .seed = 21,
                                    .symmetrize = false,
                                    .weighted = true}),
              4096, /*with_alias=*/true);
    auto requests = canned_requests(s.file->num_vertices());
    for (std::size_t i = 0; i < requests.size(); i += 2) {
        requests[i].weighted = true;
    }

    ServiceConfig base;
    base.cache_bytes = 1ULL << 20;
    base.batch_window_seconds = 0.002;

    ServiceConfig solo = base;
    solo.num_workers = 1;
    solo.max_batch = 1;
    const auto reference = run_all(s, solo, requests);

    ServiceConfig batched = base;
    batched.num_workers = 4;
    batched.max_batch = 8;
    const auto results = run_all(s, batched, requests);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(reference[i].status, WalkStatus::kOk)
            << "request " << i << ": " << reference[i].error;
        ASSERT_EQ(results[i].status, WalkStatus::kOk)
            << "request " << i << ": " << results[i].error;
        EXPECT_EQ(results[i].endpoints, reference[i].endpoints)
            << "request " << i;
        EXPECT_EQ(results[i].paths, reference[i].paths) << "request " << i;
        EXPECT_EQ(results[i].top_visits, reference[i].top_visits)
            << "request " << i;
        EXPECT_EQ(results[i].stats.steps, reference[i].stats.steps);
        for (const auto &path : results[i].paths) {
            for (std::size_t j = 0; j + 1 < path.size(); ++j) {
                ASSERT_TRUE(s.graph.has_edge(path[j], path[j + 1]))
                    << path[j] << "->" << path[j + 1] << " is not an edge";
            }
        }
    }
}

TEST(WalkService, ShardedBackendMatchesPlainServiceBitForBit)
{
    // Per-walker streams make every request's output a pure function
    // of its own seed, so a service running sharded engines must
    // reproduce the single-engine service exactly — including the
    // per-request walker/step accounting.
    Fixture s(skewed_graph(), 4096);
    const auto requests = canned_requests(s.file->num_vertices());

    ServiceConfig base;
    base.cache_bytes = 1ULL << 20;
    base.batch_window_seconds = 0.002;
    base.num_workers = 2;
    base.max_batch = 4;

    ServiceConfig plain = base;
    plain.num_shards = 1;
    const auto reference = run_all(s, plain, requests);

    for (const unsigned shards : {2u, 4u}) {
        ServiceConfig cfg = base;
        cfg.num_shards = shards;
        const auto results = run_all(s, cfg, requests);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].status, WalkStatus::kOk)
                << "request " << i << ": " << results[i].error;
            EXPECT_EQ(results[i].endpoints, reference[i].endpoints)
                << "request " << i << " at " << shards << " shards";
            EXPECT_EQ(results[i].paths, reference[i].paths)
                << "request " << i << " at " << shards << " shards";
            EXPECT_EQ(results[i].top_visits, reference[i].top_visits)
                << "request " << i << " at " << shards << " shards";
            EXPECT_EQ(results[i].stats.walkers,
                      reference[i].stats.walkers);
            EXPECT_EQ(results[i].stats.steps, reference[i].stats.steps);
        }
    }
}

TEST(WalkService, ShardedServiceScalesMinFootprint)
{
    // Each shard holds its own CSR index copy and buffers, so the
    // admission floor multiplies by the shard count: a budget that
    // admits one engine can reject a four-shard configuration.
    Fixture s(graph::generate_uniform(1000, 8, 5), 4096);
    const std::uint64_t floor_one =
        WalkService::min_run_footprint(*s.file, *s.partition);

    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.num_shards = 4;
    cfg.cache_bytes = 0;
    cfg.memory_budget = floor_one * 2; // enough for 1 shard, not 4

    WalkService service(*s.file, *s.partition, cfg);
    WalkRequest request;
    request.starts = {1};
    const WalkResult result = service.submit(request).get();
    EXPECT_EQ(result.status, WalkStatus::kRejectedBudget);
    EXPECT_EQ(service.counters().rejected_budget, 1u);
}

TEST(WalkService, PathsFollowRealEdges)
{
    Fixture s(skewed_graph(), 4096);
    WalkRequest request;
    request.kind = WalkKind::kPaths;
    request.starts = {3, 9, 27};
    request.walks_per_start = 4;
    request.length = 10;
    request.seed = 7;

    ServiceConfig cfg;
    cfg.num_workers = 2;
    WalkService service(*s.file, *s.partition, cfg);
    WalkResult result = service.submit(request).get();
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.paths.size(), request.num_walks());
    for (const auto &path : result.paths) {
        ASSERT_FALSE(path.empty());
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            ASSERT_TRUE(s.graph.has_edge(path[i], path[i + 1]))
                << path[i] << "->" << path[i + 1] << " is not an edge";
        }
    }
}

TEST(WalkService, TinyBudgetRejectsAtSubmission)
{
    Fixture s(graph::generate_uniform(1000, 8, 5), 4096);
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.memory_budget = 1024; // below any run's fixed footprint

    WalkService service(*s.file, *s.partition, cfg);
    WalkRequest request;
    request.starts = {1};
    const WalkResult result = service.submit(request).get();
    EXPECT_EQ(result.status, WalkStatus::kRejectedBudget);
    EXPECT_FALSE(result.error.empty());
    EXPECT_EQ(service.counters().rejected_budget, 1u);
    EXPECT_EQ(service.counters().completed, 0u);
}

TEST(WalkService, BatchingWindowCoalescesCompatibleRequests)
{
    Fixture s(graph::generate_uniform(1000, 8, 5), 4096);

    // One worker, generous window, max_batch 8: eight quick
    // submissions must land in exactly one engine run.
    {
        ServiceConfig cfg;
        cfg.num_workers = 1;
        cfg.max_batch = 8;
        cfg.batch_window_seconds = 0.5;
        WalkService service(*s.file, *s.partition, cfg);
        std::vector<WalkTicket> tickets;
        for (int i = 0; i < 8; ++i) {
            WalkRequest request;
            request.starts = {static_cast<graph::VertexId>(i)};
            request.walks_per_start = 2;
            request.length = 4;
            request.seed = 50 + static_cast<std::uint64_t>(i);
            tickets.push_back(service.submit(request));
        }
        std::uint64_t batch_id = 0;
        for (WalkTicket &ticket : tickets) {
            const WalkResult result = ticket.get();
            ASSERT_TRUE(result.ok()) << result.error;
            EXPECT_EQ(result.batch_size, 8u);
            if (batch_id == 0) {
                batch_id = result.batch_id;
            }
            EXPECT_EQ(result.batch_id, batch_id);
        }
        EXPECT_EQ(service.counters().batches, 1u);
        EXPECT_EQ(service.counters().coalesced_requests, 8u);
    }

    // max_batch 2 splits six submissions into exactly three runs.
    {
        ServiceConfig cfg;
        cfg.num_workers = 1;
        cfg.max_batch = 2;
        cfg.batch_window_seconds = 0.5;
        WalkService service(*s.file, *s.partition, cfg);
        std::vector<WalkTicket> tickets;
        for (int i = 0; i < 6; ++i) {
            WalkRequest request;
            request.starts = {static_cast<graph::VertexId>(10 + i)};
            request.length = 4;
            request.seed = 90 + static_cast<std::uint64_t>(i);
            tickets.push_back(service.submit(request));
        }
        for (WalkTicket &ticket : tickets) {
            const WalkResult result = ticket.get();
            ASSERT_TRUE(result.ok()) << result.error;
            EXPECT_EQ(result.batch_size, 2u);
        }
        EXPECT_EQ(service.counters().batches, 3u);
        EXPECT_EQ(service.counters().coalesced_requests, 6u);
    }
}

TEST(WalkService, ExactStepAccountingOnRegularGraph)
{
    // Every vertex has out-degree 8, so no walk dies early and the
    // per-request stats slices carry exact walker/step counts.
    Fixture s(graph::generate_uniform(1000, 8, 5), 4096);
    ServiceConfig cfg;
    cfg.num_workers = 2;
    WalkService service(*s.file, *s.partition, cfg);

    WalkRequest request;
    request.kind = WalkKind::kEndpoints;
    request.starts = {1, 2, 3};
    request.walks_per_start = 5;
    request.length = 7;
    request.tenant = 42;

    WalkResult a = service.submit(request).get();
    request.seed = 2;
    WalkResult b = service.submit(request).get();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.stats.walkers, 15u);
    EXPECT_EQ(a.stats.steps, 15u * 7);

    const engine::RunStats tenant = service.tenant_stats(42);
    EXPECT_EQ(tenant.walkers, 30u);
    EXPECT_EQ(tenant.steps, 30u * 7);
    EXPECT_EQ(service.tenant_stats(7).walkers, 0u);
}

TEST(WalkService, DeadlineExpiresWhileQueued)
{
    Fixture s(graph::generate_uniform(1000, 8, 5), 4096);
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.batch_window_seconds = 0.05; // guarantees > 1 µs queue time
    WalkService service(*s.file, *s.partition, cfg);

    WalkRequest request;
    request.starts = {1};
    request.deadline_seconds = 1e-6;
    const WalkResult result = service.submit(request).get();
    EXPECT_EQ(result.status, WalkStatus::kDeadlineExpired);
    EXPECT_EQ(service.counters().expired, 1u);
}

TEST(WalkService, DeadlineEnforcedAcrossBudgetWait)
{
    // Regression: a request whose deadline expired while its worker
    // was blocked in budget_.reserve_wait used to run anyway (the wait
    // ignored the deadline).  Pin the scenario: worker A's big batch
    // holds most of the budget, worker B's request blocks on the
    // result-buffer reservation past its own deadline — it must come
    // back deadline-expired, not kOk (or burn the full retry budget).
    Fixture s(graph::generate_uniform(2000, 8, 5), 4096);

    ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.batch_window_seconds = 0.0; // dispatch each request alone
    // Room for one giant's result buffer, never two at once.
    cfg.memory_budget =
        WalkService::min_run_footprint(*s.file, *s.partition) +
        (10ULL << 20);
    cfg.cache_bytes = 0;
    cfg.budget_wait_seconds = 0.25;
    cfg.budget_retry_limit = 20;
    WalkService service(*s.file, *s.partition, cfg);

    // ~4 MiB of path buffers and ~1M steps: holds the budget while it
    // runs, and runs far longer than the victim's deadline.
    WalkRequest hog;
    hog.kind = WalkKind::kPaths;
    hog.starts.resize(1200);
    for (std::size_t i = 0; i < hog.starts.size(); ++i) {
        hog.starts[i] = static_cast<graph::VertexId>(i);
    }
    hog.walks_per_start = 8;
    hog.length = 100;
    hog.seed = 5;
    WalkTicket hog_ticket = service.submit(hog);

    // Wait until the hog's ~4 MiB result reservation is actually held
    // before submitting the victim, so the victim deterministically
    // blocks behind it.
    const auto spin_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.budget().used() < (3ULL << 20) &&
           std::chrono::steady_clock::now() < spin_deadline) {
        std::this_thread::yield();
    }
    ASSERT_GE(service.budget().used(), 3ULL << 20)
        << "hog never charged the budget";

    // The victim's ~8 MiB reservation cannot coexist with the hog's
    // ~4 MiB under the ~10.5 MiB limit, so its worker blocks in
    // reserve_wait until the deadline lapses.
    WalkRequest victim = hog;
    victim.starts.resize(2400);
    for (std::size_t i = 0; i < victim.starts.size(); ++i) {
        victim.starts[i] = static_cast<graph::VertexId>(i % 2000);
    }
    victim.seed = 6;
    victim.deadline_seconds = 0.01;
    const WalkResult result = service.submit(victim).get();
    EXPECT_EQ(result.status, WalkStatus::kDeadlineExpired)
        << to_string(result.status) << ": " << result.error;
    EXPECT_EQ(service.counters().expired, 1u);

    EXPECT_EQ(hog_ticket.get().status, WalkStatus::kOk);
    service.stop();
    EXPECT_EQ(service.budget().used(), 0u);
}

TEST(WalkService, ShutdownUnderLoadConservesEverything)
{
    // N client threads hammer submit() while stop() runs: every
    // request must get exactly one terminal status, the budget must
    // drain to zero, and no queue may be left non-empty.
    Fixture s(graph::generate_uniform(1000, 8, 5), 4096);
    ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.max_queue = 16;
    cfg.max_batch = 4;
    cfg.batch_window_seconds = 0.001;
    cfg.memory_budget =
        WalkService::min_run_footprint(*s.file, *s.partition) * 2 +
        (8ULL << 20);
    WalkService service(*s.file, *s.partition, cfg);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 30;
    std::mutex ticket_mutex;
    std::vector<WalkTicket> tickets;
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                WalkRequest r;
                r.starts = {static_cast<graph::VertexId>(
                    (t * kPerThread + i) % 1000)};
                r.walks_per_start = 2;
                r.length = 6;
                r.seed = 1 + static_cast<std::uint64_t>(
                                 t * kPerThread + i);
                r.tenant = static_cast<std::uint64_t>(t);
                WalkTicket ticket = service.submit(r);
                std::lock_guard lock(ticket_mutex);
                tickets.push_back(std::move(ticket));
            }
        });
    }
    // Stop mid-flight, racing the submitters.
    std::thread stopper([&] { service.stop(); });
    for (std::thread &client : clients) {
        client.join();
    }
    stopper.join();

    ASSERT_EQ(tickets.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    std::uint64_t terminal = 0;
    for (WalkTicket &ticket : tickets) {
        ASSERT_TRUE(ticket.wait_for(30.0))
            << "request " << ticket.id() << " never resolved";
        const WalkResult result = ticket.get();
        (void)result.status; // any terminal status is legal here
        ++terminal;
    }
    EXPECT_EQ(terminal, static_cast<std::uint64_t>(kThreads *
                                                   kPerThread));

    const WalkService::Counters c = service.counters();
    EXPECT_EQ(c.submitted,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(c.submitted, c.completed + c.failed +
                               c.rejected_queue_full +
                               c.rejected_tenant_queue +
                               c.rejected_budget + c.expired +
                               c.shutdown_dropped);
    EXPECT_EQ(service.budget().used(), 0u);
    EXPECT_EQ(service.submit_queue_depth(), 0u);
    EXPECT_EQ(service.batch_queue_depth(), 0u);
}

TEST(WalkService, MalformedRequestsFailFast)
{
    Fixture s(graph::generate_uniform(100, 8, 5), 4096);
    WalkService service(*s.file, *s.partition, ServiceConfig{});

    WalkRequest empty;
    EXPECT_EQ(service.submit(empty).get().status, WalkStatus::kFailed);

    WalkRequest out_of_range;
    out_of_range.starts = {1000};
    EXPECT_EQ(service.submit(out_of_range).get().status,
              WalkStatus::kFailed);

    WalkRequest weighted;
    weighted.starts = {1};
    weighted.weighted = true; // graph is unweighted
    EXPECT_EQ(service.submit(weighted).get().status,
              WalkStatus::kFailed);

    EXPECT_EQ(service.counters().failed, 3u);
}

TEST(WalkService, SubmitAfterStopReturnsShutdown)
{
    Fixture s(graph::generate_uniform(100, 8, 5), 4096);
    WalkService service(*s.file, *s.partition, ServiceConfig{});
    service.stop();
    WalkRequest request;
    request.starts = {1};
    const WalkResult result = service.submit(request).get();
    EXPECT_EQ(result.status, WalkStatus::kShutdown);
    // The rejection reason must be deterministic: a post-stop submit
    // is shutdown, never misreported as a full queue.
    EXPECT_EQ(service.counters().shutdown_dropped, 1u);
    EXPECT_EQ(service.counters().rejected_queue_full, 0u);
}

TEST(WalkService, SharedCacheServesRepeatedRequests)
{
    Fixture s(skewed_graph(), 4096);
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.cache_bytes = 8ULL << 20;
    WalkService service(*s.file, *s.partition, cfg);

    WalkRequest request;
    request.starts = {3, 5, 7};
    request.walks_per_start = 10;
    request.length = 12;
    const WalkResult first = service.submit(request).get();
    ASSERT_TRUE(first.ok());
    request.seed = 2;
    const WalkResult second = service.submit(request).get();
    ASSERT_TRUE(second.ok());

    EXPECT_GT(service.counters().cache_hits, 0u);
    // Identical walks regardless of cache state: same seed re-run.
    request.seed = 1;
    const WalkResult third = service.submit(request).get();
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(third.endpoints, first.endpoints);
}

TEST(LoadPlannerService, PerTenantStatsCarryCacheCounters)
{
    // Per-tenant SharedBlockCache accounting.  Two requests from one
    // tenant: the first warms the cache, the second hits it, and both
    // land in the tenant's aggregated RunStats and nowhere else.
    graph::CsrGraph g = graph::generate_rmat(
        {.scale = 9, .edge_factor = 8, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 21, .symmetrize = false, .weighted = false});
    storage::MemDevice device;
    graph::GraphFile::write(g, device);
    graph::GraphFile file(device);
    graph::BlockPartition partition(file,
                                    file.edge_region_bytes() / 8);

    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch = 1;
    cfg.batch_window_seconds = 0.0;
    cfg.cache_bytes = 32ULL << 20;
    WalkService service(file, partition, cfg);

    WalkRequest request;
    request.tenant = 9;
    request.seed = 77;
    request.kind = WalkKind::kEndpoints;
    request.length = 16;
    request.walks_per_start = 50;
    for (graph::VertexId v = 0; v < 8; ++v) {
        request.starts.push_back(v * 31 % file.num_vertices());
    }

    auto first = service.submit(request).get();
    ASSERT_EQ(first.status, WalkStatus::kOk);
    auto second = service.submit(request).get();
    ASSERT_EQ(second.status, WalkStatus::kOk);
    EXPECT_EQ(second.endpoints, first.endpoints)
        << "same request + seed must reproduce";

    const engine::RunStats tenant = service.tenant_stats(9);
    EXPECT_GT(tenant.cache_miss_blocks, 0u) << "cold run misses";
    EXPECT_GT(tenant.cache_hit_blocks, 0u) << "warm run hits";
    const engine::RunStats other = service.tenant_stats(1234);
    EXPECT_EQ(other.cache_hit_blocks, 0u);
    EXPECT_EQ(other.cache_miss_blocks, 0u);
}

} // namespace
} // namespace noswalker::service
