/**
 * @file
 * Model-based service-traffic fuzzing (CaDiCaL `mobical` style): seeded
 * deterministic episodes drive WalkService with adversarial mixes —
 * tenant skew, bursts, budget-starving giants, tight deadlines,
 * mid-flight stop(), knob permutations — and every episode must leave
 * the service conserving walkers, bytes, and per-tenant stats (see
 * service/traffic_model.hpp for the four invariants).
 *
 * Suites: FuzzService (the wide seed sweep, full builds), TrafficModel
 * (generator determinism + a reduced sweep small enough for TSan), and
 * Backpressure (per-tenant bounded sub-queues, tenant_max_queue).
 */
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "service/traffic_model.hpp"
#include "service/walk_service.hpp"
#include "storage/mem_device.hpp"

namespace noswalker::service {
namespace {

struct Fixture {
    graph::CsrGraph graph;
    storage::MemDevice device;
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;

    explicit Fixture(graph::CsrGraph g, std::uint64_t block_bytes = 4096)
        : graph(std::move(g))
    {
        graph::GraphFile::write(graph, device);
        file = std::make_unique<graph::GraphFile>(device);
        partition =
            std::make_unique<graph::BlockPartition>(*file, block_bytes);
    }
};

Fixture &
shared_fixture()
{
    static Fixture fixture(graph::generate_uniform(600, 6, 11));
    return fixture;
}

std::string
joined(const std::vector<std::string> &violations)
{
    std::string out;
    for (const std::string &v : violations) {
        out += v;
        out += "; ";
    }
    return out;
}

TEST(FuzzService, FiftySeededEpisodesHoldInvariants)
{
    Fixture &s = shared_fixture();
    TrafficModel model(*s.file, *s.partition);
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const EpisodeReport report = model.run_episode(seed);
        EXPECT_TRUE(report.clean())
            << "seed " << seed << ": " << joined(report.violations)
            << "\nreplay script:\n"
            << TrafficModel::describe(model.make_episode(seed));
        EXPECT_EQ(report.submitted, report.ok + report.not_ok);
    }
}

TEST(TrafficModel, ScriptIsAPureFunctionOfTheSeed)
{
    Fixture &s = shared_fixture();
    TrafficModel model(*s.file, *s.partition);
    for (const std::uint64_t seed : {3ULL, 17ULL, 40ULL}) {
        const std::string first =
            TrafficModel::describe(model.make_episode(seed));
        const std::string second =
            TrafficModel::describe(model.make_episode(seed));
        EXPECT_EQ(first, second) << "seed " << seed;
        EXPECT_FALSE(first.empty());
    }
    EXPECT_NE(TrafficModel::describe(model.make_episode(3)),
              TrafficModel::describe(model.make_episode(4)));
}

TEST(TrafficModel, CoversAdversarialClassesAcrossSeeds)
{
    // The sweep is only as strong as its mix: over a modest seed range
    // the generator must produce every adversarial ingredient.
    Fixture &s = shared_fixture();
    TrafficModel model(*s.file, *s.partition);
    bool saw_stop = false, saw_deadline = false, saw_giant = false,
         saw_malformed = false, saw_tenant_bound = false,
         saw_tight_budget = false, saw_shards = false;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const TrafficEpisode ep = model.make_episode(seed);
        saw_stop |= ep.stops_mid_flight;
        saw_tenant_bound |= ep.config.tenant_max_queue > 0;
        saw_shards |= ep.config.num_shards > 1;
        // "Tight" = at most ~2 MiB of headroom over the run floor —
        // well under a single giant's result buffer ("generous" mode
        // starts at floor + 8 MiB, so the classes separate cleanly).
        const std::uint64_t floor =
            WalkService::min_run_footprint(*s.file, *s.partition,
                                           ep.config.num_shards);
        saw_tight_budget |=
            ep.config.memory_budget != 0 &&
            ep.config.memory_budget < floor + (4ULL << 20);
        for (const TrafficEvent &ev : ep.events) {
            if (ev.kind != TrafficEvent::Kind::kSubmit) {
                continue;
            }
            saw_deadline |= ev.request.deadline_seconds > 0.0;
            saw_giant |= ev.request.num_walks() > 500;
            saw_malformed |=
                ev.request.starts.empty() ||
                (!ev.request.starts.empty() &&
                 ev.request.starts.front() >= s.file->num_vertices());
        }
    }
    EXPECT_TRUE(saw_stop);
    EXPECT_TRUE(saw_deadline);
    EXPECT_TRUE(saw_giant);
    EXPECT_TRUE(saw_malformed);
    EXPECT_TRUE(saw_tenant_bound);
    EXPECT_TRUE(saw_tight_budget);
    EXPECT_TRUE(saw_shards);
}

TEST(TrafficModel, ReducedSeedSweepHoldsInvariants)
{
    // The TSan-sized sweep (the tier-1 filter runs this suite under
    // ThreadSanitizer; the 50-seed sweep stays in the full build).
    Fixture &s = shared_fixture();
    TrafficModel model(*s.file, *s.partition);
    for (std::uint64_t seed = 101; seed <= 105; ++seed) {
        const EpisodeReport report = model.run_episode(seed);
        EXPECT_TRUE(report.clean())
            << "seed " << seed << ": " << joined(report.violations);
    }
}

TEST(TrafficModel, MidFlightStopEpisodeConserves)
{
    // Hand-written episode pinning the hardest class: concurrent
    // clients racing a mid-flight stop() on a bounded queue.
    Fixture &s = shared_fixture();
    TrafficModel model(*s.file, *s.partition);

    TrafficEpisode ep;
    ep.seed = 0;
    ep.num_clients = 3;
    ep.config.num_workers = 2;
    ep.config.max_queue = 8;
    ep.config.max_batch = 4;
    ep.config.batch_window_seconds = 0.001;
    for (int i = 0; i < 24; ++i) {
        TrafficEvent ev;
        ev.client = static_cast<unsigned>(i % 3);
        ev.request.starts = {static_cast<graph::VertexId>(i % 600)};
        ev.request.walks_per_start = 2;
        ev.request.length = 6;
        ev.request.seed = 700 + static_cast<std::uint64_t>(i);
        ev.request.tenant = static_cast<std::uint64_t>(i % 2);
        ep.events.push_back(std::move(ev));
    }
    TrafficEvent stop;
    stop.kind = TrafficEvent::Kind::kStop;
    stop.client = 1;
    ep.events.insert(ep.events.begin() + 8, std::move(stop));
    ep.stops_mid_flight = true;

    const EpisodeReport report = model.run_episode(ep);
    EXPECT_TRUE(report.clean()) << joined(report.violations);
    EXPECT_EQ(report.submitted, 24u);
}

TEST(Backpressure, TenantBurstShedsBeyondItsBound)
{
    // A long coalescing window keeps admitted requests non-terminal
    // while the burst arrives, so the shed decision is deterministic:
    // the first tenant_max_queue submissions are admitted, the rest of
    // that tenant's burst is shed — and another tenant still gets in.
    Fixture &s = shared_fixture();
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch = 16;
    cfg.batch_window_seconds = 0.3;
    cfg.max_queue = 64;
    cfg.tenant_max_queue = 2;
    WalkService service(*s.file, *s.partition, cfg);

    std::vector<WalkTicket> burst;
    for (int i = 0; i < 8; ++i) {
        WalkRequest r;
        r.starts = {static_cast<graph::VertexId>(i)};
        r.length = 4;
        r.seed = 300 + static_cast<std::uint64_t>(i);
        r.tenant = 7;
        burst.push_back(service.submit(r));
    }
    std::vector<WalkTicket> other;
    for (int i = 0; i < 2; ++i) {
        WalkRequest r;
        r.starts = {static_cast<graph::VertexId>(100 + i)};
        r.length = 4;
        r.seed = 400 + static_cast<std::uint64_t>(i);
        r.tenant = 8;
        other.push_back(service.submit(r));
    }

    unsigned ok = 0, shed = 0;
    for (WalkTicket &ticket : burst) {
        const WalkResult result = ticket.get();
        if (result.status == WalkStatus::kOk) {
            ++ok;
        } else {
            EXPECT_EQ(result.status, WalkStatus::kRejectedTenantQueue);
            EXPECT_FALSE(result.error.empty());
            ++shed;
        }
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(shed, 6u);
    for (WalkTicket &ticket : other) {
        EXPECT_EQ(ticket.get().status, WalkStatus::kOk)
            << "other tenants must not be punished for tenant 7's burst";
    }
    const WalkService::Counters c = service.counters();
    EXPECT_EQ(c.rejected_tenant_queue, 6u);
    EXPECT_EQ(c.completed, 4u);
    EXPECT_EQ(c.rejected_queue_full, 0u);
}

TEST(Backpressure, SlotsAreReturnedWhenRequestsRetire)
{
    // After a burst drains, the tenant is under its bound again: new
    // submissions are admitted — the in-flight count is a live bound,
    // not a lifetime quota.
    Fixture &s = shared_fixture();
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.batch_window_seconds = 0.0;
    cfg.tenant_max_queue = 2;
    WalkService service(*s.file, *s.partition, cfg);

    for (int round = 0; round < 3; ++round) {
        WalkRequest r;
        r.starts = {static_cast<graph::VertexId>(5 + round)};
        r.length = 4;
        r.seed = 500 + static_cast<std::uint64_t>(round);
        r.tenant = 3;
        EXPECT_EQ(service.submit(r).get().status, WalkStatus::kOk)
            << "round " << round;
    }
    EXPECT_EQ(service.counters().rejected_tenant_queue, 0u);
}

TEST(Backpressure, ZeroBoundDisablesShedding)
{
    Fixture &s = shared_fixture();
    ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch = 32;
    cfg.batch_window_seconds = 0.2;
    cfg.tenant_max_queue = 0; // default: unbounded per tenant
    WalkService service(*s.file, *s.partition, cfg);

    std::vector<WalkTicket> tickets;
    for (int i = 0; i < 12; ++i) {
        WalkRequest r;
        r.starts = {static_cast<graph::VertexId>(i)};
        r.length = 3;
        r.seed = 600 + static_cast<std::uint64_t>(i);
        r.tenant = 9;
        tickets.push_back(service.submit(r));
    }
    for (WalkTicket &ticket : tickets) {
        EXPECT_EQ(ticket.get().status, WalkStatus::kOk);
    }
    EXPECT_EQ(service.counters().rejected_tenant_queue, 0u);
}

} // namespace
} // namespace noswalker::service
