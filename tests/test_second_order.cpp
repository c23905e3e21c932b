/**
 * @file
 * Second-order (Node2Vec) correctness: the rejection-sampling workflow
 * must reproduce the exact Node2Vec transition distribution, and all
 * engines must agree.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "apps/node2vec.hpp"
#include "baselines/graphwalker.hpp"
#include "baselines/grasorw.hpp"
#include "baselines/inmemory.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/mem_device.hpp"

namespace noswalker {
namespace {

/** Node2Vec app that additionally records accepted transitions as
 *  (prev, from, to) triples. */
class RecordingNode2Vec : public apps::Node2Vec {
  public:
    using apps::Node2Vec::Node2Vec;

    bool
    rejection(WalkerT &w, const graph::VertexView &view, util::Rng &rng)
    {
        const graph::VertexId prev = w.prev;
        const graph::VertexId from = w.location;
        const graph::VertexId cand = w.candidate;
        const bool accepted = apps::Node2Vec::rejection(w, view, rng);
        if (accepted && prev != graph::kInvalidVertex) {
            ++counts[{prev, from, cand}];
        }
        return accepted;
    }

    std::map<std::tuple<graph::VertexId, graph::VertexId,
                        graph::VertexId>,
             std::uint64_t>
        counts;
};

static_assert(engine::SecondOrderApp<RecordingNode2Vec>);

/**
 * Small undirected test graph where vertex 0's neighbourhood exercises
 * all three Node2Vec distance cases from vertex 1:
 *   1 - 0 (return, d=0), 1 - 2 and 0 - 2 (common neighbour, d=1),
 *   0 - 3 (d=2 from 1).
 */
graph::CsrGraph
diamond_graph()
{
    std::vector<graph::Edge> edges = {
        {0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}};
    graph::BuildOptions opt;
    opt.symmetrize = true;
    return graph::build_csr(std::move(edges), opt);
}

/** Exact Node2Vec probability of stepping 0→x given the previous
 *  vertex was 1, with p=2, q=0.5. */
std::map<graph::VertexId, double>
exact_from_0_prev_1(double p, double q)
{
    // N(0) = {1, 2, 3}; weights: 1 -> 1/p (return), 2 -> 1 (common
    // neighbour of 1), 3 -> 1/q (distance 2).
    std::map<graph::VertexId, double> w = {
        {1, 1.0 / p}, {2, 1.0}, {3, 1.0 / q}};
    double total = 0;
    for (auto &[v, x] : w) {
        total += x;
    }
    for (auto &[v, x] : w) {
        x /= total;
    }
    return w;
}

template <typename RunFn>
void
check_distribution(RunFn &&run_engine, const char *label)
{
    const graph::CsrGraph g = diamond_graph();
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 64); // several small blocks

    // Start all walkers at vertex 1; length 2: first step uniform, the
    // second step from 0 (if taken) exercises the weights.
    RecordingNode2Vec app(2.0, 0.5, 2, g.num_vertices(), 1);
    run_engine(file, part, app);

    // Collect the empirical conditional distribution for (1, 0, *).
    std::uint64_t total = 0;
    std::map<graph::VertexId, std::uint64_t> hist;
    for (const auto &[key, count] : app.counts) {
        const auto &[prev, from, to] = key;
        if (prev == 1 && from == 0) {
            hist[to] += count;
            total += count;
        }
    }
    ASSERT_GT(total, 400u) << label;
    const auto exact = exact_from_0_prev_1(2.0, 0.5);
    double chi2 = 0.0;
    for (const auto &[v, prob] : exact) {
        const double expected = prob * static_cast<double>(total);
        const double observed = static_cast<double>(hist[v]);
        chi2 += (observed - expected) * (observed - expected) / expected;
    }
    // 2 dof, alpha = 0.001 => 13.82.
    EXPECT_LT(chi2, 13.82) << label << " hist size " << hist.size();
}

TEST(SecondOrder, NosWalkerMatchesExactNode2VecDistribution)
{
    check_distribution(
        [](graph::GraphFile &file, graph::BlockPartition &part,
           RecordingNode2Vec &app) {
            core::EngineConfig cfg = core::EngineConfig::full(0, 64);
            // Many repetitions of the tiny walk gather the samples.
            for (int rep = 0; rep < 1500; ++rep) {
                cfg.seed = 31 + rep;
                core::NosWalkerEngine<RecordingNode2Vec> e(file, part,
                                                           cfg);
                e.run(app, app.total_walkers());
            }
        },
        "NosWalker");
}

TEST(SecondOrder, GraphWalkerMatchesExactNode2VecDistribution)
{
    check_distribution(
        [](graph::GraphFile &file, graph::BlockPartition &part,
           RecordingNode2Vec &app) {
            for (int rep = 0; rep < 1500; ++rep) {
                baselines::GraphWalkerEngine<RecordingNode2Vec> e(
                    file, part, 0, 41 + rep);
                e.run(app, app.total_walkers());
            }
        },
        "GraphWalker");
}

TEST(SecondOrder, GraSorwMatchesExactNode2VecDistribution)
{
    check_distribution(
        [](graph::GraphFile &file, graph::BlockPartition &part,
           RecordingNode2Vec &app) {
            for (int rep = 0; rep < 1500; ++rep) {
                baselines::GraSorwEngine<RecordingNode2Vec> e(file, part,
                                                              0, 51 + rep);
                e.run(app, app.total_walkers());
            }
        },
        "GraSorw");
}

TEST(SecondOrder, InMemoryMatchesExactNode2VecDistribution)
{
    check_distribution(
        [](graph::GraphFile &file, graph::BlockPartition &part,
           RecordingNode2Vec &app) {
            (void)part;
            for (int rep = 0; rep < 1500; ++rep) {
                baselines::InMemoryEngine<RecordingNode2Vec> e(file,
                                                               61 + rep);
                e.run(app, app.total_walkers());
            }
        },
        "InMemory");
}

TEST(SecondOrder, StepCountsAgreeAcrossEngines)
{
    const graph::CsrGraph g = graph::generate_rmat({.scale = 8,
                                                    .edge_factor = 8,
                                                    .a = 0.57,
                                                    .b = 0.19,
                                                    .c = 0.19,
                                                    .seed = 33,
                                                    .symmetrize = true,
                                                    .weighted = false});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 8192);

    const std::uint32_t length = 6;
    apps::Node2Vec a1(2.0, 0.5, length, g.num_vertices(), 1);
    apps::Node2Vec a2(2.0, 0.5, length, g.num_vertices(), 1);
    apps::Node2Vec a3(2.0, 0.5, length, g.num_vertices(), 1);
    const std::uint64_t walkers = 200;

    core::EngineConfig cfg = core::EngineConfig::full(0, 8192);
    core::NosWalkerEngine<apps::Node2Vec> nw(file, part, cfg);
    baselines::GraSorwEngine<apps::Node2Vec> gs(file, part, 0);
    baselines::InMemoryEngine<apps::Node2Vec> im(file);

    const auto s1 = nw.run(a1, walkers);
    const auto s2 = gs.run(a2, walkers);
    const auto s3 = im.run(a3, walkers);
    // Symmetrized RMAT may still contain isolated vertices; all engines
    // must retire identical walker sets, hence identical step totals.
    EXPECT_EQ(s1.walkers, walkers);
    EXPECT_EQ(s2.walkers, walkers);
    EXPECT_EQ(s3.walkers, walkers);
    EXPECT_EQ(s1.steps, s2.steps);
    EXPECT_EQ(s2.steps, s3.steps);
}

TEST(SecondOrder, FirstStepIsUniform)
{
    // Star graph: from the hub every leaf must be equally likely on
    // the first step (prev == null ⇒ unconditional accept).
    const graph::CsrGraph g = graph::generate_star(9);
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);

    RecordingNode2Vec app(2.0, 0.5, 2, 1, 1); // start at hub (vertex 0)
    for (int rep = 0; rep < 3000; ++rep) {
        baselines::InMemoryEngine<RecordingNode2Vec> e(file, 81 + rep);
        e.run(app, 1);
    }
    // counts keys are (prev=0, from=leaf, to=0): every second step
    // returns to the hub — the interesting check is that all leaves
    // appear as `from`, roughly uniformly.
    std::map<graph::VertexId, std::uint64_t> from_hist;
    std::uint64_t total = 0;
    for (const auto &[key, count] : app.counts) {
        const auto &[prev, from, to] = key;
        EXPECT_EQ(prev, 0u);
        EXPECT_EQ(to, 0u); // leaves only connect back to the hub
        from_hist[from] += count;
        total += count;
    }
    ASSERT_GT(total, 1000u);
    for (const auto &[leaf, count] : from_hist) {
        EXPECT_NEAR(static_cast<double>(count) / total, 1.0 / 8.0, 0.04)
            << "leaf " << leaf;
    }
}

TEST(SecondOrder, RejectionStatsAreTracked)
{
    const graph::CsrGraph g = graph::generate_rmat({.scale = 7,
                                                    .edge_factor = 8,
                                                    .a = 0.57,
                                                    .b = 0.19,
                                                    .c = 0.19,
                                                    .seed = 35,
                                                    .symmetrize = true,
                                                    .weighted = false});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    apps::Node2Vec app(2.0, 0.5, 8, g.num_vertices(), 1);
    baselines::InMemoryEngine<apps::Node2Vec> e(file);
    const auto stats = e.run(app, 100);
    EXPECT_GT(stats.rejection_trials, 0u);
    EXPECT_EQ(stats.rejection_trials,
              stats.steps + stats.rejection_rejected);
}

TEST(SecondOrder, HeightDecidedTrialsMatchTheWeightRule)
{
    // Candidate 7's adjacency holds prev 1 but not prev 3; the walker
    // stands at 0.
    constexpr graph::VertexId kAt = 0;
    constexpr graph::VertexId kCand = 7;
    const std::vector<graph::VertexId> adjacency{0, 1, 5};
    graph::VertexView view;
    view.id = kCand;
    view.targets = adjacency;

    const graph::VertexId kNone = graph::kInvalidVertex;
    struct Case {
        graph::VertexId prev;
        graph::VertexId candidate;
    };
    const std::vector<Case> cases{
        {kNone, kCand}, // prev invalid: first step, uniform
        {kCand, kCand}, // candidate == prev: d = 0
        {1, kCand},     // prev ∈ N(candidate): d = 1
        {3, kCand},     // prev ∉ N(candidate): d = 2
    };
    const std::vector<std::pair<double, double>> params{
        {2, 0.5}, {0.5, 2}, {1, 1}, {4, 4}, {0.25, 0.25}};

    std::uint64_t decided = 0;
    std::uint64_t searched = 0;
    for (const auto &[p, q] : params) {
        apps::Node2Vec app(p, q, 100, 16, 1);
        const double h_max = app.h_max();
        std::vector<float> heights;
        for (const double x : {0.0, 1.0, 1.0 / p, 1.0 / q, h_max}) {
            const auto f = static_cast<float>(x);
            const float inf = std::numeric_limits<float>::infinity();
            heights.insert(heights.end(), {std::nextafter(f, -inf), f,
                                           std::nextafter(f, inf)});
        }
        for (const Case &c : cases) {
            for (const float h : heights) {
                // The weight rule, searching unconditionally.
                double weight;
                if (c.prev == kNone) {
                    weight = h_max;
                } else if (c.candidate == c.prev) {
                    weight = 1.0 / p;
                } else if (view.has_target(c.prev)) {
                    weight = 1.0;
                } else {
                    weight = 1.0 / q;
                }
                const bool expected = h <= weight;
                const bool settled =
                    c.prev == kNone || c.candidate == c.prev ||
                    h <= std::min(1.0, 1.0 / q) ||
                    h > std::max(1.0, 1.0 / q);
                (settled ? decided : searched) += 1;

                engine::SecondOrderWalker w;
                w.location = kAt;
                w.step = 3;
                w.prev = c.prev;
                w.candidate = c.candidate;
                w.h = h;
                // Probes are warmed exactly when the trial will search.
                EXPECT_EQ(app.gather(w, view), settled ? 0u : 3u)
                    << "p=" << p << " q=" << q << " prev=" << c.prev
                    << " h=" << h;
                util::Rng rng(1);
                const bool accepted = app.rejection(w, view, rng);
                EXPECT_EQ(accepted, expected)
                    << "p=" << p << " q=" << q << " prev=" << c.prev
                    << " h=" << h;
                EXPECT_EQ(w.candidate, kNone);
                EXPECT_EQ(w.location, accepted ? kCand : kAt);
                EXPECT_EQ(w.prev, accepted ? kAt : c.prev);
                EXPECT_EQ(w.step, accepted ? 4u : 3u);
            }
        }
    }
    // Both kinds of trial are exercised.
    EXPECT_GT(decided, 0u);
    EXPECT_GT(searched, 0u);
}

} // namespace
} // namespace noswalker
