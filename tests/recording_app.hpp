/**
 * @file
 * Test-only application that records every transition a walker takes,
 * so property tests can assert "every step follows a real edge" and
 * per-walker step-count invariants against the reference CSR.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/node2vec.hpp"
#include "apps/ppr.hpp"
#include "core/memory_plan.hpp"
#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/rng.hpp"

namespace noswalker::testing_support {

/** Uniform walk that logs (from, to) transitions and per-walker steps. */
class RecordingWalk {
  public:
    using WalkerT = engine::Walker;

    RecordingWalk(std::uint32_t length, graph::VertexId num_vertices)
        : length_(length), num_vertices_(num_vertices)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        util::SplitMix64 mix(n * 77 + 13);
        return WalkerT{
            n, static_cast<graph::VertexId>(mix.next() % num_vertices_),
            0};
    }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return view.sample_uniform(rng);
    }

    bool active(const WalkerT &w) const { return w.step < length_; }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        transitions.emplace_back(w.location, next);
        ++steps_per_walker[w.id];
        w.location = next;
        ++w.step;
        return true;
    }

    std::vector<std::pair<graph::VertexId, graph::VertexId>> transitions;
    std::unordered_map<std::uint64_t, std::uint32_t> steps_per_walker;

  private:
    std::uint32_t length_;
    graph::VertexId num_vertices_;
};

static_assert(engine::RandomWalkApp<RecordingWalk>);

/**
 * First-order uniform walk recording endpoints + visit counts, thread
 * safe the way service apps are: each walker owns a private endpoint
 * slot, and visit counters are atomic.  Shared by the parallel-step
 * and step-kernel bit-identity suites.
 */
class ConcurrentRecordingWalk {
  public:
    using WalkerT = engine::Walker;

    ConcurrentRecordingWalk(std::uint32_t length,
                            graph::VertexId num_vertices,
                            std::uint64_t num_walkers)
        : endpoints(num_walkers, graph::kInvalidVertex),
          visits(num_vertices), length_(length),
          num_vertices_(num_vertices)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        util::SplitMix64 mix(n * 31 + 5);
        return WalkerT{
            n, static_cast<graph::VertexId>(mix.next() % num_vertices_),
            0};
    }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return view.sample_uniform(rng);
    }

    /** Draw hint, as BasicRandomWalk's: the bit-identity suites must
     *  exercise the kernel's exact-slot prefetch path. */
    unsigned
    gather(const WalkerT &, const graph::VertexView &view,
           util::Rng probe) const
    {
        return view.prefetch_uniform_draw(probe);
    }

    /** Slot hint, as BasicRandomWalk's: the bit-identity suites must
     *  exercise slot-exact fine loads and residency too. */
    std::uint32_t
    draw_slot(const WalkerT &, std::uint32_t degree, util::Rng probe) const
    {
        return graph::VertexView::uniform_slot(degree, probe);
    }

    bool active(const WalkerT &w) const { return w.step < length_; }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        w.location = next;
        ++w.step;
        endpoints[w.id] = next;
        visits[next].fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    std::vector<graph::VertexId> endpoints;
    std::vector<std::atomic<std::uint32_t>> visits;

  private:
    std::uint32_t length_;
    graph::VertexId num_vertices_;
};

static_assert(engine::RandomWalkApp<ConcurrentRecordingWalk>);
static_assert(engine::DrawHintApp<ConcurrentRecordingWalk>);
static_assert(engine::SlotDrawApp<ConcurrentRecordingWalk>);

/**
 * PersonalizedPageRank wrapper recording endpoints and atomic visit
 * counts (the app's own record_visits mode mutates an unordered_map in
 * action() and is not thread safe, so the suites use this instead).
 * Forwards the gather and slot hints, so the step kernel exercises the
 * app-refined prefetch path and slot-exact fine loads.
 */
class RecordingPpr {
  public:
    using WalkerT = apps::PersonalizedPageRank::WalkerT;

    RecordingPpr(std::vector<graph::VertexId> sources,
                 std::uint64_t walks_per_source, std::uint32_t length,
                 graph::VertexId num_vertices)
        : visits(num_vertices),
          inner_(std::move(sources), walks_per_source, length)
    {
        endpoints.assign(inner_.total_walkers(), graph::kInvalidVertex);
    }

    std::uint64_t total_walkers() const { return inner_.total_walkers(); }

    WalkerT generate(std::uint64_t n) { return inner_.generate(n); }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const graph::VertexView &view) const
    {
        return inner_.gather(w, view);
    }

    unsigned
    gather(const WalkerT &w, const graph::VertexView &view,
           util::Rng probe) const
    {
        return inner_.gather(w, view, probe);
    }

    std::uint32_t
    draw_slot(const WalkerT &w, std::uint32_t degree, util::Rng probe) const
    {
        return inner_.draw_slot(w, degree, probe);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        const bool moved = inner_.action(w, next, rng);
        endpoints[w.id] = next;
        visits[next].fetch_add(1, std::memory_order_relaxed);
        return moved;
    }

    std::vector<graph::VertexId> endpoints;
    std::vector<std::atomic<std::uint32_t>> visits;

  private:
    apps::PersonalizedPageRank inner_;
};

static_assert(engine::RandomWalkApp<RecordingPpr>);
static_assert(engine::GatherHintApp<RecordingPpr>);
static_assert(engine::DrawHintApp<RecordingPpr>);
static_assert(engine::SlotDrawApp<RecordingPpr>);

/** Node2Vec wrapper recording the endpoint of every accepted move. */
class RecordingNode2Vec {
  public:
    using WalkerT = apps::Node2Vec::WalkerT;

    RecordingNode2Vec(double p, double q, std::uint32_t length,
                      graph::VertexId num_vertices,
                      std::uint32_t walks_per_vertex)
        : inner_(p, q, length, num_vertices, walks_per_vertex)
    {
        // inner_ is declared after the public vectors; size them here,
        // once every member is constructed.
        endpoints.assign(inner_.total_walkers(), graph::kInvalidVertex);
    }

    std::uint64_t total_walkers() const { return inner_.total_walkers(); }

    WalkerT generate(std::uint64_t n) { return inner_.generate(n); }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const graph::VertexView &view) const
    {
        return inner_.gather(w, view);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        return inner_.action(w, next, rng);
    }

    bool has_candidate(const WalkerT &w) const
    {
        return inner_.has_candidate(w);
    }

    graph::VertexId candidate(const WalkerT &w) const
    {
        return inner_.candidate(w);
    }

    bool
    rejection(WalkerT &w, const graph::VertexView &view, util::Rng &rng)
    {
        const bool accepted = inner_.rejection(w, view, rng);
        if (accepted) {
            endpoints[w.id] = w.location;
        }
        return accepted;
    }

    std::vector<graph::VertexId> endpoints;

  private:
    apps::Node2Vec inner_;
};

static_assert(engine::SecondOrderApp<RecordingNode2Vec>);
static_assert(engine::GatherHintApp<RecordingNode2Vec>);

/**
 * A memory budget that is genuinely out-of-core (a fraction of the file)
 * but never below the engine's fixed floor (CSR index + two block
 * buffers + working slack), which dominates at unit-test graph sizes.
 */
inline std::uint64_t
tight_budget(const graph::GraphFile &file,
             const graph::BlockPartition &partition, double fraction = 0.33)
{
    const std::uint64_t floor = file.index_bytes() +
                                2 * core::block_buffer_bytes(partition) +
                                48 * 1024;
    const auto frac = static_cast<std::uint64_t>(
        fraction * static_cast<double>(file.file_bytes()));
    return std::max(floor, frac);
}

} // namespace noswalker::testing_support
