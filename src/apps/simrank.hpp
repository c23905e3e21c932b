/**
 * @file
 * SimRank by random walk meeting time (§4.2 application 2).
 *
 * sim(a, b) is interpreted through the expected time for two walkers
 * started at a and b to meet; the paper runs 2000 walks of length 11
 * from each endpoint of a queried pair.  Walk i of a is paired with
 * walk i of b and the first step at which they coincide contributes
 * C^t to the score (C = decay).
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Pairwise SimRank estimator for one (a, b) query. */
class SimRank {
  public:
    using WalkerT = engine::Walker;

    /**
     * @param a,b             the queried vertex pair.
     * @param walks_per_side  walks from each of a and b (paper: 2000).
     * @param length          walk length (paper: 11).
     */
    SimRank(graph::VertexId a, graph::VertexId b,
            std::uint64_t walks_per_side, std::uint32_t length,
            double decay = 0.6)
        : a_(a), b_(b), walks_per_side_(walks_per_side), length_(length),
          decay_(decay),
          paths_(2 * walks_per_side * (length + 1), graph::kInvalidVertex)
    {
    }

    /** Total walkers (both sides). */
    std::uint64_t total_walkers() const { return 2 * walks_per_side_; }

    WalkerT
    generate(std::uint64_t n)
    {
        // Even ids walk from a, odd ids from b.
        const graph::VertexId start = (n % 2 == 0) ? a_ : b_;
        record(n, 0, start);
        return WalkerT{n, start, 0};
    }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return view.sample_uniform(rng);
    }

    /** Fine-load slot hint: the uniform draw reads one target slot
     *  (DESIGN.md §12). */
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
        record(w.id, w.step, next);
        return true;
    }

    /**
     * First-meeting SimRank estimate: mean over paired walks of
     * decay^t where t is the first step both walkers are at the same
     * vertex (0 when they never meet within the length).
     */
    double estimate() const;

  private:
    void
    record(std::uint64_t id, std::uint32_t step, graph::VertexId v)
    {
        paths_[id * (length_ + 1) + step] = v;
    }

    graph::VertexId
    at(std::uint64_t id, std::uint32_t step) const
    {
        return paths_[id * (length_ + 1) + step];
    }

    graph::VertexId a_;
    graph::VertexId b_;
    std::uint64_t walks_per_side_;
    std::uint32_t length_;
    double decay_;
    std::vector<graph::VertexId> paths_;
};

inline double
SimRank::estimate() const
{
    double total = 0.0;
    for (std::uint64_t pair = 0; pair < walks_per_side_; ++pair) {
        const std::uint64_t ia = 2 * pair;
        const std::uint64_t ib = 2 * pair + 1;
        for (std::uint32_t t = 1; t <= length_; ++t) {
            const graph::VertexId va = at(ia, t);
            const graph::VertexId vb = at(ib, t);
            if (va == graph::kInvalidVertex ||
                vb == graph::kInvalidVertex) {
                break; // one walk dead-ended
            }
            if (va == vb) {
                total += std::pow(decay_, static_cast<double>(t));
                break;
            }
        }
    }
    return total / static_cast<double>(walks_per_side_);
}

static_assert(engine::RandomWalkApp<SimRank>);
static_assert(engine::SlotDrawApp<SimRank>);

} // namespace noswalker::apps
