/**
 * @file
 * Personalized PageRank by Monte-Carlo walks (§4.2 application 1).
 *
 * The paper runs 2000 walks of length 10 from every query source; the
 * PPR mass of vertex v w.r.t. source s is estimated from the frequency
 * of v among the walks' visited vertices.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Monte-Carlo Personalized PageRank over a set of query sources. */
class PersonalizedPageRank {
  public:
    using WalkerT = engine::Walker;

    /**
     * @param sources          query source vertices.
     * @param walks_per_source walkers started from each source.
     * @param length           walk length (paper: 10).
     * @param record_visits    accumulate visit counts for estimates
     *        (off for pure throughput benches).
     */
    PersonalizedPageRank(std::vector<graph::VertexId> sources,
                         std::uint64_t walks_per_source,
                         std::uint32_t length, bool record_visits = false)
        : sources_(std::move(sources)),
          walks_per_source_(walks_per_source), length_(length),
          record_(record_visits)
    {
        if (record_) {
            visit_counts_.resize(sources_.size());
        }
    }

    /** Total walkers this application expects. */
    std::uint64_t
    total_walkers() const
    {
        return sources_.size() * walks_per_source_;
    }

    WalkerT
    generate(std::uint64_t n)
    {
        const std::size_t source_index =
            static_cast<std::size_t>(n / walks_per_source_);
        return WalkerT{n, sources_[source_index], 0};
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

    /** Step-kernel gather hint: uniform sampling touches one random
     *  target slot, so warming the head lines covers the common
     *  low-degree case outright (DESIGN.md §12). */
    unsigned
    gather(const WalkerT &, const graph::VertexView &view) const
    {
        return util::prefetch_range(view.targets.data(),
                                    view.targets.size_bytes(), 2);
    }

    /** Draw-hint refinement: with the probe copy the landing slot is
     *  exact rather than guessed, which matters on the high-degree
     *  vertices where steps concentrate (DESIGN.md §12). */
    unsigned
    gather(const WalkerT &, const graph::VertexView &view,
           util::Rng probe) const
    {
        return view.prefetch_uniform_draw(probe);
    }

    bool active(const WalkerT &w) const { return w.step < length_; }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        w.location = next;
        ++w.step;
        if (record_) {
            const std::size_t source_index =
                static_cast<std::size_t>(w.id / walks_per_source_);
            ++visit_counts_[source_index][next];
        }
        return true;
    }

    /**
     * Estimated PPR of @p v w.r.t. source index @p source_index:
     * visits(v) / total visits.  @pre record_visits was enabled.
     */
    double
    estimate(std::size_t source_index, graph::VertexId v) const
    {
        const auto &counts = visit_counts_[source_index];
        const auto it = counts.find(v);
        if (it == counts.end()) {
            return 0.0;
        }
        return static_cast<double>(it->second) /
               static_cast<double>(walks_per_source_ * length_);
    }

    /** Top-k vertices by estimated PPR for one source. */
    std::vector<std::pair<graph::VertexId, double>>
    top_k(std::size_t source_index, std::size_t k) const;

  private:
    std::vector<graph::VertexId> sources_;
    std::uint64_t walks_per_source_;
    std::uint32_t length_;
    bool record_;
    std::vector<std::unordered_map<graph::VertexId, std::uint32_t>>
        visit_counts_;
};

inline std::vector<std::pair<graph::VertexId, double>>
PersonalizedPageRank::top_k(std::size_t source_index, std::size_t k) const
{
    std::vector<std::pair<graph::VertexId, double>> out;
    const auto &counts = visit_counts_[source_index];
    out.reserve(counts.size());
    const double denom =
        static_cast<double>(walks_per_source_ * length_);
    for (const auto &[v, c] : counts) {
        out.emplace_back(v, static_cast<double>(c) / denom);
    }
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second != b.second ? a.second > b.second
                                    : a.first < b.first;
    });
    if (out.size() > k) {
        out.resize(k);
    }
    return out;
}

static_assert(engine::RandomWalkApp<PersonalizedPageRank>);
static_assert(engine::SlotDrawApp<PersonalizedPageRank>);
static_assert(engine::GatherHintApp<PersonalizedPageRank>);
static_assert(engine::DrawHintApp<PersonalizedPageRank>);

} // namespace noswalker::apps
