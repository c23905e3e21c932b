/**
 * @file
 * Random Walk Domination (§4.2 application 3): one walker of length 6
 * per vertex; vertices are ranked by how often walks visit them, which
 * approximates the maximum-influence vertex set.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Visit-count collector: one walker per vertex. */
class RandomWalkDomination {
  public:
    using WalkerT = engine::Walker;

    /**
     * @param num_vertices  walker n starts at vertex n.
     * @param length        walk length (paper: 6).
     * @param record_visits accumulate the per-vertex visit counts.
     */
    RandomWalkDomination(graph::VertexId num_vertices, std::uint32_t length,
                         bool record_visits = true)
        : num_vertices_(num_vertices), length_(length),
          record_(record_visits)
    {
        if (record_) {
            visits_.assign(num_vertices, 0);
        }
    }

    /** Total walkers (= |V|). */
    std::uint64_t total_walkers() const { return num_vertices_; }

    WalkerT
    generate(std::uint64_t n)
    {
        return WalkerT{n, static_cast<graph::VertexId>(n % num_vertices_),
                       0};
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
        if (record_) {
            ++visits_[next];
        }
        return true;
    }

    /** Visit count of @p v. @pre record_visits. */
    std::uint32_t visits(graph::VertexId v) const { return visits_[v]; }

    /** The k most-visited vertices (the dominating-set candidates). */
    std::vector<std::pair<graph::VertexId, std::uint32_t>>
    top_k(std::size_t k) const
    {
        std::vector<std::pair<graph::VertexId, std::uint32_t>> out;
        out.reserve(num_vertices_);
        for (graph::VertexId v = 0; v < num_vertices_; ++v) {
            if (visits_[v] > 0) {
                out.emplace_back(v, visits_[v]);
            }
        }
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                  });
        if (out.size() > k) {
            out.resize(k);
        }
        return out;
    }

  private:
    graph::VertexId num_vertices_;
    std::uint32_t length_;
    bool record_;
    std::vector<std::uint32_t> visits_;
};

static_assert(engine::RandomWalkApp<RandomWalkDomination>);
static_assert(engine::SlotDrawApp<RandomWalkDomination>);

} // namespace noswalker::apps
