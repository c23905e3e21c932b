/**
 * @file
 * Graphlet Concentration by path sampling (§4.2 application 4).
 *
 * Estimates the triangle concentration: walkers of length 3 sample
 * paths v0→v1→v2(→v3); a sampled 2-path closes into a triangle when
 * the edge v2→v0 exists.  The walk (I/O heavy part) runs out-of-core;
 * the closure test is answered post-hoc against the in-memory
 * reference CSR, documented as an oracle substitution in DESIGN.md.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Triangle-concentration estimator via 3-step walks. */
class GraphletConcentration {
  public:
    using WalkerT = engine::Walker;

    /** Paper setting: |V|/100 walkers of length 3, random starts. */
    GraphletConcentration(graph::VertexId num_vertices,
                          std::uint64_t num_walkers,
                          std::uint32_t length = 3, std::uint64_t seed = 7)
        : num_vertices_(num_vertices), num_walkers_(num_walkers),
          length_(length), seed_(seed),
          paths_(num_walkers * (length + 1), graph::kInvalidVertex)
    {
    }

    std::uint64_t total_walkers() const { return num_walkers_; }

    WalkerT
    generate(std::uint64_t n)
    {
        util::SplitMix64 mix(seed_ ^ n);
        const auto start =
            static_cast<graph::VertexId>(mix.next() % num_vertices_);
        paths_[n * (length_ + 1)] = start;
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
        paths_[w.id * (length_ + 1) + w.step] = next;
        return true;
    }

    /**
     * Fraction of sampled 2-paths (v0,v1,v2) with distinct vertices
     * that close into a triangle, tested against @p reference.
     */
    double
    triangle_concentration(const graph::CsrGraph &reference) const
    {
        std::uint64_t valid = 0;
        std::uint64_t closed = 0;
        for (std::uint64_t n = 0; n < num_walkers_; ++n) {
            const graph::VertexId v0 = paths_[n * (length_ + 1)];
            const graph::VertexId v1 = paths_[n * (length_ + 1) + 1];
            const graph::VertexId v2 = paths_[n * (length_ + 1) + 2];
            if (v1 == graph::kInvalidVertex ||
                v2 == graph::kInvalidVertex) {
                continue; // dead-ended before two steps
            }
            if (v0 == v1 || v1 == v2 || v0 == v2) {
                continue;
            }
            ++valid;
            if (reference.has_edge(v2, v0)) {
                ++closed;
            }
        }
        return valid == 0 ? 0.0
                          : static_cast<double>(closed) /
                                static_cast<double>(valid);
    }

  private:
    graph::VertexId num_vertices_;
    std::uint64_t num_walkers_;
    std::uint32_t length_;
    std::uint64_t seed_;
    std::vector<graph::VertexId> paths_;
};

static_assert(engine::RandomWalkApp<GraphletConcentration>);
static_assert(engine::SlotDrawApp<GraphletConcentration>);

} // namespace noswalker::apps
