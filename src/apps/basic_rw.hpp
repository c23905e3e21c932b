/**
 * @file
 * Basic fixed-length unweighted random walk (the paper's Basic-RW
 * kernel, used by Figs 2, 10, 11, 12, 13, 14, 16, 17).
 */
#pragma once

#include <cstdint>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Uniform random walk of fixed length. */
class BasicRandomWalk {
  public:
    using WalkerT = engine::Walker;

    /**
     * @param length        steps per walker.
     * @param num_vertices  start vertices are spread over [0, V).
     * @param random_start  true: start vertex is a hash of the walker
     *        id (uniform over V); false: walker n starts at n mod V.
     */
    BasicRandomWalk(std::uint32_t length, graph::VertexId num_vertices,
                    bool random_start = true, std::uint64_t seed = 7)
        : length_(length), num_vertices_(num_vertices),
          random_start_(random_start), seed_(seed)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        graph::VertexId start;
        if (random_start_) {
            util::SplitMix64 mix(seed_ ^ n);
            start = static_cast<graph::VertexId>(mix.next() %
                                                 num_vertices_);
        } else {
            start = static_cast<graph::VertexId>(n % num_vertices_);
        }
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

    /** Step-kernel draw hint: dry-run the uniform draw on the probe
     *  copy and warm the exact target slot it lands on (DESIGN.md
     *  §12). */
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
        return true;
    }

    std::uint32_t length() const { return length_; }

  private:
    std::uint32_t length_;
    graph::VertexId num_vertices_;
    bool random_start_;
    std::uint64_t seed_;
};

static_assert(engine::RandomWalkApp<BasicRandomWalk>);
static_assert(engine::SlotDrawApp<BasicRandomWalk>);
static_assert(engine::DrawHintApp<BasicRandomWalk>);

} // namespace noswalker::apps
