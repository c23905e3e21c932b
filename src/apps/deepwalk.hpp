/**
 * @file
 * DeepWalk-style corpus generation.
 *
 * The motivating pipeline of the paper (§2.1): extract a large corpus
 * of random walk sequences to feed a skip-gram embedding trainer.  The
 * sink receives every completed sequence; examples/deepwalk_corpus
 * writes them to a text corpus file.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Walk-sequence generator with a completion callback per sequence. */
class DeepWalk {
  public:
    using WalkerT = engine::Walker;
    using SequenceSink =
        std::function<void(std::uint64_t walker_id,
                           const std::vector<graph::VertexId> &sequence)>;

    /**
     * @param num_vertices     walker n starts at n mod V (DeepWalk
     *                         iterates the vertex set).
     * @param walks_per_vertex corpus passes over the vertex set.
     * @param length           sequence length.
     * @param sink             invoked once per completed sequence.
     */
    DeepWalk(graph::VertexId num_vertices, std::uint32_t walks_per_vertex,
             std::uint32_t length, SequenceSink sink)
        : num_vertices_(num_vertices),
          walks_per_vertex_(walks_per_vertex), length_(length),
          sink_(std::move(sink))
    {
    }

    std::uint64_t
    total_walkers() const
    {
        return static_cast<std::uint64_t>(num_vertices_) *
               walks_per_vertex_;
    }

    WalkerT
    generate(std::uint64_t n)
    {
        const auto start =
            static_cast<graph::VertexId>(n % num_vertices_);
        auto &seq = live_sequences_[n];
        seq.clear();
        seq.reserve(length_ + 1);
        seq.push_back(start);
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

    bool
    active(const WalkerT &w) const
    {
        return w.step < length_;
    }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        w.location = next;
        ++w.step;
        auto &seq = live_sequences_[w.id];
        seq.push_back(next);
        if (w.step == length_ && sink_) {
            sink_(w.id, seq);
            live_sequences_.erase(w.id);
        }
        return true;
    }

  private:
    graph::VertexId num_vertices_;
    std::uint32_t walks_per_vertex_;
    std::uint32_t length_;
    SequenceSink sink_;
    std::unordered_map<std::uint64_t, std::vector<graph::VertexId>>
        live_sequences_;
};

static_assert(engine::RandomWalkApp<DeepWalk>);
static_assert(engine::SlotDrawApp<DeepWalk>);

} // namespace noswalker::apps
