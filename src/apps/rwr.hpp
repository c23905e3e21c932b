/**
 * @file
 * Random Walk with Restart (Tong et al., ICDM'06 — the paper's [62,63]).
 *
 * Each step the walker teleports back to its source with probability
 * `restart`, otherwise follows a uniform out-edge; the stationary visit
 * frequencies give RWR proximity scores.  The restart decision lives in
 * Action (it needs no edge data), so pre-sampled edges stay valid: a
 * restart simply consumes no sample.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Fixed-budget random walk with restart from a single source. */
class RandomWalkWithRestart {
  public:
    using WalkerT = engine::Walker;

    /**
     * @param source        query vertex; every walker starts (and
     *                      restarts) here.
     * @param num_walkers   independent walkers.
     * @param steps_each    step budget per walker (restarts included).
     * @param restart       teleport probability (typically 0.15).
     * @param record_visits accumulate proximity counts.
     */
    RandomWalkWithRestart(graph::VertexId source,
                          std::uint64_t num_walkers,
                          std::uint32_t steps_each, double restart = 0.15,
                          bool record_visits = true)
        : source_(source), num_walkers_(num_walkers),
          steps_each_(steps_each), restart_(restart),
          record_(record_visits)
    {
    }

    std::uint64_t total_walkers() const { return num_walkers_; }

    WalkerT
    generate(std::uint64_t n)
    {
        return WalkerT{n, source_, 0};
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

    bool active(const WalkerT &w) const { return w.step < steps_each_; }

    /**
     * With probability `restart` the walker teleports home and the
     * supplied pre-sample is NOT consumed (returns false); otherwise
     * it moves along the sampled edge.
     */
    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        ++w.step;
        if (rng.next_bool(restart_)) {
            w.location = source_;
            note_visit(source_);
            return false; // sample unused: stays in the buffer
        }
        w.location = next;
        note_visit(next);
        return true;
    }

    /** Estimated RWR proximity of @p v (visit share). */
    double
    proximity(graph::VertexId v) const
    {
        const auto it = visits_.find(v);
        if (it == visits_.end()) {
            return 0.0;
        }
        return static_cast<double>(it->second) /
               static_cast<double>(num_walkers_ * steps_each_);
    }

    /** Top-k vertices by proximity. */
    std::vector<std::pair<graph::VertexId, double>>
    top_k(std::size_t k) const
    {
        std::vector<std::pair<graph::VertexId, double>> out;
        out.reserve(visits_.size());
        const double denom =
            static_cast<double>(num_walkers_ * steps_each_);
        for (const auto &[v, c] : visits_) {
            out.emplace_back(v, static_cast<double>(c) / denom);
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
    void
    note_visit(graph::VertexId v)
    {
        if (record_) {
            ++visits_[v];
        }
    }

    graph::VertexId source_;
    std::uint64_t num_walkers_;
    std::uint32_t steps_each_;
    double restart_;
    bool record_;
    std::unordered_map<graph::VertexId, std::uint64_t> visits_;
};

static_assert(engine::RandomWalkApp<RandomWalkWithRestart>);
static_assert(engine::SlotDrawApp<RandomWalkWithRestart>);

} // namespace noswalker::apps
