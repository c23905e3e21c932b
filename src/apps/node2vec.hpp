/**
 * @file
 * Node2Vec second-order random walk (paper §4.5, Appendix A).
 *
 * The transition weight out of v for a walker that arrived from u is
 * 1/p toward u itself (d_ux = 0), 1 toward common neighbours of u
 * (d_ux = 1) and 1/q otherwise (d_ux = 2).  Sampling decouples through
 * rejection sampling: Action records a uniformly pre-sampled candidate
 * x and a trial height h ∈ [0, max(1/p, 1, 1/q)); Rejection accepts x
 * when h falls under x's dynamic weight, which requires only x's
 * adjacency (u ∈ N(x) on an undirected graph ⟺ x ∈ N(u)).
 *
 * Most trials never search that adjacency.  Once u is valid and x ≠ u,
 * x's weight is 1 or 1/q, so a height h ≤ min(1, 1/q) accepts and
 * h > max(1, 1/q) rejects whichever it is; only heights in between
 * binary-search N(x) for u.  This is KnightKing-style pre-acceptance:
 * the decision is exactly the weight rule's, only cheaper.
 */
#pragma once

#include <algorithm>
#include <cstdint>

#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace noswalker::apps {

/** Second-order Node2Vec walk (Algorithm 4). */
class Node2Vec {
  public:
    using WalkerT = engine::SecondOrderWalker;

    /**
     * @param p,q              return / in-out hyper-parameters
     *                         (paper: p = 2, q = 0.5).
     * @param length           accepted steps per walker.
     * @param num_vertices     vertex count.
     * @param walks_per_vertex walkers per start vertex (paper: 10).
     */
    Node2Vec(double p, double q, std::uint32_t length,
             graph::VertexId num_vertices,
             std::uint32_t walks_per_vertex = 10)
        : inv_p_(1.0 / p), inv_q_(1.0 / q), length_(length),
          num_vertices_(num_vertices), walks_per_vertex_(walks_per_vertex)
    {
        h_max_ = std::max({inv_p_, 1.0, inv_q_});
        settle_lo_ = std::min(1.0, inv_q_);
        settle_hi_ = std::max(1.0, inv_q_);
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
        WalkerT w;
        w.id = n;
        w.location = static_cast<graph::VertexId>(
            (n / walks_per_vertex_) % num_vertices_);
        w.step = 0;
        w.prev = graph::kInvalidVertex;
        w.candidate = graph::kInvalidVertex;
        return w;
    }

    /** Candidates are drawn uniformly; weights apply at rejection. */
    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return view.sample_uniform(rng);
    }

    /**
     * Step-kernel gather hint (DESIGN.md §12).  With a trial pending,
     * @p view is the candidate's adjacency: when the height leaves the
     * trial undecided, rejection() binary searches it for w.prev — warm
     * the search's first two probe levels; otherwise it reads nothing.
     * Without a trial the next touch is a uniform candidate draw from
     * the head of the list.
     */
    unsigned
    gather(const WalkerT &w, const graph::VertexView &view) const
    {
        const std::size_t n = view.targets.size();
        if (n == 0) {
            return 0;
        }
        if (w.candidate != graph::kInvalidVertex && view.id == w.candidate) {
            if (settle(w) != Trial::kSearch) {
                return 0;
            }
            // lower_bound probes the middle, then the middle of the
            // half it keeps.
            const std::size_t half = n / 2;
            const std::size_t upper = half + 1 + (n - half - 1) / 2;
            util::prefetch_line(&view.targets[half]);
            util::prefetch_line(&view.targets[half / 2]);
            util::prefetch_line(&view.targets[std::min(upper, n - 1)]);
            return 3;
        }
        return util::prefetch_range(view.targets.data(),
                                    view.targets.size_bytes(), 2);
    }

    bool active(const WalkerT &w) const { return w.step < length_; }

    /** Record a candidate + trial height (Algorithm 4 lines 8-12). */
    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        if (w.candidate != graph::kInvalidVertex) {
            return false; // trial pending; sample not consumed
        }
        w.candidate = next;
        w.h = static_cast<float>(rng.next_double(h_max_));
        return true;
    }

    bool
    has_candidate(const WalkerT &w) const
    {
        return w.candidate != graph::kInvalidVertex;
    }

    graph::VertexId candidate(const WalkerT &w) const
    {
        return w.candidate;
    }

    /**
     * Resolve the trial given the *candidate's* adjacency
     * (Algorithm 4 lines 13-24).  @return true when accepted (= the
     * walker moved one step).
     */
    bool
    rejection(WalkerT &w, const graph::VertexView &candidate_view,
              util::Rng &)
    {
        const Trial trial = settle(w);
        bool accept = trial == Trial::kAccept;
        if (trial == Trial::kSearch) {
            // d = 1 (undirected: prev ∈ N(candidate)), else d = 2.
            accept = w.h <= (candidate_view.has_target(w.prev) ? 1.0
                                                               : inv_q_);
        }
        if (accept) {
            w.prev = w.location;
            w.location = w.candidate;
            ++w.step;
        }
        w.candidate = graph::kInvalidVertex;
        return accept;
    }

    double h_max() const { return h_max_; }

  private:
    /** What a pending trial's height decides before any search. */
    enum class Trial : std::uint8_t { kAccept, kReject, kSearch };

    Trial
    settle(const WalkerT &w) const
    {
        if (w.prev == graph::kInvalidVertex) {
            // First step is uniform: weight h_max, always accept.
            return w.h <= h_max_ ? Trial::kAccept : Trial::kReject;
        }
        if (w.candidate == w.prev) {
            return w.h <= inv_p_ ? Trial::kAccept : Trial::kReject; // d = 0
        }
        // The weight is 1 or 1/q: a height under both or over both
        // decides the trial whichever it is.
        if (w.h <= settle_lo_) {
            return Trial::kAccept;
        }
        if (w.h > settle_hi_) {
            return Trial::kReject;
        }
        return Trial::kSearch;
    }

    double inv_p_;
    double inv_q_;
    double h_max_;
    double settle_lo_; ///< min(1, 1/q): heights at or under accept
    double settle_hi_; ///< max(1, 1/q): heights over it reject
    std::uint32_t length_;
    graph::VertexId num_vertices_;
    std::uint32_t walks_per_vertex_;
};

static_assert(engine::SecondOrderApp<Node2Vec>);
static_assert(engine::GatherHintApp<Node2Vec>);

} // namespace noswalker::apps
