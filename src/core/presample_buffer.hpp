/**
 * @file
 * Compact pre-sampled-edge buffer (§3.3.2 — §3.3.4).
 *
 * One buffer serves one coarse block's vertex range.  Layout mirrors
 * the paper's Figure 8: a meta array of (idx, cnt) per vertex and a
 * flat edges array holding each vertex's pre-sampled destinations
 * contiguously.  cnt counts consumed samples *and* stall visits, so it
 * doubles as the visit-frequency estimate the rebuild step uses to
 * reallocate quotas proportionally.
 *
 * Consumption model: a filled vertex's slots form a bootstrap
 * reservoir for the current buffer generation — each walker draws a
 * slot *with replacement* using its own deterministic RNG stream, and
 * consume() advances an atomic per-vertex cursor.  Drawing from the
 * walker's stream instead of handing out slots in arrival order is
 * what makes walk output independent of how walkers interleave across
 * step threads.  Drying is *round-published*: the one increment that
 * moves a vertex's cursor onto its quota appends the vertex to a dry
 * list, and publish_drain() marks the listed vertices dry — work only
 * for the vertices that ran dry, not a copy of every cursor.  The
 * engine publishes only at shard barriers (between step rounds), so
 * every walker in a round sees the same availability state — the
 * round in which a vertex runs dry depends on deterministic per-round
 * draw totals, never on thread interleaving — while a dried vertex
 * still stalls walkers until its block reloads and a fresh generation
 * re-samples it, bounding how long any reservoir can serve (the
 * paper's §3.3.2 consume-once queue gives the same bound; the
 * with-replacement + round-published variant trades a small per-round
 * overshoot for thread-count determinism; see DESIGN.md §9).
 *
 * Low-degree vertices (§3.3.4) get their full edge list "reserved"
 * instead of samples: their slots hold the real adjacency (plus weights
 * on weighted graphs) and never run dry — the engine re-samples from
 * the reserved view on every visit.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "util/memory_budget.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace noswalker::core {

/** Per-block pre-sample store. */
class PreSampleBuffer {
  public:
    /** Allocation inputs for (re)building a buffer. */
    struct BuildParams {
        /** Byte cap for this buffer (meta + slots). */
        std::uint64_t max_bytes = 0;
        /** Baseline samples per (visited) vertex. */
        std::uint32_t base_quota = 4;
        /** Cap on samples for one vertex. */
        std::uint32_t max_quota = 64;
        /** Degree at or below which edges are reserved directly. */
        std::uint32_t low_degree_cutoff = 2;
    };

    /**
     * A planned allocation: per-vertex slot offsets and direct flags
     * plus the exact bytes the buffer will charge.  A rebuild plans
     * once, before reserving, so fitting it into the pool costs
     * evictions, never re-plans.  rebuild() swaps storage with the
     * plan, so one Plan reused across rebuilds reuses its vectors too.
     */
    struct Plan {
        std::uint32_t block_id = 0;
        graph::VertexId first_vertex = 0;
        bool weighted = false;
        std::vector<std::uint32_t> idx;   ///< slot offsets, nv + 1
        std::vector<std::uint8_t> direct; ///< full-edge reservation flag
        /** Meta arrays + slots, computed from sizes (not capacities). */
        std::uint64_t bytes = 0;
    };

    /**
     * Plan the allocation for @p block of @p file into @p out.
     *
     * @param previous  the block's previous buffer generation (or null);
     *                  its cnt values weight the new quotas.  May be the
     *                  buffer about to be rebuilt from @p out.
     * @return false when even the meta array cannot fit
     *         params.max_bytes (@p out is then unusable).
     */
    static bool plan(const graph::GraphFile &file,
                     const graph::BlockInfo &block,
                     const BuildParams &params,
                     const PreSampleBuffer *previous, Plan &out);

    /** An empty buffer serving no block until rebuild(). */
    PreSampleBuffer() = default;

    /**
     * plan() + rebuild() on fresh storage, reserving from @p budget.
     *
     * @throws util::BudgetExceeded when even the meta array cannot fit
     *         params.max_bytes, or @p budget cannot hold the plan.
     */
    PreSampleBuffer(const graph::GraphFile &file,
                    const graph::BlockInfo &block, const BuildParams &params,
                    const PreSampleBuffer *previous,
                    util::MemoryBudget &budget);

    /**
     * Become the planned-but-unfilled buffer @p plan describes,
     * reusing this buffer's storage, and hold @p charge (plan.bytes)
     * instead of the old reservation.  The old generation's samples,
     * cursors and history are gone; @p plan gets the old storage.
     *
     * The engine then streams the block once and calls fill_vertex per
     * vertex (different vertices may be filled from different threads).
     */
    void rebuild(Plan &plan, util::Reservation charge);

    /** Block this buffer serves. */
    std::uint32_t block_id() const { return block_id_; }

    /** First vertex of the served range. */
    graph::VertexId first_vertex() const { return first_vertex_; }

    /** Vertices in the served range. */
    graph::VertexId
    num_vertices() const
    {
        return static_cast<graph::VertexId>(idx_.size() - 1);
    }

    /** Slots allocated to @p v (0 when none). */
    std::uint32_t
    quota(graph::VertexId v) const
    {
        const std::size_t i = index_of(v);
        return idx_[i + 1] - idx_[i];
    }

    /**
     * Fill vertex @p v's slots from its loaded adjacency.
     * Direct vertices copy edges (and weights); sampled vertices invoke
     * @p sampler quota times.  @p sampler is `app.sample` bound to an
     * rng.  Thread safe across *distinct* vertices (disjoint ranges).
     */
    template <typename Sampler>
    void
    fill_vertex(const graph::VertexView &view, Sampler &&sampler)
    {
        assert(view.whole()); // fills come from coarse loads only
        const std::size_t i = index_of(view.id);
        const std::uint32_t slots = idx_[i + 1] - idx_[i];
        if (slots == 0) {
            return;
        }
        state_[i] |= kFilled;
        graph::VertexId *out = edges_.data() + idx_[i];
        if (direct_[i]) {
            for (std::uint32_t k = 0; k < slots; ++k) {
                out[k] = view.targets[k];
            }
            if (!dweights_.empty() && !view.weights.empty()) {
                graph::Weight *w = dweights_.data() + idx_[i];
                for (std::uint32_t k = 0; k < slots; ++k) {
                    w[k] = view.weights[k];
                }
            }
        } else {
            for (std::uint32_t k = 0; k < slots; ++k) {
                out[k] = sampler(view);
            }
        }
    }

    /**
     * True when @p v can serve a draw: filled this generation and not
     * yet dry *as of the last publish_drain()*.  Direct vertices never
     * dry (they hold the real adjacency, §3.3.4).
     */
    bool
    has(graph::VertexId v) const
    {
        const std::size_t i = index_of(v);
        const std::uint8_t state = state_[i];
        if ((state & kFilled) == 0) {
            return false;
        }
        return direct_[i] || (state & kDry) == 0;
    }

    /**
     * Mark the vertices that ran dry since the last call dry for
     * has().  Scheduler thread only, between step rounds: the pool's
     * fork-join barrier orders the workers' list appends before these
     * plain writes and these writes before the next round's reads, and
     * round-granular visibility is what keeps the drying point
     * identical at any step-thread count.
     */
    void
    publish_drain()
    {
        const std::uint32_t n = dry_count_.load(std::memory_order_relaxed);
        for (std::uint32_t k = 0; k < n; ++k) {
            state_[dry_[k]] |= kDry;
        }
        dry_count_.store(0, std::memory_order_relaxed);
    }

    /** Vertices that ran dry since the last publish_drain(). */
    std::uint32_t
    dry_pending() const
    {
        return dry_count_.load(std::memory_order_relaxed);
    }

    /** True when @p v's full edge list is reserved (§3.3.4). */
    bool
    is_direct(graph::VertexId v) const
    {
        const std::size_t i = index_of(v);
        return (state_[i] & kFilled) != 0 && direct_[i];
    }

    /**
     * Reserved-edge view of a direct vertex (targets + weights when the
     * graph is weighted).  @pre is_direct(v).
     */
    graph::VertexView direct_view(graph::VertexId v) const;

    /**
     * Draw one pre-sample of @p v using the walker's own stream.
     * @pre has(v) && !is_direct(v).
     */
    graph::VertexId
    sample(graph::VertexId v, util::Rng &rng) const
    {
        const std::size_t i = index_of(v);
        const std::uint32_t begin = idx_[i];
        const std::uint32_t n = idx_[i + 1] - begin;
        return edges_[begin + rng.next_index(n)];
    }

    /**
     * Hint the slot a sample() draw of @p v reads: dry-run the draw on
     * @p probe — a copy of the exact per-event stream sample() will
     * consume — and prefetch the one slot it lands on (DESIGN.md §12).
     * Pure read hint; never touches cursors.
     * @return the number of hints issued.  @pre has(v) && !is_direct(v).
     */
    unsigned
    prefetch_draw(graph::VertexId v, util::Rng probe) const
    {
        const std::size_t i = index_of(v);
        const std::uint32_t begin = idx_[i];
        const std::uint32_t n = idx_[i + 1] - begin;
        util::prefetch_line(&edges_[begin + probe.next_index(n)]);
        return 1;
    }

    /** Account one consumed draw of @p v (thread safe). */
    void
    consume(graph::VertexId v)
    {
        count(index_of(v));
        consumed_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Fraction of allocated (non-direct) slots consumed so far (may
     *  exceed 1: draws are with replacement). */
    double
    consumed_fraction() const
    {
        const std::uint64_t slots = edges_.size();
        return slots == 0
                   ? 1.0
                   : static_cast<double>(
                         consumed_.load(std::memory_order_relaxed)) /
                         static_cast<double>(slots);
    }

    /** Record a visit that found no sample (stall); feeds the history.
     *  Thread safe. */
    void
    record_visit(graph::VertexId v)
    {
        count(index_of(v));
        stalled_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Stall visits since this buffer generation was built — the
     *  unmet-demand signal the engine's rebuild heuristic uses. */
    std::uint64_t
    stall_count() const
    {
        return stalled_.load(std::memory_order_relaxed);
    }

    /** Total slots allocated in this generation. */
    std::uint64_t slot_count() const { return edges_.size(); }

    /** Visit/consumption history of @p v (the rebuild weight).  Read
     *  between step rounds, never while consumers count. */
    std::uint32_t
    visits(graph::VertexId v) const
    {
        return cnt_[index_of(v)];
    }

    /** Bytes reserved against the budget. */
    std::uint64_t memory_bytes() const { return reservation_.bytes(); }

    /** Give the charge back (an evicted buffer kept for its storage;
     *  rebuild() charges it again). */
    void release() { reservation_.release(); }

  private:
    /** state_ bits: filled this generation; published dry. */
    static constexpr std::uint8_t kFilled = 1;
    static constexpr std::uint8_t kDry = 2;

    std::size_t
    index_of(graph::VertexId v) const
    {
        return static_cast<std::size_t>(v - first_vertex_);
    }

    /** Bump vertex @p i's cursor; the one increment that lands it on
     *  the quota lists the vertex for the next publish_drain().  The
     *  cursor starts at zero each generation and only grows, so a
     *  vertex is listed at most once and the list never outgrows nv. */
    void
    count(std::size_t i)
    {
        const std::uint32_t before =
            std::atomic_ref<std::uint32_t>(cnt_[i]).fetch_add(
                1, std::memory_order_relaxed);
        if (before + 1 == idx_[i + 1] - idx_[i]) {
            dry_[dry_count_.fetch_add(1, std::memory_order_relaxed)] =
                static_cast<std::uint32_t>(i);
        }
    }

    std::uint32_t block_id_ = 0;
    graph::VertexId first_vertex_ = 0;
    bool weighted_ = false;
    std::vector<std::uint32_t> idx_; ///< size nv+1
    /** Consumed draws + stall visits per vertex; counted through
     *  std::atomic_ref so rebuilds can reuse the storage. */
    std::vector<std::uint32_t> cnt_;
    static_assert(std::atomic_ref<std::uint32_t>::required_alignment <=
                  alignof(std::uint32_t));
    /** Vertices (offsets from first_vertex_) that ran dry since the
     *  last publish_drain(); nv entries, the first dry_count_ valid. */
    std::vector<std::uint32_t> dry_;
    std::atomic<std::uint32_t> dry_count_{0};
    std::vector<std::uint8_t> direct_;   ///< full-edge reservation flag
    std::vector<std::uint8_t> state_;    ///< kFilled | kDry
    std::vector<graph::VertexId> edges_; ///< slot storage
    std::vector<graph::Weight> dweights_; ///< weights for direct slots
    std::atomic<std::uint64_t> consumed_{0}; ///< total draws (drain estimate)
    std::atomic<std::uint64_t> stalled_{0};  ///< stall visits since build
    util::Reservation reservation_;
};

} // namespace noswalker::core
