/**
 * @file
 * The engine's step loop: an interleaved cohort kernel (DESIGN.md §12).
 *
 * Stepping one walker at a time issues a dependent chain of cold reads
 * per step — the CSR offset entry, then the adjacency/alias lines, then
 * the sampled target — and the core stalls on each miss.  ThunderRW
 * showed 3–5× on exactly this loop shape from *step interleaving*: keep
 * a small cohort of walkers in flight and hide one walker's miss behind
 * useful work on the others.
 *
 * This kernel rotates a worker shard's records through a ring of kLanes
 * lanes (fewer when the span is shorter; a one-record span is a
 * one-lane ring).  Each rotation is two stages:
 *
 *   1. **resolve + gather** — for every lane, decide which resident
 *      source will serve the walker's next event by the paper's step
 *      rule (§3.3.5, Algorithm 1 l.9-12: the loaded block first, then
 *      the pre-samples — a reservoir draw or a direct low-degree
 *      reservation — else park; for second-order walkers, the pending
 *      candidate's adjacency; a fine-loaded block serves a SlotDrawApp
 *      walker once the page its draw lands on is resident), then
 *      issue software prefetches for the bytes the draw will touch.
 *      The event's RNG is constructed here from the walker's own
 *      stream, so draw-hint apps can dry-run the draw on a copy and
 *      name the *exact* line sample() will read (DrawHintApp); other
 *      apps fall back to head-line hints
 *      (GatherHintApp / gather_prefetch).  Resolution is *pure* apart
 *      from the walker's own rng_state advance: it reads only per-round
 *      immutable state (block residency, published dry marks,
 *      CSR degrees), so no lane's resolution depends on another lane's
 *      progress.
 *   2. **sample + advance** — consume the prefetched lines: draw from
 *      the walker's private stream, apply the app action, and either
 *      keep the lane (the walker can move again next rotation) or bank
 *      its outcome and refill the lane with the next pending record.
 *
 * Output does not depend on the lane count or on how spans are cut:
 * each walker's own event sequence (decision + RNG draws) runs in its
 * own order; the only cross-walker state touched mid-round is
 * commutative atomics never read back before the round barrier
 * (DESIGN.md §9); and every walker's outcome is banked in place — its
 * terminal record back into its input slot, its fate (destination
 * block, kDestRetired or kDestEmigrant) into the engine's dest array —
 * so the engine's single index-order pass after the barrier sees the
 * same sequence however the spans were cut.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/presample_buffer.hpp"
#include "engine/app.hpp"
#include "engine/run_stats.hpp"
#include "graph/graph_file.hpp"
#include "storage/block_reader.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace noswalker::core {

/** A banked fate in the engine's dest array when the walker parks
 *  nowhere: it retired, or another shard owns its waiting block.  Block
 *  ids stay far below both. */
inline constexpr std::uint32_t kDestRetired = ~std::uint32_t{0};
inline constexpr std::uint32_t kDestEmigrant = kDestRetired - 1;

/**
 * The step loop over one worker shard's records.
 *
 * @tparam E  the owning NosWalkerEngine instantiation (friend access:
 *            the kernel reads the engine's per-round state).
 */
template <typename E>
class StepKernel {
  public:
    using App = typename E::AppT;
    using Record = typename E::Record;
    /** A step worker's counters: retired walkers count in walkers. */
    using Delta = engine::RunStats;

    /** Lanes in the ring (DESIGN.md §12). */
    static constexpr std::size_t kLanes = 16;

    /**
     * Step records[begin, end) to their park/retire points, accumulating
     * counters into @p delta.  Each walker's terminal record goes back
     * into its own slot of @p records and its fate into the same slot of
     * @p dest: a destination block id, kDestRetired or kDestEmigrant
     * (the record of a retired walker is left unspecified).  Runs on
     * step workers: writes only its own slots, @p delta, the walkers
     * themselves and pre-sample atomics.  Allocates nothing.
     */
    static void
    run(E &eng, App &app, std::vector<Record> &records,
        std::vector<std::uint32_t> &dest, std::size_t begin,
        std::size_t end, const storage::BlockBuffer *buf, Delta &delta)
    {
        const std::size_t width = std::min(end - begin, kLanes);
        // Raw lane storage: only the lanes the span uses are built.
        static_assert(std::is_trivially_destructible_v<Lane>);
        alignas(Lane) std::byte storage[kLanes * sizeof(Lane)];
        for (std::size_t i = 0; i < width; ++i) {
            ::new (static_cast<void *>(storage + i * sizeof(Lane))) Lane;
        }
        Lane *const lanes = std::launder(reinterpret_cast<Lane *>(storage));

        std::size_t next = begin;
        std::size_t live = 0;
        for (std::size_t i = 0; i < width; ++i) {
            admit(eng, app, lanes[i], records, next, delta);
            ++live;
        }

        // Distance the resolve stage runs ahead of the execute point.
        // Small on purpose: each resolved lane has 2-4 prefetches in
        // flight, and a core tracks only ~10-12 outstanding fills —
        // resolving the whole ring up front (the naive two-phase shape)
        // would drop most hints.
        constexpr std::size_t kLookahead = 4;

        while (live > 0) {
            ++delta.kernel_cohorts;
            // One rotation, software-pipelined: prime a resolve window
            // of kLookahead lanes, then march — execute the lane whose
            // prefetches have had the longest to land, resolve the next
            // unresolved lane behind it.  Every live lane is resolved
            // exactly once before it executes; resolution reads only
            // per-round immutable state (residency, degrees, dry
            // marks), so executing lane i never perturbs lane j's
            // resolution and per-walker step order is untouched.
            std::size_t ahead = 0;
            while (ahead < width && ahead < kLookahead) {
                if (lanes[ahead].live) {
                    resolve(eng, app, buf, lanes[ahead], delta);
                }
                ++ahead;
            }
            for (std::size_t i = 0; i < width; ++i) {
                Lane &lane = lanes[i];
                if (lane.live &&
                    !execute(eng, app, lane, delta, records, dest)) {
                    // Lane finished and banked: pull the next pending
                    // record into the freed lane (resolved next
                    // rotation).
                    if (next < end) {
                        admit(eng, app, lane, records, next, delta);
                    } else {
                        lane.live = false;
                        --live;
                    }
                }
                if (ahead < width) {
                    if (lanes[ahead].live) {
                        resolve(eng, app, buf, lanes[ahead], delta);
                    }
                    ++ahead;
                }
            }
        }
    }

  private:
    /** Which resident source serves the lane's next event. */
    enum class Source : std::uint8_t {
        kUnresolved,
        kBlock,     ///< adjacency from the loaded block buffer
        kPsSample,  ///< reserved pre-sample reservoir draw
        kPsDirect,  ///< low-degree direct reservation view
        kCandidate, ///< second-order rejection trial, view resident
        kRetire,    ///< walker done (inactive or dead end)
        kStall,     ///< no resident source: park or emigrate
    };

    struct Lane {
        std::size_t slot = 0; ///< input position: where it banks
        Record rec{};
        Source source = Source::kUnresolved;
        graph::VertexView view{};
        PreSampleBuffer *ps = nullptr;
        graph::VertexId v = 0;
        /** kStall: the waiting vertex's block, found during resolve. */
        std::uint32_t block = 0;
        /**
         * The event's RNG, constructed at *resolve* time for sampling
         * sources.  Per-walker stream order is unchanged (resolve and
         * execute of one event are adjacent in the walker's own
         * sequence), and having the generator a stage early lets the
         * gather hooks dry-run the draw on a copy and prefetch the
         * exact line sample() will read (DrawHintApp).
         */
        util::Rng rng{};
        bool ps_visit = false;    ///< record_visit(v) owed on execute
        bool count_stall = false; ///< advance stall (not candidate park)
        bool live = false;
    };

    /** Load records[next] into @p lane and warm its CSR offset entry. */
    static void
    admit(E &eng, const App &app, Lane &lane, std::vector<Record> &records,
          std::size_t &next, Delta &delta)
    {
        lane.slot = next;
        lane.rec = std::move(records[next]);
        ++next;
        lane.live = true;
        lane.source = Source::kUnresolved;
        const graph::VertexId v = engine::waiting_vertex(app, lane.rec.w);
        delta.kernel_prefetches += util::prefetch_range(
            eng.file_->offsets().data() + v, 2 * sizeof(graph::EdgeIndex),
            2);
    }

    static bool
    block_has(const E &eng, const storage::BlockBuffer *buf,
              graph::VertexId v)
    {
        return buf != nullptr && buf->vertex_loaded(*eng.file_, v);
    }

    /**
     * The slot to decode @p buf's view of @p v with for the sampling
     * event of @p rec (@p degree > 0), or nothing when @p buf does not
     * serve it.  A complete buffer holding v serves the whole record; a
     * fine one serves the window of the slot the draw lands on once
     * that slot's page is resident — the whole record for apps without
     * the SlotDrawApp hook (DESIGN.md §12).  The draw is dry-run once,
     * on a copy of the walker's stream.
     */
    static std::optional<std::uint32_t>
    block_serves(const E &eng, const App &app,
                 const storage::BlockBuffer *buf, const Record &rec,
                 graph::VertexId v, std::uint32_t degree)
    {
        if (buf == nullptr || buf->info() == nullptr ||
            !buf->info()->contains(v)) {
            return std::nullopt;
        }
        std::uint32_t slot = graph::kWholeRecord;
        if constexpr (engine::kHasSlotDraw<App>) {
            if (!buf->complete()) {
                slot = engine::next_draw_slot(app, rec, degree);
            }
        }
        if (!buf->vertex_loaded(*eng.file_, v, slot)) {
            return std::nullopt;
        }
        return slot;
    }

    /**
     * App-refined (or generic) prefetch of what the draw will read.
     * @p rng is the event's already-constructed generator; draw-hint
     * apps get a copy to dry-run the draw against, so the hint names
     * the exact line rather than the span's head.
     */
    static void
    gather(const App &app, const Record &rec,
           const graph::VertexView &view, const util::Rng &rng,
           Delta &delta)
    {
        if constexpr (engine::kHasDrawHint<App>) {
            delta.kernel_prefetches += app.gather(rec.w, view, rng);
        } else if constexpr (engine::kHasGatherHint<App>) {
            delta.kernel_prefetches += app.gather(rec.w, view);
        } else {
            delta.kernel_prefetches += view.gather_prefetch();
        }
    }

    /**
     * Stage 1 for one lane: the step rule's decision, split from its
     * side effects.  Reads only per-round immutable state, so the
     * resolution is independent of the other lanes' stage-2 progress.
     * Flattened, like execute(): at -O2 GCC otherwise leaves the
     * per-step lookups (view decode, block_of, RNG seeding) as calls.
     */
    [[gnu::flatten]] static void
    resolve(E &eng, App &app, const storage::BlockBuffer *buf, Lane &lane,
            Delta &delta)
    {
        Record &rec = lane.rec;
        lane.ps = nullptr;
        lane.ps_visit = false;
        lane.count_stall = false;
        if constexpr (E::kSecondOrder) {
            if (app.has_candidate(rec.w)) {
                const graph::VertexId c = app.candidate(rec.w);
                if (block_has(eng, buf, c)) {
                    lane.source = Source::kCandidate;
                    lane.view = buf->view(*eng.file_, c);
                    lane.rng =
                        util::Rng(util::splitmix_next(rec.rng_state));
                    gather(app, rec, lane.view, lane.rng, delta);
                    return;
                }
                const std::uint32_t b = eng.partition_->block_of(c);
                if (eng.presample_enabled_) {
                    PreSampleBuffer *ps = eng.find_presamples(b);
                    if (ps != nullptr && ps->is_direct(c)) {
                        lane.source = Source::kCandidate;
                        lane.view = ps->direct_view(c);
                        lane.rng =
                            util::Rng(util::splitmix_next(rec.rng_state));
                        gather(app, rec, lane.view, lane.rng, delta);
                        return;
                    }
                }
                lane.source = Source::kStall; // candidate park: no stall
                lane.block = b;
                return;
            }
        }
        if (!app.active(rec.w)) {
            lane.source = Source::kRetire;
            return;
        }
        const graph::VertexId v = rec.w.location;
        lane.v = v;
        // The only off-slice index read that decides anything: in a
        // shard round v may belong to another shard, whose dead end
        // retires here instead of emigrating.  A shard is charged an
        // out-edge bitmap for it, not the other shards' offsets
        // (core::index_charge, DESIGN.md §11).
        const std::uint32_t degree = eng.file_->degree(v);
        if (degree == 0) {
            lane.source = Source::kRetire;
            return;
        }
        const std::optional<std::uint32_t> slot =
            block_serves(eng, app, buf, rec, v, degree);
        if (eng.config_.use_loaded_block && slot) {
            lane.source = Source::kBlock;
            lane.view = buf->view(*eng.file_, v, *slot);
            lane.rng = util::Rng(util::splitmix_next(rec.rng_state));
            gather(app, rec, lane.view, lane.rng, delta);
            return;
        }
        // Found once: the pre-sample lookup and a stall share it.
        const std::uint32_t b = eng.partition_->block_of(v);
        if (eng.presample_enabled_) {
            PreSampleBuffer *ps = eng.find_presamples(b);
            if (ps != nullptr) {
                if (ps->is_direct(v)) {
                    lane.source = Source::kPsDirect;
                    lane.view = ps->direct_view(v);
                    lane.rng = util::Rng(util::splitmix_next(rec.rng_state));
                    gather(app, rec, lane.view, lane.rng, delta);
                    return;
                }
                if (ps->has(v)) {
                    lane.source = Source::kPsSample;
                    lane.ps = ps;
                    lane.rng = util::Rng(util::splitmix_next(rec.rng_state));
                    delta.kernel_prefetches +=
                        ps->prefetch_draw(v, lane.rng);
                    return;
                }
                // Dry reservoir: the stage-2 visit feeds the rebuild
                // history whether or not the block then serves the step.
                lane.ps = ps;
                lane.ps_visit = true;
            }
        }
        if (!eng.config_.use_loaded_block && slot) {
            lane.source = Source::kBlock;
            lane.view = buf->view(*eng.file_, v, *slot);
            lane.rng = util::Rng(util::splitmix_next(rec.rng_state));
            gather(app, rec, lane.view, lane.rng, delta);
            return;
        }
        lane.source = Source::kStall;
        lane.count_stall = true;
        lane.block = b;
    }

    static void
    count_step(Delta &delta)
    {
        if constexpr (!E::kSecondOrder) {
            ++delta.steps;
        }
    }

    /**
     * The walker just moved or drew a candidate: warm the CSR offset
     * entry of the vertex it now waits on — its new location, or a
     * second-order walker's pending candidate — so the *next*
     * rotation's resolve (degree check + view construction) doesn't
     * take the miss.  admit() covers only a lane's first rotation; this
     * covers every subsequent one.  The entry may lie off the shard's
     * index slice; besides resolve()'s degree check, these two
     * prefetch hints are the only off-slice index reads, and a hint
     * decides nothing.
     */
    static void
    warm_next(E &eng, const App &app, const Record &rec, Delta &delta)
    {
        delta.kernel_prefetches += util::prefetch_range(
            eng.file_->offsets().data() +
                engine::waiting_vertex(app, rec.w),
            2 * sizeof(graph::EdgeIndex), 2);
    }

    /**
     * Stage 2 for one lane: the side effects of the resolved event.
     * @return true when the walker stays in the lane (moved a step).
     */
    [[gnu::flatten]] static bool
    execute(E &eng, App &app, Lane &lane, Delta &delta,
            std::vector<Record> &records, std::vector<std::uint32_t> &dest)
    {
        Record &rec = lane.rec;
        switch (lane.source) {
        case Source::kRetire:
            ++delta.walkers;
            dest[lane.slot] = kDestRetired;
            return false;
        case Source::kCandidate:
            if constexpr (E::kSecondOrder) {
                ++delta.rejection_trials;
                util::Rng &rng = lane.rng;
                const bool accepted = app.rejection(rec.w, lane.view, rng);
                if (accepted) {
                    ++delta.steps;
                } else {
                    ++delta.rejection_rejected;
                }
                if (!app.active(rec.w)) {
                    ++delta.walkers;
                    dest[lane.slot] = kDestRetired;
                    return false;
                }
                if (accepted) {
                    warm_next(eng, app, rec, delta);
                }
            }
            return true;
        case Source::kBlock: {
            if (lane.ps_visit) {
                lane.ps->record_visit(lane.v);
            }
            util::Rng &rng = lane.rng;
            const graph::VertexId next = app.sample(lane.view, rng);
            app.action(rec.w, next, rng);
            ++delta.block_steps;
            count_step(delta);
            warm_next(eng, app, rec, delta);
            return true;
        }
        case Source::kPsDirect: {
            util::Rng &rng = lane.rng;
            const graph::VertexId next = app.sample(lane.view, rng);
            app.action(rec.w, next, rng);
            ++delta.presample_steps;
            count_step(delta);
            warm_next(eng, app, rec, delta);
            return true;
        }
        case Source::kPsSample: {
            util::Rng &rng = lane.rng;
            const graph::VertexId next = lane.ps->sample(lane.v, rng);
            if (app.action(rec.w, next, rng)) {
                lane.ps->consume(lane.v);
            }
            ++delta.presample_steps;
            count_step(delta);
            warm_next(eng, app, rec, delta);
            return true;
        }
        case Source::kStall: {
            if (lane.ps_visit) {
                lane.ps->record_visit(lane.v);
            }
            if (!eng.owns_block(lane.block)) {
                dest[lane.slot] = kDestEmigrant;
            } else {
                dest[lane.slot] = lane.block;
                if (lane.count_stall) {
                    ++delta.stalls;
                }
            }
            records[lane.slot] = std::move(rec);
            return false;
        }
        case Source::kUnresolved:
            break;
        }
        return false; // unreachable: every live lane is resolved
    }
};

} // namespace noswalker::core
