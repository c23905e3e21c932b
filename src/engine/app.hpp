/**
 * @file
 * The NosWalker programming model (§3.2, Appendix A.3).
 *
 * An application supplies four functions — GenerateWalker, Sample,
 * Active, Action — and, for second-order walks, Rejection.  All engines
 * (NosWalker and every baseline) run the same application types, so
 * cross-system comparisons exercise identical walk semantics.
 *
 * One deliberate deviation from the paper's pseudo-code (DESIGN.md §7):
 * Algorithm 1/2 is self-inconsistent about Active's polarity; here
 * active(w) == true means "keep walking" and an engine retires a walker
 * as soon as active(w) turns false.
 */
#pragma once

#include <concepts>
#include <cstdint>

#include "engine/walker.hpp"
#include "graph/graph_file.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"

namespace noswalker::engine {

/**
 * First-order random walk application.
 *
 * Requirements:
 *  - WalkerT: POD walker state with a `location` field.
 *  - generate(n): create the n-th walker.
 *  - sample(view, rng): draw one out-edge destination of `view`
 *    (this is the pre-samplable part — it depends on edge data only).
 *  - active(w): true while the walker should keep moving.
 *  - action(w, next): apply one movement decision; returns true when
 *    the supplied pre-sample was consumed.
 */
template <typename A>
concept RandomWalkApp = requires(A app, std::uint64_t n,
                                 const graph::VertexView &view,
                                 util::Rng &rng, typename A::WalkerT &w,
                                 const typename A::WalkerT &cw,
                                 graph::VertexId next) {
    typename A::WalkerT;
    { app.generate(n) } -> std::same_as<typename A::WalkerT>;
    { app.sample(view, rng) } -> std::same_as<graph::VertexId>;
    { app.active(cw) } -> std::same_as<bool>;
    { app.action(w, next, rng) } -> std::same_as<bool>;
    { cw.location } -> std::convertible_to<graph::VertexId>;
};

/**
 * Second-order extension: action() records a candidate destination plus
 * a trial height, and rejection() resolves the trial once the
 * candidate's adjacency is resident (rejection sampling, Appendix A.2).
 */
template <typename A>
concept SecondOrderApp =
    RandomWalkApp<A> &&
    requires(A app, typename A::WalkerT &w, const typename A::WalkerT &cw,
             const graph::VertexView &candidate_view, util::Rng &rng) {
        { app.has_candidate(cw) } -> std::same_as<bool>;
        { app.candidate(cw) } -> std::same_as<graph::VertexId>;
        { app.rejection(w, candidate_view, rng) } -> std::same_as<bool>;
    };

/** Compile-time dispatch helper. */
template <typename A>
inline constexpr bool kIsSecondOrder = SecondOrderApp<A>;

/**
 * Stream-key extension — the RNG contract (DESIGN.md §9).  Every walker
 * samples from a private SplitMix64 stream carried beside it
 * (engine::Stepped), advanced once per sampling event.  By default
 * walker n's stream starts at derive_stream(run seed, n); an app that
 * keys trajectories differently supplies stream(n) instead.  The walk
 * service keys them by (request seed, walk index), so a request's
 * output does not depend on what else shared its batch.
 */
template <typename A>
concept StreamKeyApp =
    RandomWalkApp<A> && requires(const A app, std::uint64_t n) {
        { app.stream(n) } -> std::same_as<std::uint64_t>;
    };

/**
 * Walker @p n of @p app paired with its initial stream state.  The one
 * place records are seeded, shared by the plain and sharded engines so
 * both start every trajectory identically.
 */
template <RandomWalkApp App>
Stepped<typename App::WalkerT>
seed_record(App &app, std::uint64_t n, std::uint64_t run_seed)
{
    Stepped<typename App::WalkerT> rec;
    rec.w = app.generate(n);
    if constexpr (StreamKeyApp<App>) {
        rec.rng_state = app.stream(n);
    } else {
        rec.rng_state = util::derive_stream(run_seed, n);
    }
    return rec;
}

/**
 * Gather-hint extension (DESIGN.md §12): the app exposes the addresses
 * its sample()/rejection() will actually touch, so the step kernel's
 * gather stage can prefetch them one pipeline stage ahead of the draw.
 *
 * gather(w, view) must be a pure hint — no walker or app state may
 * change and no random draws may be consumed — so skipping it
 * (non-GNU compilers) cannot change walk output.  It returns the
 * number of hints issued, which feeds RunStats::kernel_prefetches.
 */
template <typename A>
concept GatherHintApp =
    RandomWalkApp<A> &&
    requires(const A app, const typename A::WalkerT &cw,
             const graph::VertexView &view) {
        { app.gather(cw, view) } -> std::same_as<unsigned>;
    };

/** Compile-time dispatch helper. */
template <typename A>
inline constexpr bool kHasGatherHint = GatherHintApp<A>;

/**
 * Draw-hint extension (DESIGN.md §12): the strongest gather form.  The
 * step kernel constructs each event's RNG at resolve time and hands the
 * app a *copy*, so the app can dry-run the draw on the copy and
 * prefetch the precise line sample() will read — e.g. the one target
 * slot a uniform draw lands on — instead of guessing with head lines.
 * Head-line guesses miss exactly where misses concentrate: steps land
 * on high-degree vertices in proportion to degree, and there the drawn
 * slot is almost never in the first lines.
 *
 * Same purity contract as GatherHintApp — the probe is taken by value,
 * no walker or app state may change, and skipping the hint cannot
 * change walk output.  Preferred over the two-argument form when both
 * are present.
 */
template <typename A>
concept DrawHintApp =
    RandomWalkApp<A> &&
    requires(const A app, const typename A::WalkerT &cw,
             const graph::VertexView &view, util::Rng probe) {
        { app.gather(cw, view, probe) } -> std::same_as<unsigned>;
    };

/** Compile-time dispatch helper. */
template <typename A>
inline constexpr bool kHasDrawHint = DrawHintApp<A>;

/** The slot sentinel of SlotDrawApp: the event may read more than one
 *  slot, so a fine load needs the whole record. */
using graph::kWholeRecord;

/**
 * Slot-draw extension (DESIGN.md §12): the fine-load twin of
 * DrawHintApp.  draw_slot(w, degree, probe) dry-runs the walker's next
 * sampling event on @p probe — a copy of the exact RNG sample() will
 * consume — and returns the one target slot that event reads, or
 * kWholeRecord when it may read more of the record (weighted or alias
 * draws, second-order trials).  It needs only the degree, which the
 * in-memory CSR index holds, so the engine asks before the record is
 * loaded: a fine load marks only the page holding that slot, and a
 * fine buffer serves the walker once that page is resident.
 *
 * Same purity contract as DrawHintApp, plus exactness: at a vertex of
 * that degree, sample() must read targets[slot] and nothing else of
 * the record.
 */
template <typename A>
concept SlotDrawApp =
    RandomWalkApp<A> &&
    requires(const A app, const typename A::WalkerT &cw,
             std::uint32_t degree, util::Rng probe) {
        { app.draw_slot(cw, degree, probe) } -> std::same_as<std::uint32_t>;
    };

/** Compile-time dispatch helper. */
template <typename A>
inline constexpr bool kHasSlotDraw = SlotDrawApp<A>;

/**
 * The slot @p rec's next sampling event reads at a vertex of @p degree:
 * draw_slot dry-run on a copy of the walker's stream (the stream itself
 * advances only when the event runs), or kWholeRecord for apps without
 * the hook.
 */
template <RandomWalkApp App>
std::uint32_t
next_draw_slot(const App &app, const Stepped<typename App::WalkerT> &rec,
               std::uint32_t degree)
{
    if constexpr (kHasSlotDraw<App>) {
        std::uint64_t state = rec.rng_state;
        return app.draw_slot(rec.w, degree,
                             util::Rng(util::splitmix_next(state)));
    } else {
        return kWholeRecord;
    }
}

/**
 * The vertex a walker is waiting on: the pending candidate for
 * second-order walkers, otherwise the current location.
 */
template <typename App>
graph::VertexId
waiting_vertex(const App &app, const typename App::WalkerT &w)
{
    if constexpr (kIsSecondOrder<App>) {
        if (app.has_candidate(w)) {
            return app.candidate(w);
        }
    }
    return w.location;
}

} // namespace noswalker::engine
