/**
 * @file
 * The multi-tenant application one coalesced batch runs as.
 *
 * Every request in a batch becomes a Slot owning a fenced range of the
 * walker id space; generate() maps a walker id to its slot via binary
 * search.  stream() keys each walker's RNG stream by (request seed, walk
 * index) — the engine's stream-key hook (engine::StreamKeyApp) — which
 * makes each walk a pure function of (request seed, walk index, graph):
 * results are bit-identical no matter how requests were coalesced or
 * how many service workers ran them.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "engine/app.hpp"
#include "graph/graph_file.hpp"
#include "service/walk_request.hpp"
#include "util/rng.hpp"

namespace noswalker::service {

/** A service walker; its stream travels beside it (engine::Stepped). */
struct ServiceWalker {
    std::uint64_t id = 0;
    graph::VertexId location = 0;
    std::uint32_t step = 0;
};

/** One batched engine run over the requests coalesced into it. */
class ServiceWalkApp {
  public:
    using WalkerT = ServiceWalker;

    /** Per-request state and output accumulators.
     *
     * action() may run concurrently on engine step threads, so the
     * shared accumulators are protected: steps_taken is bumped through
     * std::atomic_ref and the visits map behind a per-slot mutex.
     * endpoints/paths need nothing — each walker owns its own element.
     */
    struct Slot {
        const WalkRequest *request = nullptr;
        /** First walker id of this slot (fence; cumulative). */
        std::uint64_t first_walker = 0;
        std::uint64_t num_walks = 0;
        /** Steps actually taken by this slot's walks (dead ends cut
         *  walks short, so this can be below num_walks × length). */
        std::uint64_t steps_taken = 0;

        std::vector<graph::VertexId> endpoints;
        std::vector<std::vector<graph::VertexId>> paths;
        std::unordered_map<graph::VertexId, std::uint64_t> visits;
        /** Guards visits (unique_ptr keeps Slot movable). */
        std::unique_ptr<std::mutex> visits_mutex =
            std::make_unique<std::mutex>();
    };

    /** Append @p request to the batch. @p request must outlive the app.
     *  A batch is all weighted or all unweighted: the dispatcher groups
     *  requests by that flag. */
    void
    add_request(const WalkRequest &request)
    {
        weighted_ = request.weighted;
        Slot slot;
        slot.request = &request;
        slot.first_walker = total_walkers_;
        slot.num_walks = request.num_walks();
        if (request.kind == WalkKind::kEndpoints) {
            slot.endpoints.assign(slot.num_walks, graph::kInvalidVertex);
        } else if (request.kind == WalkKind::kPaths) {
            slot.paths.resize(slot.num_walks);
        }
        total_walkers_ += slot.num_walks;
        slots_.push_back(std::move(slot));
        fences_.push_back(total_walkers_);
    }

    /** Total walkers across all slots. */
    std::uint64_t total_walkers() const { return total_walkers_; }

    std::vector<Slot> &slots() { return slots_; }
    const std::vector<Slot> &slots() const { return slots_; }

    WalkerT
    generate(std::uint64_t n)
    {
        Slot &slot = slot_of(n);
        const std::uint64_t k = n - slot.first_walker;
        const WalkRequest &req = *slot.request;
        const auto start =
            req.starts[static_cast<std::size_t>(k / req.walks_per_start)];
        WalkerT w;
        w.id = n;
        w.location = start;
        w.step = 0;
        if (req.kind == WalkKind::kEndpoints) {
            slot.endpoints[k] = start;
        } else if (req.kind == WalkKind::kPaths) {
            auto &path = slot.paths[k];
            path.clear();
            path.reserve(req.length + 1);
            path.push_back(start);
        }
        return w;
    }

    /** Walk k of a request starts its stream at derive_stream(request
     *  seed, k), whatever else shares the batch. */
    std::uint64_t
    stream(std::uint64_t n) const
    {
        const Slot &slot = slot_of(n);
        return util::derive_stream(slot.request->seed,
                                   n - slot.first_walker);
    }

    /** One step's draw from the walker's own stream. */
    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng) const
    {
        return weighted_ ? view.sample_weighted(rng)
                         : view.sample_uniform(rng);
    }

    /** Fine-load slot hint: an unweighted draw reads one target slot;
     *  a weighted (alias or prefix-scan) draw may read the whole record
     *  (DESIGN.md §12). */
    std::uint32_t
    draw_slot(const WalkerT &, std::uint32_t degree, util::Rng probe) const
    {
        return weighted_ ? engine::kWholeRecord
                         : graph::VertexView::uniform_slot(degree, probe);
    }

    /** Step-kernel draw hint: dry-run the batch's draw on the probe
     *  copy and warm the exact lines it reads (DESIGN.md §12). */
    unsigned
    gather(const WalkerT &, const graph::VertexView &view,
           util::Rng probe) const
    {
        return weighted_ ? view.prefetch_weighted_draw(probe)
                         : view.prefetch_uniform_draw(probe);
    }

    bool
    active(const WalkerT &w) const
    {
        return w.step < slot_of(w.id).request->length;
    }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        Slot &slot = slot_of(w.id);
        const std::uint64_t k = w.id - slot.first_walker;
        w.location = next;
        ++w.step;
        std::atomic_ref<std::uint64_t>(slot.steps_taken)
            .fetch_add(1, std::memory_order_relaxed);
        switch (slot.request->kind) {
        case WalkKind::kEndpoints:
            slot.endpoints[k] = next;
            break;
        case WalkKind::kPaths:
            slot.paths[k].push_back(next);
            break;
        case WalkKind::kVisitCounts: {
            std::lock_guard<std::mutex> lock(*slot.visits_mutex);
            ++slot.visits[next];
            break;
        }
        }
        return true;
    }

  private:
    Slot &
    slot_of(std::uint64_t walker_id)
    {
        return slots_[slot_index(walker_id)];
    }

    const Slot &
    slot_of(std::uint64_t walker_id) const
    {
        return slots_[slot_index(walker_id)];
    }

    std::size_t
    slot_index(std::uint64_t walker_id) const
    {
        // First fence strictly greater than walker_id.
        std::size_t lo = 0, hi = fences_.size();
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (fences_[mid] <= walker_id) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

    std::vector<Slot> slots_;
    std::vector<std::uint64_t> fences_; ///< cumulative end walker ids
    std::uint64_t total_walkers_ = 0;
    bool weighted_ = false;
};

static_assert(engine::RandomWalkApp<ServiceWalkApp>);
static_assert(engine::StreamKeyApp<ServiceWalkApp>);
static_assert(engine::SlotDrawApp<ServiceWalkApp>);
static_assert(engine::DrawHintApp<ServiceWalkApp>);

} // namespace noswalker::service
