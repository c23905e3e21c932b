#include "core/presample_buffer.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace noswalker::core {

bool
PreSampleBuffer::plan(const graph::GraphFile &file,
                      const graph::BlockInfo &block,
                      const BuildParams &params,
                      const PreSampleBuffer *previous, Plan &out)
{
    const std::uint64_t nv = block.num_vertices();
    out.block_id = block.id;
    out.first_vertex = block.first_vertex;
    out.weighted = file.weighted();

    // idx (nv + 1), cnt and the dry list (nv each), direct and state
    // (one byte each per vertex).
    const std::uint64_t meta_bytes =
        (nv + 1) * sizeof(std::uint32_t) +
        nv * (2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint8_t));
    const std::uint64_t slot_bytes =
        sizeof(graph::VertexId) +
        (out.weighted ? sizeof(graph::Weight) : 0u);
    if (params.max_bytes <= meta_bytes) {
        return false;
    }
    const std::uint64_t slot_budget =
        (params.max_bytes - meta_bytes) / slot_bytes;
    const std::uint32_t *history =
        previous != nullptr && previous->first_vertex_ == block.first_vertex
            ? previous->cnt_.data()
            : nullptr;

    // Mandatory direct reservations for low-degree vertices (§3.3.4);
    // demand-driven quotas for the rest — base_quota scaled by the
    // visit history (§3.3.2: quota ≈ proportional to cnt), clamped to
    // the per-vertex cap.  A byte-budget overshoot is corrected below.
    out.idx.resize(nv + 1);
    out.direct.assign(nv, 0);
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < nv; ++i) {
        out.idx[i] = static_cast<std::uint32_t>(pos);
        const std::uint32_t deg = file.degree(
            block.first_vertex + static_cast<graph::VertexId>(i));
        std::uint32_t slots = 0;
        if (deg == 0) {
            slots = 0;
        } else if (deg <= params.low_degree_cutoff) {
            out.direct[i] = 1;
            slots = deg;
        } else {
            const std::uint32_t weight =
                1 + (history != nullptr ? history[i] : 0);
            const std::uint64_t want =
                static_cast<std::uint64_t>(params.base_quota) * weight;
            slots = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
                want, params.base_quota, params.max_quota));
        }
        pos += slots;
    }
    out.idx[nv] = static_cast<std::uint32_t>(pos);

    // If rounding overshot the slot budget, scale down uniformly by
    // truncating per-vertex quotas (rare; keeps the byte cap honest).
    if (pos > slot_budget) {
        const double scale = static_cast<double>(slot_budget) /
                             static_cast<double>(pos);
        std::uint64_t new_pos = 0;
        std::uint32_t begin = out.idx[0];
        for (std::size_t i = 0; i < nv; ++i) {
            const std::uint32_t end = out.idx[i + 1];
            std::uint32_t slots = end - begin;
            if (!out.direct[i]) {
                slots = static_cast<std::uint32_t>(
                    static_cast<double>(slots) * scale);
            }
            out.idx[i] = static_cast<std::uint32_t>(new_pos);
            new_pos += slots;
            begin = end;
        }
        out.idx[nv] = static_cast<std::uint32_t>(new_pos);
        pos = new_pos;
    }
    out.bytes = meta_bytes + pos * slot_bytes;
    return true;
}

PreSampleBuffer::PreSampleBuffer(const graph::GraphFile &file,
                                 const graph::BlockInfo &block,
                                 const BuildParams &params,
                                 const PreSampleBuffer *previous,
                                 util::MemoryBudget &budget)
{
    Plan p;
    if (!plan(file, block, params, previous, p)) {
        throw util::BudgetExceeded("PreSampleBuffer: cap below meta size");
    }
    util::Reservation charge(budget, p.bytes, "presample buffer");
    rebuild(p, std::move(charge));
}

void
PreSampleBuffer::rebuild(Plan &plan, util::Reservation charge)
{
    block_id_ = plan.block_id;
    first_vertex_ = plan.first_vertex;
    weighted_ = plan.weighted;
    idx_.swap(plan.idx);
    direct_.swap(plan.direct);
    const std::size_t nv = idx_.size() - 1;
    const std::size_t slots = idx_[nv];
    cnt_.assign(nv, 0);
    dry_.resize(nv);
    dry_count_.store(0, std::memory_order_relaxed);
    state_.assign(nv, 0);
    edges_.assign(slots, graph::kInvalidVertex);
    dweights_.assign(weighted_ ? slots : 0, 0.0f);
    consumed_.store(0, std::memory_order_relaxed);
    stalled_.store(0, std::memory_order_relaxed);
    reservation_ = std::move(charge);
}

graph::VertexView
PreSampleBuffer::direct_view(graph::VertexId v) const
{
    const std::size_t i = index_of(v);
    NOSWALKER_CHECK(is_direct(v));
    const std::uint32_t begin = idx_[i];
    const std::uint32_t n = idx_[i + 1] - begin;
    graph::VertexView view;
    view.id = v;
    view.out_degree = n;
    view.targets = {edges_.data() + begin, n};
    if (weighted_) {
        view.weights = {dweights_.data() + begin, n};
    }
    return view;
}

} // namespace noswalker::core
