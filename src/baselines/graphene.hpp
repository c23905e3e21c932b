/**
 * @file
 * Graphene-style baseline (Liu & Huang, FAST'17; paper §5.1, Fig 16).
 *
 * Graphene contributes fine-grained on-demand I/O: it loads only the
 * pages that carry active work, but — unlike GraphWalker — it visits
 * blocks strictly in the order they are stored on disk, with no
 * state-aware prioritisation.  The paper shows this ordering costs up
 * to 80× against NosWalker on sparse-walker workloads.
 *
 * Reproduced behaviour: storage-order sweeps that skip walker-free
 * blocks, page-granular loads covering exactly the resident walkers'
 * vertices, and single-step advancement per visit (GSpMV-style
 * iteration without CLIP re-entry).
 */
#pragma once

#include <vector>

#include "core/memory_plan.hpp"
#include "engine/app.hpp"
#include "engine/run_stats.hpp"
#include "engine/walker_spill.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace noswalker::baselines {

/** On-demand, storage-order out-of-core walker (first order only). */
template <engine::RandomWalkApp App>
class GrapheneEngine {
  public:
    using WalkerT = typename App::WalkerT;
    static_assert(!engine::kIsSecondOrder<App>,
                  "GrapheneEngine supports first-order walks only");

    GrapheneEngine(const graph::GraphFile &file,
                   const graph::BlockPartition &partition,
                   std::uint64_t memory_budget, std::uint64_t seed = 42)
        : file_(&file), partition_(&partition),
          memory_budget_(memory_budget), seed_(seed)
    {
    }

    engine::RunStats
    run(App &app, std::uint64_t total_walkers)
    {
        util::Timer wall;
        engine::RunStats stats;
        stats.engine = "Graphene";
        stats.pipelined = false;
        // Graphene's own I/O stack is better than GraphChi's buffered
        // path but still synchronous; credit it the midpoint.
        stats.io_efficiency = 0.5;

        util::MemoryBudget budget(memory_budget_);
        util::Reservation index_rsv(budget, file_->index_bytes(),
                                    "csr index");
        util::Reservation buffer_rsv(
            budget, core::block_buffer_bytes(*partition_), "block buffer");
        // Bounded walker buffer with disk swap for the overflow, as
        // in the other GraphChi-generation systems.
        const std::uint64_t buffer_bytes = std::max<std::uint64_t>(
            sizeof(WalkerT),
            budget.limit() == 0
                ? total_walkers * sizeof(WalkerT)
                : static_cast<std::uint64_t>(
                      0.5 * static_cast<double>(budget.available())));
        util::Reservation walkers_rsv(
            budget,
            std::min(buffer_bytes, total_walkers * sizeof(WalkerT)),
            "walker buffer");
        storage::MemDevice swap_device(file_->device().model());

        util::Rng rng(seed_);
        const std::uint32_t num_blocks = partition_->num_blocks();
        engine::WalkerSpill spill(
            swap_device, sizeof(WalkerT),
            std::max<std::uint64_t>(1, buffer_bytes / sizeof(WalkerT)),
            num_blocks);
        std::vector<std::vector<WalkerT>> buckets(num_blocks);
        std::uint64_t live = 0;

        util::Timer cpu;
        double cpu_seconds = 0.0;
        for (std::uint64_t n = 0; n < total_walkers; ++n) {
            WalkerT w = app.generate(n);
            if (!app.active(w) || file_->degree(w.location) == 0) {
                ++stats.walkers;
                continue;
            }
            const std::uint32_t b = partition_->block_of(w.location);
            buckets[b].push_back(w);
            spill.park(b, 1);
            ++live;
        }
        cpu_seconds += cpu.seconds();

        util::MemoryBudget unbudgeted(0);
        storage::BlockReader reader(*file_, unbudgeted);
        storage::BlockBuffer buffer;
        std::vector<graph::VertexId> needed;
        const storage::IoStats before = file_->device().stats();

        while (live > 0) {
            for (std::uint32_t b = 0; b < num_blocks && live > 0; ++b) {
                if (buckets[b].empty()) {
                    continue; // on-demand: skip walker-free blocks
                }
                needed.clear();
                for (const WalkerT &w : buckets[b]) {
                    needed.push_back(w.location);
                }
                reader.load_fine(partition_->block(b), needed, buffer);
                ++stats.fine_loads;

                cpu.reset();
                spill.activate(b);
                std::vector<WalkerT> bucket;
                bucket.swap(buckets[b]);
                spill.retire(b, bucket.size());
                for (WalkerT &w : bucket) {
                    const graph::VertexView view =
                        buffer.view(*file_, w.location);
                    const graph::VertexId next = app.sample(view, rng);
                    app.action(w, next, rng);
                    ++stats.steps;
                    ++stats.block_steps;
                    if (!app.active(w) ||
                        file_->degree(w.location) == 0) {
                        ++stats.walkers;
                        --live;
                        continue;
                    }
                    const std::uint32_t nb =
                        partition_->block_of(w.location);
                    buckets[nb].push_back(w);
                    spill.park(nb, 1);
                }
                cpu_seconds += cpu.seconds();
            }
        }

        const storage::IoStats after = file_->device().stats();
        stats.graph_bytes_read = after.bytes_read - before.bytes_read;
        stats.graph_read_requests =
            after.read_requests - before.read_requests;
        stats.edges_loaded =
            stats.graph_bytes_read / file_->record_bytes();
        stats.swap_bytes = spill.swap_bytes();
        stats.io_busy_seconds = after.busy_seconds - before.busy_seconds +
                                swap_device.stats().busy_seconds;
        stats.cpu_seconds = cpu_seconds;
        stats.peak_memory = budget.peak();
        stats.wall_seconds = wall.seconds();
        return stats;
    }

  private:
    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    std::uint64_t memory_budget_;
    std::uint64_t seed_;
};

} // namespace noswalker::baselines
