/**
 * @file
 * DrunkardMob baseline (Kyrola, RecSys'13; paper §2.2, Figure 3b).
 *
 * The first out-of-core random walk system, built on GraphChi: all
 * walker states are held in memory (its scalability limit — runs whose
 * walker array exceeds the budget fail, as on K31/CW in the paper), and
 * computation proceeds in synchronized epochs that stream every block
 * in storage order, moving each walker residing in the loaded block
 * exactly one step.
 */
#pragma once

#include <vector>

#include "baselines/common.hpp"
#include "core/memory_plan.hpp"
#include "engine/app.hpp"
#include "engine/run_stats.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/block_cache.hpp"
#include "storage/block_reader.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace noswalker::baselines {

/** Iteration-synchronized out-of-core walker (first order only). */
template <engine::RandomWalkApp App>
class DrunkardMobEngine {
  public:
    using WalkerT = typename App::WalkerT;
    static_assert(!engine::kIsSecondOrder<App>,
                  "DrunkardMob supports first-order walks only");

    DrunkardMobEngine(const graph::GraphFile &file,
                      const graph::BlockPartition &partition,
                      std::uint64_t memory_budget, std::uint64_t seed = 42)
        : file_(&file), partition_(&partition),
          memory_budget_(memory_budget), seed_(seed)
    {
    }

    /**
     * Run @p total_walkers to completion.
     * @throws util::BudgetExceeded when the walker array does not fit
     *         (DrunkardMob's documented scalability limit).
     */
    engine::RunStats
    run(App &app, std::uint64_t total_walkers)
    {
        util::Timer wall;
        engine::RunStats stats;
        stats.engine = "DrunkardMob";
        stats.pipelined = false;
        stats.io_efficiency = kBufferedIoEfficiency;

        util::MemoryBudget budget(memory_budget_);
        util::Reservation index_rsv(budget, file_->index_bytes(),
                                    "csr index");
        util::Reservation buffer_rsv(
            budget, core::block_buffer_bytes(*partition_), "block buffer");
        // The defining constraint: every walker state lives in memory.
        util::Reservation walkers_rsv(budget,
                                      total_walkers * sizeof(WalkerT),
                                      "all walker states");

        util::Rng rng(seed_);
        const std::uint32_t num_blocks = partition_->num_blocks();
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
            buckets[partition_->block_of(w.location)].push_back(w);
            ++live;
        }
        cpu_seconds += cpu.seconds();

        util::MemoryBudget unbudgeted(0);
        storage::BlockReader reader(*file_, unbudgeted);
        storage::BlockBuffer scratch;
        // Whatever budget remains acts as the page cache the paper's
        // cgroup setup grants GraphChi-based systems (Figure 1a).
        const std::uint64_t cache_bytes =
            budget.limit() == 0 ? file_->edge_region_bytes() + (1 << 20)
                                : budget.available();
        util::Reservation cache_rsv;
        if (budget.limit() != 0) {
            cache_rsv = util::Reservation(budget, cache_bytes,
                                          "page cache");
        }
        storage::BlockCache cache(cache_bytes);
        const storage::IoStats before = file_->device().stats();

        // Synchronized epochs: stream every block in storage order and
        // advance resident walkers by exactly one step.
        while (live > 0) {
            for (std::uint32_t b = 0; b < num_blocks && live > 0; ++b) {
                const storage::BlockBuffer &buffer =
                    *cache.get(reader, partition_->block(b), scratch);
                ++stats.blocks_loaded;

                cpu.reset();
                std::vector<WalkerT> bucket;
                bucket.swap(buckets[b]);
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
                    buckets[partition_->block_of(w.location)].push_back(w);
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
        stats.io_busy_seconds = after.busy_seconds - before.busy_seconds;
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
