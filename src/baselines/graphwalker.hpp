/**
 * @file
 * GraphWalker baseline (Wang et al., ATC'20; paper §2.3, Figure 3c).
 *
 * The state-of-the-art out-of-core system NosWalker compares against:
 *  - state-aware I/O: always load the block with the most walkers;
 *  - asynchronous walker updating with CLIP-style re-entry: a walker
 *    moves as many steps as possible while it stays inside the loaded
 *    block;
 *  - a fixed-size in-memory walker buffer whose overflow swaps to disk
 *    (the ≥60 %-of-I/O effect measured in §2.4.2), reproduced through
 *    engine::WalkerSpill with byte-accurate traffic.
 *
 * Second-order applications run the "naive extension" the GraSorw
 * paper describes: a pending candidate parks the walker at the
 * candidate's block and resolves when that block happens to be loaded.
 */
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "baselines/common.hpp"
#include "core/memory_plan.hpp"
#include "engine/app.hpp"
#include "engine/run_stats.hpp"
#include "engine/walker_spill.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/block_cache.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace noswalker::baselines {

/** Fraction of the post-index budget granted to the walker buffer. */
inline constexpr double kGraphWalkerBufferFraction = 0.5;

/**
 * One record of the Fig 4 long-tail instrumentation: after each block
 * I/O, the number of unterminated walkers and the fraction of the
 * loaded block that was actually accessed (at disk-page granularity).
 */
struct GraphWalkerLoadTrace {
    std::uint64_t io_index = 0;
    std::uint64_t unterminated_walkers = 0;
    double accessed_fraction = 0.0;
};

/** Hottest-block-first out-of-core walker with re-entry and spilling. */
template <engine::RandomWalkApp App>
class GraphWalkerEngine {
  public:
    using WalkerT = typename App::WalkerT;
    static constexpr bool kSecondOrder = engine::kIsSecondOrder<App>;

    /** Collect a per-I/O trace into @p trace (Fig 4 instrumentation). */
    void set_trace(std::vector<GraphWalkerLoadTrace> *trace)
    {
        trace_ = trace;
    }

    GraphWalkerEngine(const graph::GraphFile &file,
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
        stats.engine = "GraphWalker";
        stats.pipelined = false;
        stats.io_efficiency = kBufferedIoEfficiency;

        util::MemoryBudget budget(memory_budget_);
        util::Reservation index_rsv(budget, file_->index_bytes(),
                                    "csr index");
        util::Reservation buffer_rsv(
            budget, core::block_buffer_bytes(*partition_), "block buffer");

        // Fixed-size walker buffer; overflow swaps through the spill
        // device.
        const std::uint64_t buffer_bytes = std::max<std::uint64_t>(
            sizeof(WalkerT),
            budget.limit() == 0
                ? total_walkers * sizeof(WalkerT)
                : static_cast<std::uint64_t>(
                      kGraphWalkerBufferFraction *
                      static_cast<double>(budget.available())));
        util::Reservation walker_rsv(
            budget,
            std::min(buffer_bytes, total_walkers * sizeof(WalkerT)),
            "walker buffer");
        storage::MemDevice swap_device(file_->device().model());
        const std::uint32_t num_blocks = partition_->num_blocks();
        engine::WalkerSpill spill(
            swap_device, sizeof(WalkerT),
            std::max<std::uint64_t>(1, buffer_bytes / sizeof(WalkerT)),
            num_blocks);

        util::Rng rng(seed_);
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
        storage::BlockBuffer scratch;
        // Remaining budget becomes the page cache (Figure 1a).
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

        while (live > 0) {
            // State-aware I/O: the block with the most walkers first.
            std::uint32_t hottest = 0;
            std::uint64_t best = 0;
            for (std::uint32_t b = 0; b < num_blocks; ++b) {
                if (buckets[b].size() > best) {
                    best = buckets[b].size();
                    hottest = b;
                }
            }
            if (best == 0) {
                break;
            }
            spill.activate(hottest);
            const storage::BlockBuffer &buffer =
                *cache.get(reader, partition_->block(hottest), scratch);
            ++stats.blocks_loaded;

            cpu.reset();
            std::vector<WalkerT> bucket;
            bucket.swap(buckets[hottest]);
            spill.retire(hottest, bucket.size());
            const graph::BlockInfo &info = partition_->block(hottest);
            accessed_vertices_.clear();
            for (WalkerT &w : bucket) {
                move_in_block(app, w, info, buffer, rng, stats, live,
                              buckets, spill);
            }
            if (trace_ != nullptr) {
                trace_->push_back(make_trace(info, live));
            }
            cpu_seconds += cpu.seconds();
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
    /** Move @p w while it stays inside the loaded block (re-entry). */
    void
    move_in_block(App &app, WalkerT &w, const graph::BlockInfo &info,
                  const storage::BlockBuffer &buffer, util::Rng &rng,
                  engine::RunStats &stats, std::uint64_t &live,
                  std::vector<std::vector<WalkerT>> &buckets,
                  engine::WalkerSpill &spill)
    {
        for (;;) {
            if constexpr (kSecondOrder) {
                if (app.has_candidate(w)) {
                    const graph::VertexId c = app.candidate(w);
                    if (!info.contains(c)) {
                        park(w, c, buckets, spill);
                        return;
                    }
                    if (trace_ != nullptr) {
                        accessed_vertices_.insert(c);
                    }
                    ++stats.rejection_trials;
                    if (app.rejection(w, buffer.view(*file_, c), rng)) {
                        ++stats.steps;
                        ++stats.block_steps;
                    } else {
                        ++stats.rejection_rejected;
                    }
                    if (!app.active(w) ||
                        file_->degree(w.location) == 0) {
                        ++stats.walkers;
                        --live;
                        return;
                    }
                    continue;
                }
            }
            const graph::VertexId v = w.location;
            if (!info.contains(v)) {
                park(w, waiting(app, w), buckets, spill);
                return;
            }
            if (trace_ != nullptr) {
                accessed_vertices_.insert(v);
            }
            const graph::VertexView view = buffer.view(*file_, v);
            const graph::VertexId next = app.sample(view, rng);
            app.action(w, next, rng);
            if constexpr (!kSecondOrder) {
                ++stats.steps;
                ++stats.block_steps;
                if (!app.active(w) || file_->degree(w.location) == 0) {
                    ++stats.walkers;
                    --live;
                    return;
                }
            }
        }
    }

    /** Fig 4 point: live walkers + page-granular accessed fraction. */
    GraphWalkerLoadTrace
    make_trace(const graph::BlockInfo &info, std::uint64_t live) const
    {
        GraphWalkerLoadTrace t;
        t.io_index = trace_->size();
        t.unterminated_walkers = live;
        std::unordered_set<std::uint64_t> pages;
        constexpr std::uint64_t kPage = 4096;
        for (const graph::VertexId v : accessed_vertices_) {
            const std::uint64_t begin = file_->vertex_byte_offset(v);
            const std::uint64_t len =
                std::max<std::uint64_t>(1, file_->vertex_byte_size(v));
            for (std::uint64_t p = begin / kPage;
                 p <= (begin + len - 1) / kPage; ++p) {
                pages.insert(p);
            }
        }
        const std::uint64_t block_pages =
            std::max<std::uint64_t>(1, (info.byte_size + kPage - 1) /
                                           kPage);
        t.accessed_fraction =
            std::min(1.0, static_cast<double>(pages.size()) /
                              static_cast<double>(block_pages));
        return t;
    }

    graph::VertexId
    waiting(App &app, const WalkerT &w) const
    {
        if constexpr (kSecondOrder) {
            if (app.has_candidate(w)) {
                return app.candidate(w);
            }
        }
        return w.location;
    }

    void
    park(const WalkerT &w, graph::VertexId at,
         std::vector<std::vector<WalkerT>> &buckets,
         engine::WalkerSpill &spill)
    {
        const std::uint32_t b = partition_->block_of(at);
        buckets[b].push_back(w);
        spill.park(b, 1);
    }

    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    std::uint64_t memory_budget_;
    std::uint64_t seed_;
    std::vector<GraphWalkerLoadTrace> *trace_ = nullptr;
    std::unordered_set<graph::VertexId> accessed_vertices_;
};

} // namespace noswalker::baselines
