/**
 * @file
 * GraSorw baseline (Li et al., VLDB'22; paper §4.5, Fig 15).
 *
 * A disk-based system specialised for second-order random walks.  Its
 * headline mechanism is triangular bi-block scheduling: block pairs
 * (i, j) are visited in triangular order with both blocks resident, so
 * a walker whose current vertex lies in one block and whose candidate
 * lies in the other can always be resolved without random I/O.  Walker
 * management is bucket-based with skewed walk storage: buckets beyond
 * the in-memory buffer swap through a spill device.  GraSorw's
 * learning-based load model is out of scope (DESIGN.md §7); the
 * triangular schedule skips empty pairs, which subsumes its main
 * effect.
 */
#pragma once

#include <vector>

#include "baselines/common.hpp"
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

/** Triangular bi-block second-order out-of-core walker. */
template <engine::SecondOrderApp App>
class GraSorwEngine {
  public:
    using WalkerT = typename App::WalkerT;

    GraSorwEngine(const graph::GraphFile &file,
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
        stats.engine = "GraSorw";
        stats.pipelined = false;
        stats.io_efficiency = kBufferedIoEfficiency;

        util::MemoryBudget budget(memory_budget_);
        util::Reservation index_rsv(budget, file_->index_bytes(),
                                    "csr index");
        // Bi-block scheduling keeps two block buffers resident.
        util::Reservation buffer_rsv(
            budget, 2 * core::block_buffer_bytes(*partition_),
            "bi-block buffers");
        // Bucket-based walk management with skewed walk storage: a
        // bounded in-memory buffer, overflow swapped to disk.
        const std::uint64_t buffer_bytes = std::max<std::uint64_t>(
            sizeof(WalkerT),
            budget.limit() == 0
                ? total_walkers * sizeof(WalkerT)
                : static_cast<std::uint64_t>(
                      0.5 * static_cast<double>(budget.available())));
        util::Reservation walkers_rsv(
            budget,
            std::min(buffer_bytes, total_walkers * sizeof(WalkerT)),
            "walker bucket buffer");
        storage::MemDevice swap_device(file_->device().model());
        engine::WalkerSpill spill(
            swap_device, sizeof(WalkerT),
            std::max<std::uint64_t>(1, buffer_bytes / sizeof(WalkerT)),
            partition_->num_blocks());

        util::Rng rng(seed_);
        const std::uint32_t num_blocks = partition_->num_blocks();
        // Bucket key: the block a walker waits on (its candidate's
        // block once a trial is pending, else its location's block).
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
        storage::BlockBuffer fixed;   // block i of the pair
        storage::BlockBuffer moving;  // block j of the pair
        const storage::IoStats before = file_->device().stats();

        // Triangular sweeps: (0,0) (0,1) ... (0,B-1) (1,1) (1,2) ...
        while (live > 0) {
            bool moved_any = false;
            for (std::uint32_t i = 0; i < num_blocks && live > 0; ++i) {
                bool fixed_loaded = false;
                for (std::uint32_t j = i; j < num_blocks && live > 0;
                     ++j) {
                    if (buckets[i].empty() && buckets[j].empty()) {
                        continue; // skip empty pairs
                    }
                    if (!fixed_loaded) {
                        reader.load_coarse(partition_->block(i), fixed);
                        ++stats.blocks_loaded;
                        fixed_loaded = true;
                    }
                    const storage::BlockBuffer *second = &fixed;
                    if (j != i) {
                        reader.load_coarse(partition_->block(j), moving);
                        ++stats.blocks_loaded;
                        second = &moving;
                    }

                    cpu.reset();
                    process_pair(app, i, j, fixed, *second, buckets, rng,
                                 stats, live, moved_any, spill);
                    cpu_seconds += cpu.seconds();
                }
            }
            // Safety: a full sweep that moved nothing means walkers are
            // unservable (cannot happen on valid graphs).
            if (!moved_any && live > 0) {
                break;
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
    /** Advance every walker of buckets i and j as far as the resident
     *  pair allows. */
    void
    process_pair(App &app, std::uint32_t i, std::uint32_t j,
                 const storage::BlockBuffer &bi,
                 const storage::BlockBuffer &bj,
                 std::vector<std::vector<WalkerT>> &buckets,
                 util::Rng &rng, engine::RunStats &stats,
                 std::uint64_t &live, bool &moved_any,
                 engine::WalkerSpill &spill)
    {
        for (const std::uint32_t b : {i, j}) {
            spill.activate(b);
            std::vector<WalkerT> bucket;
            bucket.swap(buckets[b]);
            spill.retire(b, bucket.size());
            for (WalkerT &w : bucket) {
                move_in_pair(app, w, bi, bj, buckets, rng, stats, live,
                             moved_any, spill);
            }
            if (i == j) {
                break;
            }
        }
    }

    const graph::VertexView *
    resident_view(graph::VertexId v, const storage::BlockBuffer &bi,
                  const storage::BlockBuffer &bj,
                  graph::VertexView &scratch) const
    {
        if (bi.info() != nullptr && bi.info()->contains(v)) {
            scratch = bi.view(*file_, v);
            return &scratch;
        }
        if (bj.info() != nullptr && bj.info()->contains(v)) {
            scratch = bj.view(*file_, v);
            return &scratch;
        }
        return nullptr;
    }

    void
    move_in_pair(App &app, WalkerT &w, const storage::BlockBuffer &bi,
                 const storage::BlockBuffer &bj,
                 std::vector<std::vector<WalkerT>> &buckets,
                 util::Rng &rng, engine::RunStats &stats,
                 std::uint64_t &live, bool &moved_any,
                 engine::WalkerSpill &spill)
    {
        graph::VertexView scratch;
        for (;;) {
            if (app.has_candidate(w)) {
                const graph::VertexId c = app.candidate(w);
                const graph::VertexView *view =
                    resident_view(c, bi, bj, scratch);
                if (view == nullptr) {
                    const std::uint32_t b = partition_->block_of(c);
                    buckets[b].push_back(w);
                    spill.park(b, 1);
                    return;
                }
                ++stats.rejection_trials;
                moved_any = true;
                if (app.rejection(w, *view, rng)) {
                    ++stats.steps;
                    ++stats.block_steps;
                } else {
                    ++stats.rejection_rejected;
                }
                if (!app.active(w) || file_->degree(w.location) == 0) {
                    ++stats.walkers;
                    --live;
                    return;
                }
                continue;
            }
            const graph::VertexId v = w.location;
            const graph::VertexView *view =
                resident_view(v, bi, bj, scratch);
            if (view == nullptr) {
                const std::uint32_t b = partition_->block_of(v);
                buckets[b].push_back(w);
                spill.park(b, 1);
                return;
            }
            const graph::VertexId next = app.sample(*view, rng);
            app.action(w, next, rng);
            moved_any = true;
        }
    }

    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    std::uint64_t memory_budget_;
    std::uint64_t seed_;
};

} // namespace noswalker::baselines
