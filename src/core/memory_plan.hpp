/**
 * @file
 * The memory plan (paper §3.3, DESIGN.md §10 "Memory plan"): how one
 * engine run splits its budget among the CSR index, the block buffers,
 * the walker pool, the pre-sample pool and the speculation slots.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/config.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/block_reader.hpp"

namespace noswalker::core {

/** Fraction of the budget left after the CSR index and the block
 *  buffers granted to the walker pool.  The paper's walker pools
 *  "initially occupy most of the memory". */
inline constexpr double kWalkerMemoryFraction = 0.5;

/** Smallest walker pool a budget-derived cap grants, and the one
 *  WalkService admission counts on. */
inline constexpr std::uint64_t kMinWalkers = 64;

/**
 * Resident CSR index bytes an engine owning blocks
 * [@p first_block, @p end_block) is charged (DESIGN.md §11): the
 * offsets of its own vertices plus one end entry, and — only when the
 * range leaves some vertex to another shard — a ⌈|V|/8⌉ B out-edge
 * bitmap.  The bitmap answers the one off-slice index read that
 * decides anything: StepKernel::resolve's degree check, which retires
 * a walker landing on another shard's dead end instead of emigrating
 * it.  A range covering every vertex is charged file.index_bytes().
 */
inline std::uint64_t
index_charge(const graph::GraphFile &file,
             const graph::BlockPartition &partition,
             std::uint32_t first_block, std::uint32_t end_block)
{
    const std::uint64_t owned =
        partition.block(end_block - 1).end_vertex -
        partition.block(first_block).first_vertex;
    if (owned >= file.num_vertices()) {
        return file.index_bytes();
    }
    return (owned + 1) * sizeof(graph::EdgeIndex) +
           (std::uint64_t{file.num_vertices()} + 7) / 8;
}

/**
 * Bytes of one resident block buffer: the largest block of
 * @p partition rounded out to whole pages, plus the page a block's
 * unaligned start and end can add.
 */
inline std::uint64_t
block_buffer_bytes(const graph::BlockPartition &partition)
{
    const std::uint64_t page = storage::BlockReader::kPageBytes;
    return (partition.max_block_bytes() / page + 2) * page;
}

/** An engine's index charge plus one block buffer: the floor
 *  ShardedEngine slices a budget by. */
inline std::uint64_t
single_buffer_floor(const graph::GraphFile &file,
                    const graph::BlockPartition &partition,
                    std::uint32_t first_block, std::uint32_t end_block)
{
    return index_charge(file, partition, first_block, end_block) +
           block_buffer_bytes(partition);
}

/** What one run's split is worked out from, read when setup starts. */
struct MemoryPlanInputs {
    std::uint64_t limit = 0;        ///< the budget's cap (0 = unlimited)
    std::uint64_t available = 0;    ///< bytes the budget has free
    std::uint64_t index_bytes = 0;  ///< index_charge of the run
    std::uint64_t buffer_bytes = 0; ///< block_buffer_bytes
    std::uint64_t record_bytes = 0; ///< one pooled walker record
    std::uint64_t walkers = 0;      ///< walkers the run executes
    bool presample = false; ///< config.presample, off in shard rounds
};

/** One run's split, in the order setup reserves it. */
struct MemoryPlan {
    std::uint64_t index_bytes = 0;
    /** Baseline block buffers: 2, or 1 when the pair does not fit in
     *  35% of what the index leaves (DESIGN.md §7). */
    unsigned buffers = 0;
    std::uint64_t buffer_bytes = 0;
    /** Pool capacity: the live-walker cap, or every walker when
     *  walker_management is off. */
    std::uint64_t walker_cap = 0;
    /** The pool's charge: the whole pool, or with walker_management
     *  off its resident swap buffer of resident_walkers. */
    std::uint64_t walker_bytes = 0;
    std::uint64_t resident_walkers = 0;
    /** The pre-sample pool's binding cap (0 when not pre-sampling). */
    std::uint64_t presample_bytes = 0;
    /** The pipeline's speculation slots; all but the first (the second
     *  baseline buffer) are charged as spec_bytes(). */
    std::size_t spec_slots = 0;

    std::uint64_t
    spec_bytes() const
    {
        return spec_slots > 1 ? (spec_slots - 1) * buffer_bytes : 0;
    }

    /** Every byte the plan charges: the run's peak. */
    std::uint64_t
    reserved() const
    {
        return index_bytes + buffers * buffer_bytes + walker_bytes +
               presample_bytes + spec_bytes();
    }
};

/**
 * The split of one run (DESIGN.md §10 "Memory plan").  Reads
 * @p config's max_walkers, walker_management,
 * presample_memory_fraction and prefetch_depth.  Pure: it reserves
 * nothing, and a reservation of it that no longer fits throws
 * util::BudgetExceeded.
 */
inline MemoryPlan
plan_memory(const MemoryPlanInputs &in, const EngineConfig &config)
{
    const bool limited = in.limit != 0;
    // What is still free after each charge, in setup's order.
    std::uint64_t left = in.available;
    const auto charge = [&left](std::uint64_t bytes) {
        left -= std::min(left, bytes);
    };
    const auto share = [&left](double fraction) {
        return static_cast<std::uint64_t>(fraction *
                                          static_cast<double>(left));
    };
    MemoryPlan plan{.index_bytes = in.index_bytes,
                    .buffers = 2,
                    .buffer_bytes = in.buffer_bytes};
    charge(in.index_bytes);
    // Double buffering only while the pair fits in 35% of the rest.
    if (limited && 2 * in.buffer_bytes > (left * 35) / 100) {
        plan.buffers = 1;
    }
    charge(plan.buffers * in.buffer_bytes);

    if (config.walker_management) {
        std::uint64_t cap = config.max_walkers;
        if (cap == 0) {
            cap = std::clamp<std::uint64_t>(
                limited ? share(kWalkerMemoryFraction) / in.record_bytes
                        : std::uint64_t{1} << 18,
                kMinWalkers, std::uint64_t{1} << 20);
        }
        plan.walker_cap = std::clamp<std::uint64_t>(in.walkers, 1, cap);
        plan.walker_bytes = plan.walker_cap * in.record_bytes;
    } else {
        // Base-implementation mode: every walker exists up front and
        // only a bounded buffer of them is resident (§2.4.2).
        const std::uint64_t resident = std::max(
            in.record_bytes, limited ? share(kWalkerMemoryFraction)
                                     : in.walkers * in.record_bytes);
        plan.resident_walkers =
            std::max<std::uint64_t>(1, resident / in.record_bytes);
        plan.walker_cap = std::max<std::uint64_t>(in.walkers, 1);
        plan.walker_bytes =
            std::min(resident, plan.walker_cap * in.record_bytes);
    }
    charge(plan.walker_bytes);

    if (in.presample) {
        // Never over-claim a nearly spent budget: a too-small pool
        // degrades to skipped fills, not a failed run.
        plan.presample_bytes =
            limited ? std::min<std::uint64_t>(
                          std::max<std::uint64_t>(
                              4096, share(config.presample_memory_fraction)),
                          left)
                    : std::uint64_t{64} << 20;
        charge(plan.presample_bytes);
    }

    // Speculation is funded last, from what is left, so the walker cap
    // and the pre-sample pool never depend on prefetch_depth (§10).
    if (plan.buffers == 2 && config.prefetch_depth > 0) {
        plan.spec_slots =
            limited ? std::min<std::uint64_t>(config.prefetch_depth,
                                              1 + left / in.buffer_bytes)
                    : config.prefetch_depth;
    }
    return plan;
}

} // namespace noswalker::core
