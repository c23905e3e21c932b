#include "engine/run_stats.hpp"

#include <algorithm>
#include <sstream>

namespace noswalker::engine {

double
RunStats::modeled_seconds() const
{
    const double eff = io_efficiency > 0.0 ? io_efficiency : 1.0;
    const double io = io_busy_seconds / eff;
    if (pipelined) {
        // Loading and stepping overlap, so the busy phases run at the
        // pace of the slower one — but the seconds the consumer
        // provably blocked on loads (io_wait_seconds) and on shard
        // round barriers (migration_wait_seconds) are covered by
        // neither phase and stretch the total.
        return std::max(io, cpu_seconds) + io_wait_seconds +
               migration_wait_seconds;
    }
    return io + cpu_seconds + migration_wait_seconds;
}

double
RunStats::edges_per_step() const
{
    return steps == 0 ? 0.0
                      : static_cast<double>(edges_loaded) /
                            static_cast<double>(steps);
}

double
RunStats::step_rate() const
{
    const double t = modeled_seconds();
    return t <= 0.0 ? 0.0 : static_cast<double>(steps) / t;
}

RunStats &
RunStats::operator+=(const RunStats &other)
{
    if (engine.empty()) {
        engine = other.engine;
    } else if (!other.engine.empty() && other.engine != engine) {
        engine = "mixed";
    }
    walkers += other.walkers;
    steps += other.steps;
    graph_bytes_read += other.graph_bytes_read;
    graph_read_requests += other.graph_read_requests;
    edges_loaded += other.edges_loaded;
    swap_bytes += other.swap_bytes;
    blocks_loaded += other.blocks_loaded;
    fine_loads += other.fine_loads;
    cache_hit_blocks += other.cache_hit_blocks;
    cache_miss_blocks += other.cache_miss_blocks;
    prefetch_hits += other.prefetch_hits;
    prefetch_mispredicts += other.prefetch_mispredicts;
    planned_loads += other.planned_loads;
    plan_rescores += other.plan_rescores;
    plan_cache_credits += other.plan_cache_credits;
    migrations += other.migrations;
    migration_batches += other.migration_batches;
    kernel_cohorts += other.kernel_cohorts;
    kernel_prefetches += other.kernel_prefetches;
    kernel_scalar_fallbacks += other.kernel_scalar_fallbacks;
    presample_steps += other.presample_steps;
    block_steps += other.block_steps;
    stalls += other.stalls;
    rejection_trials += other.rejection_trials;
    rejection_rejected += other.rejection_rejected;
    cpu_seconds += other.cpu_seconds;
    io_busy_seconds += other.io_busy_seconds;
    io_wait_seconds += other.io_wait_seconds;
    migration_wait_seconds += other.migration_wait_seconds;
    migration_overlap_seconds += other.migration_overlap_seconds;
    wall_seconds += other.wall_seconds;
    pipelined = pipelined || other.pipelined;
    io_efficiency = std::max(io_efficiency, other.io_efficiency);
    peak_memory = std::max(peak_memory, other.peak_memory);
    presample_bytes_used =
        std::max(presample_bytes_used, other.presample_bytes_used);
    presample_bytes_total =
        std::max(presample_bytes_total, other.presample_bytes_total);
    return *this;
}

RunStats
RunStats::scaled(double fraction) const
{
    const auto part = [fraction](std::uint64_t v) {
        return static_cast<std::uint64_t>(
            static_cast<double>(v) * fraction + 0.5);
    };
    RunStats out = *this;
    out.walkers = part(walkers);
    out.steps = part(steps);
    out.graph_bytes_read = part(graph_bytes_read);
    out.graph_read_requests = part(graph_read_requests);
    out.edges_loaded = part(edges_loaded);
    out.swap_bytes = part(swap_bytes);
    out.blocks_loaded = part(blocks_loaded);
    out.fine_loads = part(fine_loads);
    out.cache_hit_blocks = part(cache_hit_blocks);
    out.cache_miss_blocks = part(cache_miss_blocks);
    out.prefetch_hits = part(prefetch_hits);
    out.prefetch_mispredicts = part(prefetch_mispredicts);
    out.planned_loads = part(planned_loads);
    out.plan_rescores = part(plan_rescores);
    out.plan_cache_credits = part(plan_cache_credits);
    out.migrations = part(migrations);
    out.migration_batches = part(migration_batches);
    out.kernel_cohorts = part(kernel_cohorts);
    out.kernel_prefetches = part(kernel_prefetches);
    out.kernel_scalar_fallbacks = part(kernel_scalar_fallbacks);
    out.presample_steps = part(presample_steps);
    out.block_steps = part(block_steps);
    out.stalls = part(stalls);
    out.rejection_trials = part(rejection_trials);
    out.rejection_rejected = part(rejection_rejected);
    out.cpu_seconds = cpu_seconds * fraction;
    out.io_busy_seconds = io_busy_seconds * fraction;
    out.io_wait_seconds = io_wait_seconds * fraction;
    out.migration_wait_seconds = migration_wait_seconds * fraction;
    out.migration_overlap_seconds = migration_overlap_seconds * fraction;
    out.wall_seconds = wall_seconds * fraction;
    return out;
}

std::string
RunStats::to_string() const
{
    std::ostringstream out;
    out << "engine=" << engine << " walkers=" << walkers
        << " steps=" << steps << "\n"
        << "  graph_bytes=" << graph_bytes_read
        << " requests=" << graph_read_requests
        << " edges_loaded=" << edges_loaded << " swap_bytes=" << swap_bytes
        << "\n"
        << "  blocks=" << blocks_loaded << " fine_loads=" << fine_loads
        << " cache_hits=" << cache_hit_blocks
        << " cache_misses=" << cache_miss_blocks
        << " prefetch_hits=" << prefetch_hits
        << " mispredicts=" << prefetch_mispredicts
        << " presample_steps=" << presample_steps
        << " block_steps=" << block_steps << " stalls=" << stalls << "\n"
        << "  migrations=" << migrations
        << " migration_batches=" << migration_batches
        << " migration_wait_s=" << migration_wait_seconds
        << " migration_overlap_s=" << migration_overlap_seconds << "\n"
        << "  kernel_cohorts=" << kernel_cohorts
        << " kernel_prefetches=" << kernel_prefetches
        << " kernel_scalar_fallbacks=" << kernel_scalar_fallbacks << "\n"
        << "  cpu_s=" << cpu_seconds << " io_busy_s=" << io_busy_seconds
        << " io_wait_s=" << io_wait_seconds
        << " eff=" << io_efficiency << " modeled_s=" << modeled_seconds()
        << " wall_s=" << wall_seconds << "\n"
        << "  edges/step=" << edges_per_step()
        << " steps/s=" << step_rate() << " peak_mem=" << peak_memory
        << " ps_mem=" << presample_bytes_used << "/"
        << presample_bytes_total;
    return out.str();
}

} // namespace noswalker::engine
