#include "engine/run_stats.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <type_traits>

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

namespace {

/** How operator+= folds a RunStats field, and whether scaled() splits
 *  it (only kSum fields are split). */
enum class Fold {
    kSum,   ///< additive work: summed
    kMax,   ///< peaks and rates: the larger value
    kOr,    ///< flags: logical or
    kLabel, ///< the engine name: kept when equal, else "mixed"
};

/** One row of the field table: a member and its fold rule. */
template <typename T>
struct RunStatsField {
    const char *name;
    T RunStats::*member;
    Fold fold;
};

/**
 * Every RunStats field once, in to_string() order: ROW(member, fold)
 * is the member's name, pointer and fold rule.  operator+=, add_sums(),
 * scaled() and to_string() are derived from this table, so a new
 * counter takes its declaration in run_stats.hpp plus one row here.
 */
#define ROW(member, fold) \
    RunStatsField{#member, &RunStats::member, Fold::fold}
constexpr std::tuple kRunStatsFields{
    ROW(engine, kLabel),
    ROW(walkers, kSum),
    ROW(steps, kSum),
    ROW(graph_bytes_read, kSum),
    ROW(graph_read_requests, kSum),
    ROW(edges_loaded, kSum),
    ROW(swap_bytes, kSum),
    ROW(blocks_loaded, kSum),
    ROW(fine_loads, kSum),
    ROW(cache_hit_blocks, kSum),
    ROW(cache_miss_blocks, kSum),
    ROW(prefetch_hits, kSum),
    ROW(prefetch_mispredicts, kSum),
    ROW(planned_loads, kSum),
    ROW(plan_rescores, kSum),
    ROW(plan_cache_credits, kSum),
    ROW(migrations, kSum),
    ROW(migration_batches, kSum),
    ROW(kernel_cohorts, kSum),
    ROW(kernel_prefetches, kSum),
    ROW(kernel_scalar_fallbacks, kSum),
    ROW(presample_steps, kSum),
    ROW(block_steps, kSum),
    ROW(stalls, kSum),
    ROW(rejection_trials, kSum),
    ROW(rejection_rejected, kSum),
    ROW(cpu_seconds, kSum),
    ROW(io_busy_seconds, kSum),
    ROW(io_wait_seconds, kSum),
    ROW(migration_wait_seconds, kSum),
    ROW(migration_overlap_seconds, kSum),
    ROW(io_efficiency, kMax),
    ROW(pipelined, kOr),
    ROW(wall_seconds, kSum),
    ROW(peak_memory, kMax),
    ROW(presample_bytes_used, kMax),
    ROW(presample_bytes_total, kMax),
};
#undef ROW

/** Call @p f on each row of kRunStatsFields, in table order. */
template <typename F>
constexpr void
for_each_field(F &&f)
{
    std::apply([&f](const auto &...row) { (f(row), ...); },
               kRunStatsFields);
}

/** Fold one field of @p from into @p into by @p fold (operator+=). */
template <typename T>
void
fold_field(T &into, const T &from, Fold fold)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (into.empty()) {
            into = from;
        } else if (!from.empty() && from != into) {
            into = "mixed";
        }
    } else if constexpr (std::is_same_v<T, bool>) {
        into = into || from;
    } else {
        into = fold == Fold::kSum ? into + from : std::max(into, from);
    }
}

} // namespace

RunStats &
RunStats::operator+=(const RunStats &other)
{
    for_each_field([&](const auto &f) {
        fold_field(this->*f.member, other.*f.member, f.fold);
    });
    return *this;
}

RunStats &
RunStats::add_sums(const RunStats &other)
{
    for_each_field([&](const auto &f) {
        if (f.fold == Fold::kSum) {
            fold_field(this->*f.member, other.*f.member, f.fold);
        }
    });
    return *this;
}

RunStats
RunStats::scaled(double fraction) const
{
    RunStats out = *this;
    for_each_field([&](const auto &f) {
        using T = std::remove_cvref_t<decltype(out.*f.member)>;
        if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
            if (f.fold != Fold::kSum) {
                return;
            }
            const double part =
                static_cast<double>(this->*f.member) * fraction;
            // Counters round half up; times scale exactly.
            out.*f.member = std::is_integral_v<T>
                                ? static_cast<T>(part + 0.5)
                                : static_cast<T>(part);
        }
    });
    return out;
}

std::string
RunStats::to_string() const
{
    // name=value for every field, wrapped to 78 columns with
    // two-space continuation lines, then the derived rates.
    std::ostringstream out;
    std::string line;
    for_each_field([&](const auto &f) {
        std::ostringstream token;
        token << std::boolalpha << f.name << '=' << this->*f.member;
        const std::string word = token.str();
        if (!line.empty() && line.size() + 1 + word.size() > 78) {
            out << line << '\n';
            line = " ";
        }
        line += (line.empty() ? "" : " ") + word;
    });
    out << line << "\n  modeled_s=" << modeled_seconds()
        << " edges/step=" << edges_per_step() << " steps/s=" << step_rate();
    return out.str();
}

} // namespace noswalker::engine
