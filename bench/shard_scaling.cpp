/**
 * @file
 * Shard-count ablation for the sharded scale-out engine (DESIGN.md
 * §11): basic and node2vec walks on the K30' twin across 1/2/4/8
 * shards, each shard owning a private modeled device and a 1/N budget
 * slice.
 *
 * The base device model is slowed by 2048x (both bandwidth and IOPS)
 * so the runs sit firmly in the IO-bound regime the paper's out-of-core
 * setting targets: there the modeled win of N concurrent devices is
 * deterministic and the measured-CPU term (noisy on small containers)
 * never masks it.  Expected shape: modeled time falls with the shard
 * count while the migration tax (walkers crossing shard boundaries)
 * grows — and most of that tax hides behind the remainder of each
 * round (migr ovl(s)) instead of stretching the modeled time
 * (migr wait(s)).
 *
 * Output: one table row and one --json record per (workload, shard
 * count), with modeled seconds, rounds, migration counters, the
 * per-shard p99 modeled seconds, the round balance, and speedup vs
 * the matching 1-shard row.  The balance is Σ shard spans / (n × Σ
 * per-round max span) over ShardedEngine::round_log(): 1.0 means no
 * shard ever waited at a barrier, 1/n means the shards took turns.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/basic_rw.hpp"
#include "apps/node2vec.hpp"
#include "bench_common.hpp"
#include "graph/datasets.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"

using namespace noswalker;

namespace {

/** p99 over per-shard modeled seconds (max at small shard counts). */
double
p99(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(samples.size()))) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

/** Σ shard spans / (n × Σ per-round max span); 1.0 when no round ran. */
double
round_balance(const std::vector<std::vector<shard::ShardRound>> &log)
{
    double spans = 0.0;
    double capacity = 0.0;
    for (const std::vector<shard::ShardRound> &round : log) {
        double longest = 0.0;
        for (const shard::ShardRound &s : round) {
            spans += s.span;
            longest = std::max(longest, s.span);
        }
        capacity += longest * static_cast<double>(round.size());
    }
    return capacity > 0.0 ? spans / capacity : 1.0;
}

template <typename App>
void
run_workload(const char *workload, App &app, std::uint64_t walkers,
             const graph::GraphFile &file,
             const graph::BlockPartition &partition,
             std::uint64_t budget_per_shard, bench::JsonReporter &json,
             const std::string &dataset)
{
    double base_seconds = 0.0;
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
        core::EngineConfig cfg = core::EngineConfig::full(
            budget_per_shard * shards,
            partition.target_block_bytes());
        cfg.num_shards = shards;
        shard::ShardedEngine<App> engine(file, partition, cfg);
        const engine::RunStats stats = engine.run(app, walkers);
        const double seconds = stats.modeled_seconds();
        if (shards == 1) {
            base_seconds = seconds;
        }
        const double speedup =
            seconds > 0.0 ? base_seconds / seconds : 0.0;

        std::vector<double> shard_seconds;
        for (const engine::RunStats &s : engine.shard_stats()) {
            shard_seconds.push_back(s.modeled_seconds());
        }
        const double shard_p99 = p99(std::move(shard_seconds));
        const double balance = round_balance(engine.round_log());

        bench::print_table_row(
            {workload, std::to_string(engine.num_shards()),
             bench::fmt_count(engine.rounds()),
             bench::fmt_double(seconds, 4),
             bench::fmt_double(speedup, 2) + "x",
             bench::fmt_count(stats.migrations),
             bench::fmt_double(stats.migration_wait_seconds, 4),
             bench::fmt_double(stats.migration_overlap_seconds, 4),
             bench::fmt_double(shard_p99, 4),
             bench::fmt_double(balance, 2)});

        bench::JsonRecord r;
        r.engine = stats.engine;
        r.dataset = dataset;
        r.workload = std::string(workload) + "/shards=" +
                     std::to_string(engine.num_shards());
        r.steps = stats.steps;
        r.steps_per_second =
            seconds > 0.0
                ? static_cast<double>(stats.steps) / seconds
                : 0.0;
        r.io_busy_seconds = stats.io_busy_seconds;
        r.cpu_seconds = stats.cpu_seconds;
        r.peak_memory = stats.peak_memory;
        r.extras.emplace_back(
            "num_shards",
            static_cast<double>(engine.num_shards()));
        r.extras.emplace_back("modeled_seconds", seconds);
        r.extras.emplace_back("rounds",
                              static_cast<double>(engine.rounds()));
        r.extras.emplace_back(
            "migrations", static_cast<double>(stats.migrations));
        r.extras.emplace_back(
            "migration_batches",
            static_cast<double>(stats.migration_batches));
        r.extras.emplace_back("migration_wait_seconds",
                              stats.migration_wait_seconds);
        r.extras.emplace_back("migration_overlap_seconds",
                              stats.migration_overlap_seconds);
        r.extras.emplace_back("shard_p99_modeled_seconds",
                              shard_p99);
        r.extras.emplace_back("round_balance", balance);
        r.extras.emplace_back("speedup_vs_one_shard", speedup);
        json.add(std::move(r));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json = bench::JsonReporter::from_args(argc, argv);
    bench::BenchEnv env;
    bench::GraphHandle &h = env.get(graph::DatasetId::kKron30);
    const graph::VertexId v = h.file->num_vertices();

    // Rebuild K30' on a slow private-device model (see file comment).
    storage::SsdModel slow = storage::SsdModel::p4618();
    slow.seq_bandwidth /= 2048.0;
    slow.iops /= 2048.0;
    storage::MemDevice device(slow);
    graph::GraphFile::write(h.reference, device);
    graph::GraphFile file(device);
    graph::BlockPartition partition(file,
                                    h.partition->target_block_bytes());

    // Scale-out semantics: every shard is its own node and brings its
    // own budget, so the sweep holds the *per-shard* budget fixed (the
    // 1/N slice of a fixed total would fall below the engine floor —
    // the shard's index slice + block buffers — at higher shard
    // counts).
    const std::uint64_t budget_per_shard = env.budget_for(h);
    const std::uint64_t walkers = v;
    const std::uint32_t length = 10;

    std::printf("shard scaling on %s (scale %u): %llu walkers, L=%u, "
                "budget %s per shard\n\n",
                h.spec.name.c_str(), env.scale(),
                static_cast<unsigned long long>(walkers), length,
                bench::fmt_bytes(budget_per_shard).c_str());

    bench::print_table_header(
        "Sharded NosWalker, K30', slowed devices",
        {"workload", "shards", "rounds", "time(s)", "speedup",
         "migrations", "migr wait(s)", "migr ovl(s)", "shard p99(s)",
         "balance"});

    apps::BasicRandomWalk basic(length, v);
    run_workload("basic", basic, walkers, file, partition,
                 budget_per_shard, json, h.spec.name);

    apps::Node2Vec n2v(2.0, 0.5, length, v, /*walks_per_vertex=*/1);
    run_workload("node2vec", n2v, walkers, file, partition,
                 budget_per_shard, json, h.spec.name);

    std::printf(
        "\nshards split the block range across private devices, so the "
        "per-round IO phase shrinks ~1/N; the migration tax is the "
        "price of walkers crossing shard boundaries.  Per-bucket "
        "flushes hide most of that tax behind the remainder "
        "of the round (migr ovl) and only the residual stretches the "
        "modeled time (migr wait).\n");
    return 0;
}
