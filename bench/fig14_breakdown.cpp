/**
 * @file
 * Figure 14 reproduction: the optimization breakdown.  Starting from
 * the base implementation (GraphWalker-like workflow on NosWalker's
 * async-I/O substrate) the three optimizations are enabled one by
 * one — +Walker Management, +Shrink Block Size, +PreSample Edges —
 * and each stage reports time and I/O volume normalized to the base.
 *
 * Workloads follow the paper: basic RW 1B10/1B80/4B10 (scaled to
 * |V|·L combinations on K30'), the weighted K30W' run, the four
 * applications, and 1B10 on the flat G12'/α2.7' twins.
 *
 * Expected shape: +WM pays most with many walkers (4B10), +SBS pays
 * most on sparse-walker apps (PPR/SR/GC), +PS gives the largest win on
 * the weighted graph and weakens on the flat graphs.
 *
 * A final section ablates the prefetch depth (DESIGN.md §10) on the
 * 1B10 workload: modeled io_wait at depth 1 vs depth 4, same walk
 * output.  Pass `--json <path>` to archive both sections.
 */
#include <cstdio>
#include <functional>
#include <string>

#include "apps/basic_rw.hpp"
#include "apps/graphlet.hpp"
#include "apps/ppr.hpp"
#include "apps/rwd.hpp"
#include "apps/simrank.hpp"
#include "apps/weighted_rw.hpp"
#include "bench_common.hpp"

using namespace noswalker;

namespace {

bench::JsonReporter *reporter = nullptr;

struct StageResult {
    double time = 0.0;
    double io = 0.0;
    double cpu = 0.0;
};

/** The four breakdown stages in paper order. */
core::EngineConfig
stage_config(const core::EngineConfig &full, int stage)
{
    core::EngineConfig cfg = full;
    cfg.walker_management = stage >= 1;
    cfg.shrink_block = stage >= 2;
    cfg.presample = stage >= 3;
    return cfg;
}

template <typename App, typename MakeApp>
void
run_breakdown(bench::BenchEnv &env, const char *name,
              graph::DatasetId id, MakeApp &&make,
              std::uint64_t walkers)
{
    bench::GraphHandle &h = env.get(id);
    const core::EngineConfig full = env.noswalker_config(h);
    StageResult stages[4];
    for (int stage = 0; stage < 4; ++stage) {
        auto app = make(h);
        core::NosWalkerEngine<App> eng(*h.file, *h.partition,
                                       stage_config(full, stage));
        const auto s = eng.run(app, walkers);
        // The paper's breakdown runs are I/O bound; at twin scale the
        // measured CPU would swamp the modeled device time, so the
        // time bar uses the I/O term alone (EXPERIMENTS.md).
        stages[stage].time = s.io_busy_seconds / s.io_efficiency;
        stages[stage].io = static_cast<double>(s.total_io_bytes());
        stages[stage].cpu = s.cpu_seconds;
    }
    std::vector<std::string> row = {name};
    for (int stage = 0; stage < 4; ++stage) {
        row.push_back(
            bench::fmt_double(stages[stage].time / stages[0].time, 2) +
            "/" +
            bench::fmt_double(stages[stage].io / stages[0].io, 2));
    }
    // Measured stepping CPU of the full configuration — the term the
    // cohort kernel attacks; the normalized bars model I/O only.
    row.push_back(bench::fmt_double(stages[3].cpu, 3));
    bench::print_table_row(row);
    if (reporter != nullptr) {
        static const char *const kStageNames[4] = {
            "base", "walker_mgmt", "shrink_block", "presample"};
        for (int stage = 0; stage < 4; ++stage) {
            bench::JsonRecord record;
            record.engine = "noswalker";
            record.dataset = h.spec.name;
            record.workload =
                std::string(name) + "/" + kStageNames[stage];
            record.io_busy_seconds = stages[stage].time;
            record.cpu_seconds = stages[stage].cpu;
            record.extras = {
                {"normalized_time",
                 stages[stage].time / stages[0].time},
                {"normalized_io", stages[stage].io / stages[0].io},
            };
            reporter->add(std::move(record));
        }
    }
}

/** Depth-1 vs depth-4 io_wait on the 1B10 workload (DESIGN.md §10). */
void
run_prefetch_ablation(bench::BenchEnv &env)
{
    bench::GraphHandle &h = env.get(graph::DatasetId::kKron30);
    const graph::VertexId v = h.file->num_vertices();
    std::printf("\nPrefetch-depth ablation (1B10 on %s): modeled "
                "io_wait, identical walk output\n",
                h.spec.name.c_str());
    bench::print_table_header(
        "Prefetch", {"depth", "io_wait(s)", "modeled_s", "hits",
                     "mispredicts", "io_wait vs depth1"});
    double depth1_wait = 0.0;
    for (const unsigned depth : {1u, 4u}) {
        apps::BasicRandomWalk app(10, v);
        core::EngineConfig cfg = env.noswalker_config(h);
        cfg.prefetch_depth = depth;
        core::NosWalkerEngine<apps::BasicRandomWalk> eng(
            *h.file, *h.partition, cfg);
        const auto s = eng.run(app, v);
        if (depth == 1) {
            depth1_wait = s.io_wait_seconds;
        }
        const double ratio =
            depth1_wait > 0.0 ? s.io_wait_seconds / depth1_wait : 0.0;
        bench::print_table_row(
            {std::to_string(depth),
             bench::fmt_double(s.io_wait_seconds, 6),
             bench::fmt_double(s.modeled_seconds(), 6),
             bench::fmt_count(s.prefetch_hits),
             bench::fmt_count(s.prefetch_mispredicts),
             bench::fmt_double(ratio, 2)});
        if (reporter != nullptr) {
            bench::JsonRecord record;
            record.engine = s.engine;
            record.dataset = h.spec.name;
            record.workload =
                "1B10/prefetch_depth_" + std::to_string(depth);
            record.steps = s.steps;
            record.io_busy_seconds = s.io_busy_seconds;
            record.cpu_seconds = s.cpu_seconds;
            record.peak_memory = s.peak_memory;
            record.extras = {
                {"prefetch_depth", static_cast<double>(depth)},
                {"io_wait_seconds", s.io_wait_seconds},
                {"modeled_seconds", s.modeled_seconds()},
                {"io_wait_vs_depth1", ratio},
                {"prefetch_hits",
                 static_cast<double>(s.prefetch_hits)},
                {"prefetch_mispredicts",
                 static_cast<double>(s.prefetch_mispredicts)},
            };
            reporter->add(std::move(record));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json = bench::JsonReporter::from_args(argc, argv);
    reporter = &json;
    bench::BenchEnv env;
    env.get(graph::DatasetId::kCrawlWeb); // budget anchor
    std::printf("Figure 14: cells are normalized time / normalized I/O "
                "(base = 1.00)\n");
    bench::print_table_header(
        "Fig 14", {"Workload", "Base", "+WalkerMgmt", "+ShrinkBlock",
                   "+PreSample", "cpu_s"});

    const graph::VertexId v =
        env.get(graph::DatasetId::kKron30).file->num_vertices();

    const auto basic = [](std::uint32_t length) {
        return [length](bench::GraphHandle &h) {
            return apps::BasicRandomWalk(length,
                                         h.file->num_vertices());
        };
    };

    run_breakdown<apps::BasicRandomWalk>(
        env, "1B10", graph::DatasetId::kKron30, basic(10), v);
    run_breakdown<apps::BasicRandomWalk>(
        env, "1B80", graph::DatasetId::kKron30, basic(80), v);
    run_breakdown<apps::BasicRandomWalk>(
        env, "4B10", graph::DatasetId::kKron30, basic(10), 4ULL * v);
    run_breakdown<apps::WeightedRandomWalk>(
        env, "K30W", graph::DatasetId::kKron30W,
        [](bench::GraphHandle &h) {
            return apps::WeightedRandomWalk(20, h.file->num_vertices());
        },
        env.get(graph::DatasetId::kKron30W).file->num_vertices());

    {
        bench::GraphHandle &h = env.get(graph::DatasetId::kKron30);
        run_breakdown<apps::RandomWalkDomination>(
            env, "RWD", graph::DatasetId::kKron30,
            [](bench::GraphHandle &hh) {
                return apps::RandomWalkDomination(
                    hh.file->num_vertices(), 6, false);
            },
            h.file->num_vertices());
        run_breakdown<apps::GraphletConcentration>(
            env, "GC", graph::DatasetId::kKron30,
            [](bench::GraphHandle &hh) {
                return apps::GraphletConcentration(
                    hh.file->num_vertices(),
                    std::max<std::uint64_t>(
                        64, hh.file->num_vertices() / 100),
                    3);
            },
            std::max<std::uint64_t>(64, h.file->num_vertices() / 100));
        run_breakdown<apps::PersonalizedPageRank>(
            env, "PPR", graph::DatasetId::kKron30,
            [](bench::GraphHandle &hh) {
                const graph::VertexId n = hh.file->num_vertices();
                return apps::PersonalizedPageRank(
                    {n / 7, n / 3, n / 2, n - 1}, 200, 10);
            },
            4 * 200);
        run_breakdown<apps::SimRank>(
            env, "SR", graph::DatasetId::kKron30,
            [](bench::GraphHandle &hh) {
                const graph::VertexId n = hh.file->num_vertices();
                return apps::SimRank(n / 5, n / 2, 200, 11);
            },
            2 * 200);
    }

    run_breakdown<apps::BasicRandomWalk>(
        env, "G12", graph::DatasetId::kG12, basic(10),
        env.get(graph::DatasetId::kG12).file->num_vertices());
    run_breakdown<apps::BasicRandomWalk>(
        env, "a2.7", graph::DatasetId::kAlpha27, basic(10),
        env.get(graph::DatasetId::kAlpha27).file->num_vertices());

    std::printf("\nPaper (1B10): normalized time 1/0.81/0.60/0.20, "
                "normalized I/O 1/0.86/0.52/0.21.\n");

    run_prefetch_ablation(env);
    return 0;
}
