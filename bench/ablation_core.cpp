/**
 * @file
 * Ablations over NosWalker's own design knobs (DESIGN.md §5, beyond
 * the paper's figures): pre-sample quota, low-degree direct-reserve
 * cutoff, the fine-mode α factor, pre-sample pool share, the
 * loaded-block-as-presamples optimization (§3.3.5), and the parallel
 * stepping path (step_threads scaling on an in-cache workload).
 *
 * Pass `--json <path>` to also write the results as a JSON array.
 */
#include <cstdio>

#include "apps/basic_rw.hpp"
#include "bench_common.hpp"

using namespace noswalker;

namespace {

bench::JsonReporter *reporter = nullptr;

void
run_with(bench::GraphHandle &h,
         const core::EngineConfig &cfg, const std::string &label)
{
    apps::BasicRandomWalk app(10, h.file->num_vertices());
    core::NosWalkerEngine<apps::BasicRandomWalk> eng(*h.file,
                                                     *h.partition, cfg);
    const auto s = eng.run(app, h.file->num_vertices() / 2);
    bench::print_table_row(
        {label, bench::fmt_double(s.modeled_seconds(), 4),
         bench::fmt_bytes(s.total_io_bytes()),
         bench::fmt_double(s.edges_per_step(), 2),
         bench::fmt_count(s.presample_steps),
         bench::fmt_count(s.stalls)});
    if (reporter != nullptr) {
        reporter->add(h.spec.name, label, s);
    }
}

/**
 * Step-thread scaling with I/O out of the picture: one giant block
 * (the whole edge region), unlimited budget, a large walker batch.
 * cpu_seconds is the metric — on a multi-core host it should drop
 * nearly linearly until the core count caps it.
 */
void
step_thread_ablation(bench::GraphHandle &h)
{
    graph::BlockPartition whole(*h.file, h.file->edge_region_bytes());
    bench::print_table_header(
        "Ablation: step_threads (in-cache, single block)",
        {"threads", "cpu(s)", "speedup", "steps", "steps/cpu-s"});
    const std::uint64_t walkers = std::uint64_t{1} << 17;
    double base_cpu = 0.0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        core::EngineConfig cfg = core::EngineConfig::full(
            0, h.file->edge_region_bytes());
        cfg.step_threads = threads;
        cfg.max_walkers = std::uint64_t{1} << 15;
        apps::BasicRandomWalk app(20, h.file->num_vertices());
        core::NosWalkerEngine<apps::BasicRandomWalk> eng(*h.file, whole,
                                                         cfg);
        const auto s = eng.run(app, walkers);
        if (threads == 1) {
            base_cpu = s.cpu_seconds;
        }
        const double speedup =
            s.cpu_seconds > 0.0 ? base_cpu / s.cpu_seconds : 0.0;
        bench::print_table_row(
            {std::to_string(threads),
             bench::fmt_double(s.cpu_seconds, 3),
             bench::fmt_double(speedup, 2), bench::fmt_count(s.steps),
             bench::fmt_count(static_cast<std::uint64_t>(
                 s.cpu_seconds > 0.0
                     ? static_cast<double>(s.steps) / s.cpu_seconds
                     : 0.0))});
        if (reporter != nullptr) {
            bench::JsonRecord r;
            r.engine = s.engine;
            r.dataset = h.spec.name;
            r.workload = "step_threads=" + std::to_string(threads);
            r.steps = s.steps;
            r.steps_per_second =
                s.cpu_seconds > 0.0
                    ? static_cast<double>(s.steps) / s.cpu_seconds
                    : 0.0;
            r.io_busy_seconds = s.io_busy_seconds;
            r.cpu_seconds = s.cpu_seconds;
            r.peak_memory = s.peak_memory;
            r.extras.emplace_back("speedup_vs_1_thread", speedup);
            reporter->add(std::move(r));
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
    bench::GraphHandle &h = env.get(graph::DatasetId::kKron30);
    const core::EngineConfig base = env.noswalker_config(h);
    const std::vector<std::string> cols = {
        "Config", "time(s)", "io", "edges/step", "ps-steps", "stalls"};

    bench::print_table_header("Ablation: base pre-sample quota k", cols);
    for (std::uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
        core::EngineConfig cfg = base;
        cfg.presamples_per_vertex = k;
        run_with(h, cfg, "k=" + std::to_string(k));
    }

    bench::print_table_header("Ablation: low-degree cutoff", cols);
    for (std::uint32_t cutoff : {0u, 1u, 2u, 4u, 8u}) {
        core::EngineConfig cfg = base;
        cfg.low_degree_cutoff = cutoff;
        run_with(h, cfg, "cutoff=" + std::to_string(cutoff));
    }

    bench::print_table_header("Ablation: fine-mode alpha", cols);
    for (double alpha : {1.0, 2.0, 4.0, 8.0, 16.0}) {
        core::EngineConfig cfg = base;
        cfg.alpha = alpha;
        run_with(h, cfg, "alpha=" + bench::fmt_double(alpha, 0));
    }

    bench::print_table_header("Ablation: pre-sample pool share", cols);
    for (double share : {0.1, 0.2, 0.4, 0.6}) {
        core::EngineConfig cfg = base;
        cfg.presample_memory_fraction = share;
        run_with(h, cfg, "share=" + bench::fmt_double(share, 1));
    }

    bench::print_table_header("Ablation: loaded-block-as-presamples",
                              cols);
    {
        core::EngineConfig cfg = base;
        run_with(h, cfg, "on");
        cfg.use_loaded_block = false;
        run_with(h, cfg, "off");
    }

    step_thread_ablation(h);
    return 0;
}
