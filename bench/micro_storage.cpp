/**
 * @file
 * Google-benchmark microbenchmarks of the substrates: the §3.3.1 SSD
 * tradeoff under the cost model, block-reader coarse/fine paths, the
 * recycling buffer pool, alias sampling, pre-sample buffer operations,
 * and the RNG.  After the microbenchmarks, a prefetch-depth ablation
 * runs the full engine at depth 0/1/2/4 and reports the modeled
 * io_wait per depth; pass `--json <path>` to archive it
 * (scripts/bench_snapshot.sh).
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/basic_rw.hpp"
#include "apps/node2vec.hpp"
#include "bench_common.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/builder.hpp"
#include "core/prefetch_pipeline.hpp"
#include "core/presample_buffer.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "storage/shared_block_cache.hpp"
#include "util/alias_table.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"

using namespace noswalker;

namespace {

struct MicroFixture {
    MicroFixture()
    {
        graph = graph::generate_rmat({.scale = 12,
                                      .edge_factor = 16,
                                      .a = 0.57,
                                      .b = 0.19,
                                      .c = 0.19,
                                      .seed = 7,
                                      .symmetrize = false,
                                      .weighted = false});
        device = std::make_unique<storage::MemDevice>(
            storage::SsdModel::p4618());
        graph::GraphFile::write(graph, *device);
        file = std::make_unique<graph::GraphFile>(*device);
        partition = std::make_unique<graph::BlockPartition>(
            *file, file->edge_region_bytes() / 32);
    }

    graph::CsrGraph graph;
    std::unique_ptr<storage::MemDevice> device;
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;
};

MicroFixture &
fixture()
{
    static MicroFixture f;
    return f;
}

void
BM_SsdModelRequest(benchmark::State &state)
{
    const storage::SsdModel m = storage::SsdModel::p4618();
    const auto len = static_cast<std::uint64_t>(state.range(0));
    double total = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(total += m.request_seconds(len));
    }
    state.counters["modeled_MiBps"] = benchmark::Counter(
        static_cast<double>(len) / m.request_seconds(len) / (1 << 20));
}
BENCHMARK(BM_SsdModelRequest)->Arg(4096)->Arg(64 << 10)->Arg(8 << 20);

void
BM_CoarseBlockLoad(benchmark::State &state)
{
    MicroFixture &f = fixture();
    util::MemoryBudget budget(0);
    storage::BlockReader reader(*f.file, budget);
    storage::BlockBuffer buffer;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const auto r =
            reader.load_coarse(f.partition->block(0), buffer);
        bytes += r.bytes_read;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CoarseBlockLoad);

void
BM_FineBlockLoad(benchmark::State &state)
{
    MicroFixture &f = fixture();
    util::MemoryBudget budget(0);
    storage::BlockReader reader(*f.file, budget);
    storage::BlockBuffer buffer;
    const graph::BlockInfo &block = f.partition->block(0);
    std::vector<graph::VertexId> needed;
    const auto count = static_cast<graph::VertexId>(state.range(0));
    for (graph::VertexId v = block.first_vertex;
         v < block.first_vertex + count && v < block.end_vertex; ++v) {
        needed.push_back(v);
    }
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const auto r = reader.load_fine(block, needed, buffer);
        bytes += r.bytes_read;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FineBlockLoad)->Arg(1)->Arg(16)->Arg(256);

void
BM_PooledAsyncLoad(benchmark::State &state)
{
    // The steady-state load loop of the prefetch pipeline: submit,
    // wait, recycle.  The pool keeps one buffer in rotation, so the
    // loop reuses its storage and budget reservation every iteration.
    MicroFixture &f = fixture();
    util::MemoryBudget budget(0);
    storage::BlockReader reader(*f.file, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, /*background=*/false,
                                /*depth=*/1, &pool);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        storage::AsyncLoader::Request request;
        request.block = &f.partition->block(0);
        loader.submit(std::move(request));
        auto response = loader.wait();
        bytes += response.result.bytes_read;
        pool.recycle(std::move(response.buffer));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
    state.counters["pool_reused"] =
        benchmark::Counter(static_cast<double>(pool.reused()));
}
BENCHMARK(BM_PooledAsyncLoad);

void
BM_AliasTableSample(benchmark::State &state)
{
    util::Rng rng(3);
    std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
    for (double &w : weights) {
        w = rng.next_double() + 0.01;
    }
    util::AliasTable table(weights);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sink += table.sample(rng));
    }
}
BENCHMARK(BM_AliasTableSample)->Arg(8)->Arg(1024)->Arg(1 << 16);

void
BM_AliasTableSampleBatch(benchmark::State &state)
{
    // Draw-for-draw identical to BM_AliasTableSample's loop, but the
    // two-pass batch prefetches each draw's prob/alias rows before the
    // comparison resolves — the win grows once the table outsizes L2.
    util::Rng rng(3);
    std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
    for (double &w : weights) {
        w = rng.next_double() + 0.01;
    }
    util::AliasTable table(weights);
    std::uint32_t out[64];
    std::uint64_t items = 0;
    for (auto _ : state) {
        table.sample_batch(rng, out, 64);
        benchmark::DoNotOptimize(out[63]);
        items += 64;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_AliasTableSampleBatch)
    ->Arg(8)
    ->Arg(1024)
    ->Arg(1 << 16)
    ->Arg(1 << 20);

void
BM_PreSampleBuildAndDrain(benchmark::State &state)
{
    MicroFixture &f = fixture();
    util::MemoryBudget unbudgeted(0);
    storage::BlockReader reader(*f.file, unbudgeted);
    storage::BlockBuffer buffer;
    const graph::BlockInfo &block = f.partition->block(0);
    reader.load_coarse(block, buffer);
    util::Rng rng(5);
    core::PreSampleBuffer::BuildParams params;
    params.max_bytes = 1 << 20;
    for (auto _ : state) {
        util::MemoryBudget budget(0);
        core::PreSampleBuffer ps(*f.file, block, params, nullptr,
                                 budget);
        auto sampler = [&](const graph::VertexView &view) {
            return view.sample_uniform(rng);
        };
        for (graph::VertexId v = block.first_vertex;
             v < block.end_vertex; ++v) {
            if (ps.quota(v) > 0) {
                ps.fill_vertex(buffer.view(*f.file, v), sampler);
            }
        }
        std::uint64_t drained = 0;
        for (graph::VertexId v = block.first_vertex;
             v < block.end_vertex; ++v) {
            if (!ps.has(v) || ps.is_direct(v)) {
                continue;
            }
            const std::uint32_t q = ps.quota(v);
            for (std::uint32_t i = 0; i < q; ++i) {
                benchmark::DoNotOptimize(ps.sample(v, rng));
                ps.consume(v);
                ++drained;
            }
        }
        benchmark::DoNotOptimize(drained);
    }
}
BENCHMARK(BM_PreSampleBuildAndDrain);

void
BM_RngNextIndex(benchmark::State &state)
{
    util::Rng rng(9);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sink += rng.next_index(1000003));
    }
}
BENCHMARK(BM_RngNextIndex);

/**
 * Engine-level prefetch-depth ablation (DESIGN.md §10): same walk at
 * depth 0/1/2/4, unlimited budget so the configured depth is honoured.
 * io_wait is modeled (SSD cost model + queue latency), so the numbers
 * are machine-independent; walk output is bit-identical across rows.
 */
void
run_prefetch_ablation(bench::JsonReporter &json)
{
    MicroFixture &f = fixture();
    const graph::VertexId n = f.file->num_vertices();
    std::printf("\nPrefetch-depth ablation: basic walk L=10, %u walkers, "
                "%u blocks\n",
                static_cast<unsigned>(n),
                static_cast<unsigned>(f.partition->num_blocks()));
    bench::print_table_header(
        "Prefetch", {"depth", "io_wait(s)", "modeled_s", "hits",
                     "mispredicts", "io_wait vs depth1"});
    double depth1_wait = 0.0;
    for (const unsigned depth : {0u, 1u, 2u, 4u}) {
        apps::BasicRandomWalk app(10, n);
        core::EngineConfig cfg = core::EngineConfig::full(
            0, f.partition->max_block_bytes());
        cfg.prefetch_depth = depth;
        core::NosWalkerEngine<apps::BasicRandomWalk> eng(
            *f.file, *f.partition, cfg);
        const auto s = eng.run(app, n);
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
             depth >= 1 ? bench::fmt_double(ratio, 2) : "-"});
        bench::JsonRecord record;
        record.engine = s.engine;
        record.dataset = "rmat-micro";
        record.workload = "prefetch_depth_" + std::to_string(depth);
        record.steps = s.steps;
        record.io_busy_seconds = s.io_busy_seconds;
        record.cpu_seconds = s.cpu_seconds;
        record.peak_memory = s.peak_memory;
        record.extras = {
            {"prefetch_depth", static_cast<double>(depth)},
            {"io_wait_seconds", s.io_wait_seconds},
            {"modeled_seconds", s.modeled_seconds()},
            {"prefetch_hits", static_cast<double>(s.prefetch_hits)},
            {"prefetch_mispredicts",
             static_cast<double>(s.prefetch_mispredicts)},
        };
        json.add(std::move(record));
    }
}

/**
 * Reorder-window ablation on a mixed coarse/fine pipeline workload:
 * per group, three slow coarse speculative loads are in flight when a
 * cache-warm block is demanded (zero device I/O) and one speculated
 * block is then claimed as a fine demand; the other two are
 * mispredicted.  Strict FIFO consumption (window 0) must wait out
 * every queued load before the warm demand; a reorder window serves
 * the completed demand past the slow heads, so its modeled io_wait is
 * strictly lower.
 */
void
run_reorder_ablation(bench::JsonReporter &json)
{
    MicroFixture &f = fixture();
    // Coarser blocks than the micro partition: the slow heads should
    // be transfer-bound, not queue-latency-bound.
    graph::BlockPartition partition(*f.file,
                                    f.file->edge_region_bytes() / 8);
    const std::uint32_t blocks = partition.num_blocks();
    const double queue_latency = f.file->device().model().queue_latency;
    std::printf("\nReorder-window ablation: mixed coarse/fine groups, "
                "depth 4, %u blocks\n", static_cast<unsigned>(blocks));
    bench::print_table_header(
        "Reorder", {"window", "io_wait(s)", "hits", "mispredicts",
                    "io_wait vs fifo"});
    double fifo_wait = 0.0;
    for (const unsigned window : {0u, 2u, 4u}) {
        util::MemoryBudget budget;
        storage::SharedBlockCache cache(256ULL << 20);
        storage::BlockReader reader(*f.file, budget, 8ULL << 20, &cache);
        // Warm every fourth block: published to the cache on miss.
        for (std::uint32_t id = 0; id + 3 < blocks; id += 4) {
            storage::BlockBuffer warm;
            reader.load_coarse(partition.block(id), warm);
            warm.release_storage();
        }
        core::PrefetchPipeline::Stats total;
        for (std::uint32_t base = 0; base + 3 < blocks; base += 4) {
            storage::BlockBufferPool pool;
            storage::AsyncLoader loader(reader, /*background=*/false,
                                        /*depth=*/4, &pool);
            core::PrefetchPipeline pipeline(loader, reader, pool,
                                            /*depth=*/4, &cache,
                                            queue_latency, window);
            for (std::uint32_t off = 1; off <= 3; ++off) {
                pipeline.speculate(partition.block(base + off));
            }
            storage::AsyncLoader::Request warm;
            warm.block = &partition.block(base); // cache hit
            auto served = pipeline.obtain(std::move(warm));
            pipeline.recycle(std::move(served.buffer));
            const graph::BlockInfo &claimed = partition.block(base + 1);
            storage::AsyncLoader::Request fine;
            fine.block = &claimed;
            fine.fine = true;
            for (graph::VertexId v = claimed.first_vertex;
                 v < claimed.end_vertex; v += 7) {
                fine.needed.push_back(v);
            }
            served = pipeline.obtain(std::move(fine));
            pipeline.recycle(std::move(served.buffer));
            pipeline.finish(); // base+2, base+3 are mispredicted
            const core::PrefetchPipeline::Stats &s = pipeline.stats();
            total.io_wait_seconds += s.io_wait_seconds;
            total.prefetch_hits += s.prefetch_hits;
            total.fine_loads += s.fine_loads;
            total.prefetch_mispredicts += s.prefetch_mispredicts;
        }
        if (window == 0) {
            fifo_wait = total.io_wait_seconds;
        }
        const double ratio = fifo_wait > 0.0
                                 ? total.io_wait_seconds / fifo_wait
                                 : 0.0;
        bench::print_table_row(
            {std::to_string(window),
             bench::fmt_double(total.io_wait_seconds, 6),
             bench::fmt_count(total.prefetch_hits),
             bench::fmt_count(total.prefetch_mispredicts),
             bench::fmt_double(ratio, 2)});
        bench::JsonRecord record;
        record.engine = "noswalker";
        record.dataset = "rmat-micro";
        record.workload =
            "prefetch_reorder_window_" + std::to_string(window);
        record.extras = {
            {"reorder_window", static_cast<double>(window)},
            {"io_wait_seconds", total.io_wait_seconds},
            {"prefetch_hits", static_cast<double>(total.prefetch_hits)},
            {"prefetch_mispredicts",
             static_cast<double>(total.prefetch_mispredicts)},
        };
        json.add(std::move(record));
    }
}

/**
 * Plan-window ablation (DESIGN.md §13): the same walk at plan_window
 * 0 (greedy top-K nomination) / 2 / 4 / 8, depth-4 pipeline, against a
 * half-warm shared cache so residency credits and the one-step flow
 * estimate both engage.  Walk output is bit-identical across rows —
 * the planner only picks *speculative* loads; the modeled I/O clock
 * (io_busy / io_efficiency + io_wait, the same I/O term the Fig.14
 * breakdown bars use) is what moves.  At micro scale the measured
 * stepping CPU swamps the modeled device, so cpu_s is reported but
 * kept out of the ratio.
 */
void
run_plan_window_ablation(bench::JsonReporter &json)
{
    MicroFixture &f = fixture();
    const graph::VertexId n = f.file->num_vertices();
    const std::uint32_t blocks = f.partition->num_blocks();
    std::printf("\nPlan-window ablation: basic walk L=10, %u walkers, "
                "%u blocks, half-warm shared cache\n",
                static_cast<unsigned>(n), static_cast<unsigned>(blocks));
    bench::print_table_header(
        "PlanWindow",
        {"window", "io_model_s", "io_wait(s)", "planned", "rescores",
         "cache_credits", "cpu_s", "io vs greedy"});
    double greedy_io = 0.0;
    for (const unsigned window : {0u, 2u, 4u, 8u}) {
        // Fresh, identically half-warm cache per row: each run
        // publishes every block it loads, so a shared cache would leak
        // one row's loads into the next row's residency.
        util::MemoryBudget unbudgeted(0);
        storage::SharedBlockCache cache(f.file->edge_region_bytes() / 2);
        storage::BlockReader warm_reader(*f.file, unbudgeted, 8ULL << 20,
                                         &cache);
        for (std::uint32_t id = 0; id < blocks; id += 2) {
            storage::BlockBuffer buf;
            warm_reader.load_coarse(f.partition->block(id), buf);
            buf.release_storage();
        }
        apps::BasicRandomWalk app(10, n);
        core::EngineConfig cfg = core::EngineConfig::full(
            0, f.partition->max_block_bytes());
        cfg.prefetch_depth = 4;
        cfg.plan_window = window;
        core::NosWalkerEngine<apps::BasicRandomWalk> eng(
            *f.file, *f.partition, cfg);
        eng.set_shared_cache(&cache);
        const auto s = eng.run(app, n);
        const double io_model =
            s.io_busy_seconds / s.io_efficiency + s.io_wait_seconds;
        if (window == 0) {
            greedy_io = io_model;
        }
        const double ratio =
            greedy_io > 0.0 ? io_model / greedy_io : 0.0;
        bench::print_table_row(
            {std::to_string(window),
             bench::fmt_double(io_model, 6),
             bench::fmt_double(s.io_wait_seconds, 6),
             bench::fmt_count(s.planned_loads),
             bench::fmt_count(s.plan_rescores),
             bench::fmt_count(s.plan_cache_credits),
             bench::fmt_double(s.cpu_seconds, 4),
             bench::fmt_double(ratio, 3)});
        bench::JsonRecord record;
        record.engine = s.engine;
        record.dataset = "rmat-micro";
        record.workload = "plan_window_" + std::to_string(window);
        record.steps = s.steps;
        record.io_busy_seconds = s.io_busy_seconds;
        record.cpu_seconds = s.cpu_seconds;
        record.peak_memory = s.peak_memory;
        record.extras = {
            {"plan_window", static_cast<double>(window)},
            {"modeled_io_seconds", io_model},
            {"modeled_io_vs_greedy", ratio},
            {"io_wait_seconds", s.io_wait_seconds},
            {"graph_bytes_read",
             static_cast<double>(s.graph_bytes_read)},
            {"planned_loads", static_cast<double>(s.planned_loads)},
            {"plan_rescores", static_cast<double>(s.plan_rescores)},
            {"plan_cache_credits",
             static_cast<double>(s.plan_cache_credits)},
            {"cache_hit_blocks",
             static_cast<double>(s.cache_hit_blocks)},
            {"cache_miss_blocks",
             static_cast<double>(s.cache_miss_blocks)},
        };
        json.add(std::move(record));
    }
}

/** Basic walk whose every walker starts at vertex 0 — the
 *  concentrated single-source access pattern (PPR-style) that marches
 *  through the block sequence as a pack. */
class SourceWalk : public apps::BasicRandomWalk {
  public:
    SourceWalk(std::uint32_t length, graph::VertexId n)
        : apps::BasicRandomWalk(length, n)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        return WalkerT{n, 0, 0};
    }
};

/** Node2vec variant of the same pattern: every second-order walker
 *  starts at vertex 0.  GraSorw's trapezoid study predicts the
 *  largest load-ordering win for exactly this shape — second-order
 *  resolution touches the *next* block's adjacency, so starving the
 *  pipeline one block ahead is twice as expensive as first-order. */
class SourceNode2Vec : public apps::Node2Vec {
  public:
    SourceNode2Vec(std::uint32_t length, graph::VertexId n)
        : apps::Node2Vec(2.0, 0.5, length, n, 1)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        WalkerT w = apps::Node2Vec::generate(n);
        w.location = 0;
        return w;
    }
};

/**
 * Plan-window ablation, flow-lookahead scenario (DESIGN.md §13): a
 * single-source walk on a forward ring lattice (v → v+32..v+39 mod n)
 * marches as a pack through the block sequence.  At any moment only
 * the pack's block holds parked walkers, so the greedy top-K can
 * nominate at most one or two blocks and the depth-4 pipeline starves;
 * once the first lap has taught the planner the block-to-block flow,
 * the successor extension speculates the blocks the pack is *about* to
 * enter.  Walk output stays bit-identical; modeled io_wait drops with
 * W.
 */
template <typename App>
void
run_plan_march_case(const graph::GraphFile &file,
                    const graph::BlockPartition &partition,
                    bench::JsonReporter &json, const char *label,
                    std::uint32_t length, std::uint64_t walkers)
{
    double greedy_io = 0.0;
    for (const unsigned window : {0u, 2u, 4u, 8u}) {
        App app(length, file.num_vertices());
        core::EngineConfig cfg = core::EngineConfig::full(
            0, partition.max_block_bytes());
        cfg.prefetch_depth = 4;
        cfg.plan_window = window;
        // No presampling: the second lap must re-read every block, so
        // the flow table learned on lap one actually steers loads.
        cfg.presample = false;
        core::NosWalkerEngine<App> eng(file, partition, cfg);
        const auto s = eng.run(app, walkers);
        const double io_model =
            s.io_busy_seconds / s.io_efficiency + s.io_wait_seconds;
        if (window == 0) {
            greedy_io = io_model;
        }
        const double ratio =
            greedy_io > 0.0 ? io_model / greedy_io : 0.0;
        bench::print_table_row(
            {std::string(label) + " W=" + std::to_string(window),
             bench::fmt_double(io_model, 6),
             bench::fmt_double(s.io_wait_seconds, 6),
             bench::fmt_count(s.prefetch_hits),
             bench::fmt_count(s.planned_loads),
             bench::fmt_count(s.plan_rescores),
             bench::fmt_double(ratio, 3)});
        bench::JsonRecord record;
        record.engine = s.engine;
        record.dataset = "ring-march";
        record.workload = std::string("plan_march_") + label + "_" +
                          std::to_string(window);
        record.steps = s.steps;
        record.io_busy_seconds = s.io_busy_seconds;
        record.cpu_seconds = s.cpu_seconds;
        record.peak_memory = s.peak_memory;
        record.extras = {
            {"plan_window", static_cast<double>(window)},
            {"modeled_io_seconds", io_model},
            {"modeled_io_vs_greedy", ratio},
            {"io_wait_seconds", s.io_wait_seconds},
            {"prefetch_hits", static_cast<double>(s.prefetch_hits)},
            {"prefetch_mispredicts",
             static_cast<double>(s.prefetch_mispredicts)},
            {"planned_loads", static_cast<double>(s.planned_loads)},
            {"plan_rescores", static_cast<double>(s.plan_rescores)},
        };
        json.add(std::move(record));
    }
}

void
run_plan_march_ablation(bench::JsonReporter &json)
{
    graph::GraphBuilder builder;
    const graph::VertexId n = 1 << 13;
    for (graph::VertexId v = 0; v < n; ++v) {
        for (std::uint32_t j = 0; j < 8; ++j) {
            builder.add_edge(v, (v + 32 + j) % n);
        }
    }
    graph::CsrGraph graph =
        builder.build({.num_vertices = n});
    storage::MemDevice device(storage::SsdModel::p4618());
    graph::GraphFile::write(graph, device);
    graph::GraphFile file(device);
    graph::BlockPartition partition(file, file.edge_region_bytes() / 64);

    constexpr std::uint64_t kWalkers = 4096;
    constexpr std::uint32_t kLength = 512; // ~2 laps around the ring
    std::printf("\nPlan-window march ablation: single-source walks "
                "L=%u, %llu walkers, %u blocks on a forward ring\n",
                kLength, static_cast<unsigned long long>(kWalkers),
                static_cast<unsigned>(partition.num_blocks()));
    bench::print_table_header(
        "PlanMarch",
        {"case", "io_model_s", "io_wait(s)", "hits", "planned",
         "rescores", "io vs greedy"});
    run_plan_march_case<SourceWalk>(file, partition, json, "1st",
                                    kLength, kWalkers);
    run_plan_march_case<SourceNode2Vec>(file, partition, json, "n2v",
                                        kLength, kWalkers);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter json = bench::JsonReporter::from_args(argc, argv);
    // google-benchmark rejects flags it does not know; strip --json
    // before handing argv over.
    std::vector<char *> bench_args;
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
            ++i;
            continue;
        }
        bench_args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    run_prefetch_ablation(json);
    run_reorder_ablation(json);
    run_plan_window_ablation(json);
    run_plan_march_ablation(json);
    return 0;
}
