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
#include "bench_common.hpp"
#include "core/noswalker_engine.hpp"
#include "core/presample_buffer.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
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
    return 0;
}
