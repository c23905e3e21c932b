#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/memory_plan.hpp"

namespace noswalker::bench {

BenchEnv::BenchEnv()
{
    scale_ = 13;
    if (const char *env = std::getenv("NOSWALKER_BENCH_SCALE")) {
        const int v = std::atoi(env);
        if (v >= 8 && v <= 22) {
            scale_ = static_cast<unsigned>(v);
        }
    }
}

GraphHandle &
BenchEnv::get(graph::DatasetId id)
{
    auto it = cache_.find(id);
    if (it != cache_.end()) {
        return it->second;
    }
    GraphHandle handle;
    handle.spec = graph::dataset_spec(id);
    handle.reference = graph::build_dataset(id, scale_);
    handle.device = std::make_unique<storage::MemDevice>(
        storage::SsdModel::p4618());
    graph::GraphFile::write(handle.reference, *handle.device,
                            handle.spec.alias_tables);
    handle.file = std::make_unique<graph::GraphFile>(*handle.device);
    // ~32 blocks per graph, mirroring the paper's 33-block K30 setup.
    const std::uint64_t block_bytes = std::max<std::uint64_t>(
        16 * 1024, handle.file->edge_region_bytes() / 32);
    handle.partition =
        std::make_unique<graph::BlockPartition>(*handle.file, block_bytes);
    largest_file_bytes_ =
        std::max(largest_file_bytes_, handle.file->file_bytes());
    auto [pos, inserted] = cache_.emplace(id, std::move(handle));
    return pos->second;
}

std::uint64_t
BenchEnv::floor_for(const GraphHandle &handle)
{
    return handle.file->index_bytes() +
           2 * core::block_buffer_bytes(*handle.partition) + 64 * 1024;
}

std::uint64_t
BenchEnv::budget_for(const GraphHandle &handle, double fraction)
{
    // The paper fixes 64 GiB ≈ 12 % of the largest graph for all runs;
    // anchor the fraction to the largest built twin (build CW' first
    // when cross-dataset comparability matters).
    const std::uint64_t anchor =
        std::max(largest_file_bytes_, handle.file->file_bytes());
    const auto frac = static_cast<std::uint64_t>(
        fraction * static_cast<double>(anchor));
    return std::max(frac, floor_for(handle));
}

core::EngineConfig
BenchEnv::noswalker_config(const GraphHandle &handle,
                           double budget_fraction)
{
    core::EngineConfig cfg = core::EngineConfig::full(
        budget_for(handle, budget_fraction),
        handle.partition->target_block_bytes());
    return cfg;
}

void
print_table_header(const std::string &title,
                   const std::vector<std::string> &columns)
{
    std::printf("\n== %s ==\n", title.c_str());
    for (const std::string &c : columns) {
        std::printf("%-14s", c.c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < columns.size(); ++i) {
        std::printf("%-14s", "------------");
    }
    std::printf("\n");
}

void
print_table_row(const std::vector<std::string> &cells)
{
    for (const std::string &c : cells) {
        std::printf("%-14s", c.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
}

std::string
fmt_double(double value, int precision)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(precision);
    out << value;
    return out.str();
}

std::string
fmt_bytes(std::uint64_t bytes)
{
    const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double v = static_cast<double>(bytes);
    int unit = 0;
    while (v >= 1024.0 && unit < 4) {
        v /= 1024.0;
        ++unit;
    }
    return fmt_double(v, 1) + units[unit];
}

std::string
fmt_count(std::uint64_t count)
{
    if (count >= 10'000'000) {
        return fmt_double(static_cast<double>(count) / 1e6, 1) + "M";
    }
    if (count >= 10'000) {
        return fmt_double(static_cast<double>(count) / 1e3, 1) + "K";
    }
    return std::to_string(count);
}

void
print_run(const std::string &dataset, const std::string &workload,
          const engine::RunStats &stats)
{
    print_table_row({dataset, workload, stats.engine,
                     fmt_double(stats.modeled_seconds(), 4),
                     fmt_bytes(stats.total_io_bytes()),
                     fmt_double(stats.edges_per_step(), 2),
                     fmt_count(stats.steps)});
}

JsonReporter
JsonReporter::from_args(int argc, char **argv)
{
    JsonReporter reporter;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            reporter.path_ = argv[i + 1];
            break;
        }
    }
    return reporter;
}

void
JsonReporter::add(JsonRecord record)
{
    if (active()) {
        records_.push_back(std::move(record));
    }
}

void
JsonReporter::add(const std::string &dataset,
                  const std::string &workload,
                  const engine::RunStats &stats)
{
    if (!active()) {
        return;
    }
    JsonRecord r;
    r.engine = stats.engine;
    r.dataset = dataset;
    r.workload = workload;
    r.steps = stats.steps;
    const double modeled = stats.modeled_seconds();
    r.steps_per_second =
        modeled > 0.0 ? static_cast<double>(stats.steps) / modeled : 0.0;
    r.io_busy_seconds = stats.io_busy_seconds;
    r.cpu_seconds = stats.cpu_seconds;
    r.peak_memory = stats.peak_memory;
    records_.push_back(std::move(r));
}

namespace {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
json_number(double v)
{
    // JSON has no NaN/Inf; clamp to null-adjacent zero.
    if (!(v == v) || v > 1e308 || v < -1e308) {
        return "0";
    }
    std::ostringstream out;
    out.precision(12);
    out << v;
    return out.str();
}

} // namespace

void
JsonReporter::flush()
{
    if (!active() || records_.empty()) {
        return;
    }
    std::ofstream out(path_);
    if (!out) {
        std::fprintf(stderr, "JsonReporter: cannot open %s\n",
                     path_.c_str());
        return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const JsonRecord &r = records_[i];
        out << "  {\"engine\": \"" << json_escape(r.engine)
            << "\", \"dataset\": \"" << json_escape(r.dataset)
            << "\", \"workload\": \"" << json_escape(r.workload)
            << "\", \"steps\": " << r.steps
            << ", \"steps_per_second\": " << json_number(r.steps_per_second)
            << ", \"io_busy_seconds\": " << json_number(r.io_busy_seconds)
            << ", \"cpu_seconds\": " << json_number(r.cpu_seconds)
            << ", \"peak_memory\": " << r.peak_memory;
        for (const auto &[key, value] : r.extras) {
            out << ", \"" << json_escape(key)
                << "\": " << json_number(value);
        }
        out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    records_.clear();
}

} // namespace noswalker::bench
