/**
 * @file
 * Shared infrastructure for the figure/table reproduction harness.
 *
 * Every bench binary regenerates one figure or table of the paper's
 * evaluation on the scaled dataset twins (DESIGN.md §2, §5).  The twin
 * scale is controlled by the NOSWALKER_BENCH_SCALE environment
 * variable (default 13 ⇒ K30' has 2^13 vertices and 2^18 edges); the
 * memory budget defaults to the paper's setup of ~12 % of the largest
 * graph, floored at each engine's fixed minimum (index + two block
 * buffers + working set).
 *
 * Reported numbers: raw counters (steps, bytes, requests) are
 * scale-faithful; "time(s)" is the modeled time under the SSD cost
 * model + measured CPU (see RunStats::modeled_seconds and DESIGN.md
 * §2).  Absolute values are not comparable to the paper's testbed —
 * the *shape* (who wins, by what factor, where crossovers fall) is.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/noswalker_engine.hpp"
#include "engine/run_stats.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/mem_device.hpp"

namespace noswalker::bench {

/** A twin loaded into its on-disk format with a block partition. */
struct GraphHandle {
    graph::DatasetSpec spec;
    graph::CsrGraph reference;
    std::unique_ptr<storage::MemDevice> device;
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;
};

/** Lazily builds and caches dataset twins for one bench process. */
class BenchEnv {
  public:
    BenchEnv();

    /** The twin scale knob (NOSWALKER_BENCH_SCALE). */
    unsigned scale() const { return scale_; }

    /**
     * Get (building on first use) one twin.  Blocks are sized to give
     * the graph ~32 blocks, mirroring the paper's 33-block K30 setup.
     */
    GraphHandle &get(graph::DatasetId id);

    /**
     * The run's memory budget for @p handle: fraction × the *largest*
     * twin (CW'), floored at the engine minimum for this graph — the
     * paper's "64 GiB for every system and dataset" setup.
     */
    std::uint64_t budget_for(const GraphHandle &handle,
                             double fraction = 0.12);

    /** Engine floor: index + two block buffers + 64 KiB slack. */
    static std::uint64_t floor_for(const GraphHandle &handle);

    /** Default NosWalker config for @p handle. */
    core::EngineConfig noswalker_config(const GraphHandle &handle,
                                        double budget_fraction = 0.12);

  private:
    unsigned scale_;
    std::map<graph::DatasetId, GraphHandle> cache_;
    std::uint64_t largest_file_bytes_ = 0;
};

/** Fixed-width table printing. */
void print_table_header(const std::string &title,
                        const std::vector<std::string> &columns);
void print_table_row(const std::vector<std::string> &cells);

/** Format helpers. */
std::string fmt_double(double value, int precision = 3);
std::string fmt_bytes(std::uint64_t bytes);
std::string fmt_count(std::uint64_t count);

/** One result line: system name + headline metrics of a run. */
void print_run(const std::string &dataset, const std::string &workload,
               const engine::RunStats &stats);

/** One machine-readable bench result (see JsonReporter). */
struct JsonRecord {
    std::string engine;
    std::string dataset;
    std::string workload;
    std::uint64_t steps = 0;
    double steps_per_second = 0.0;
    double io_busy_seconds = 0.0;
    double cpu_seconds = 0.0;
    std::uint64_t peak_memory = 0;
    /** Bench-specific metrics appended verbatim (numeric). */
    std::vector<std::pair<std::string, double>> extras;
};

/**
 * Optional `--json <path>` sink for bench binaries: collects one
 * JsonRecord per run and writes them as a JSON array on flush (or
 * destruction), so runs of two commits can be compared field by
 * field.  Inactive (no-op) unless --json was passed.
 * Serialization is hand-rolled — no external dependencies.
 */
class JsonReporter {
  public:
    /** Scan argv for `--json <path>`; inactive when absent. */
    static JsonReporter from_args(int argc, char **argv);

    JsonReporter() = default;
    ~JsonReporter() { flush(); }
    JsonReporter(JsonReporter &&other) noexcept
        : path_(std::move(other.path_)),
          records_(std::move(other.records_))
    {
        other.path_.clear();
    }
    JsonReporter &operator=(JsonReporter &&) = delete;
    JsonReporter(const JsonReporter &) = delete;
    JsonReporter &operator=(const JsonReporter &) = delete;

    bool active() const { return !path_.empty(); }

    void add(JsonRecord record);

    /** Convenience: build the record from a run's stats.  steps/s uses
     *  the harness's modeled-time policy (SSD model + measured CPU). */
    void add(const std::string &dataset, const std::string &workload,
             const engine::RunStats &stats);

    /** Write the collected records to the --json path (idempotent). */
    void flush();

  private:
    std::string path_;
    std::vector<JsonRecord> records_;
};

} // namespace noswalker::bench
