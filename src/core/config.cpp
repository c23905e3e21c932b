#include "core/config.hpp"

#include "util/error.hpp"

namespace noswalker::core {

void
EngineConfig::validate() const
{
    if (block_bytes == 0) {
        throw util::ConfigError("EngineConfig: block_bytes must be > 0");
    }
    if (alpha <= 0.0) {
        throw util::ConfigError("EngineConfig: alpha must be positive");
    }
    if (presamples_per_vertex == 0 ||
        presamples_per_vertex > kMaxPresamplesPerVertex) {
        throw util::ConfigError("EngineConfig: bad pre-sample quotas");
    }
    if (step_threads == 0) {
        throw util::ConfigError("EngineConfig: step_threads must be >= 1");
    }
    if (prefetch_depth > 64) {
        throw util::ConfigError(
            "EngineConfig: prefetch_depth must be <= 64");
    }
    if (num_shards == 0 || num_shards > 256) {
        throw util::ConfigError(
            "EngineConfig: num_shards must be in [1, 256]");
    }
    if (presample_memory_fraction < 0.0 ||
        presample_memory_fraction >= 1.0) {
        throw util::ConfigError(
            "EngineConfig: bad presample_memory_fraction");
    }
}

EngineConfig
EngineConfig::full(std::uint64_t memory_budget, std::uint64_t block_bytes)
{
    EngineConfig cfg;
    cfg.memory_budget = memory_budget;
    cfg.block_bytes = block_bytes;
    return cfg;
}

EngineConfig
EngineConfig::base_implementation(std::uint64_t memory_budget,
                                  std::uint64_t block_bytes)
{
    EngineConfig cfg;
    cfg.memory_budget = memory_budget;
    cfg.block_bytes = block_bytes;
    cfg.walker_management = false;
    cfg.shrink_block = false;
    cfg.presample = false;
    return cfg;
}

} // namespace noswalker::core
