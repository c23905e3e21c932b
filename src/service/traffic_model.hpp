/**
 * @file
 * Model-based service-traffic fuzzer (CaDiCaL `mobical` style).
 *
 * A TrafficModel expands one 64-bit seed into a fully deterministic
 * *episode*: a ServiceConfig knob permutation (workers, batching,
 * shards, step threads, queue bounds, budget mode) plus a
 * scripted sequence of client events — tenant-skewed submissions,
 * bursts, budget-starving giants, tight deadlines, malformed requests,
 * and an optional mid-flight stop().  run_episode() drives a fresh
 * WalkService with the script from concurrent client threads, waits
 * for every ticket, and then asserts the service's conservation
 * invariants:
 *
 *   1. the shared MemoryBudget drains to exactly zero,
 *   2. every submitted request reached exactly one terminal status
 *      (terminal counters sum to the submission count, no future left
 *      unresolved),
 *   3. per-tenant RunStats sums equal the service aggregate, and
 *   4. no queue is left non-empty after close.
 *
 * The script is a pure function of the seed, so any violating episode
 * is replayable from its seed alone — the mobical workflow: fuzz with
 * a seed sweep, shrink by rerunning one seed.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "service/service_config.hpp"
#include "service/walk_request.hpp"
#include "service/walk_service.hpp"

namespace noswalker::service {

/** One scripted client action. */
struct TrafficEvent {
    enum class Kind : std::uint8_t {
        /** Submit `request` from client thread `client`. */
        kSubmit,
        /** Call service.stop() mid-flight (at most one per episode). */
        kStop,
    };
    Kind kind = Kind::kSubmit;
    WalkRequest request;
    /** Submitting client thread (bursts share one client). */
    unsigned client = 0;
};

/** A deterministic episode: knobs + the full event script. */
struct TrafficEpisode {
    std::uint64_t seed = 0;
    ServiceConfig config;
    unsigned num_clients = 1;
    std::vector<TrafficEvent> events;
    /** Whether the script contains a kStop event. */
    bool stops_mid_flight = false;
};

/** What one episode did, and whether the invariants held. */
struct EpisodeReport {
    std::uint64_t seed = 0;
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    /** Any non-kOk terminal status (rejections, expiries, shutdown). */
    std::uint64_t not_ok = 0;
    bool stopped_mid_flight = false;
    /** Invariant violations (empty == clean episode). */
    std::vector<std::string> violations;

    bool clean() const { return violations.empty(); }
};

/**
 * Seeded adversarial traffic generator + invariant harness over one
 * on-disk graph.  Thread-compatible: one model may run many episodes
 * sequentially; each episode spins up (and stops) its own service.
 */
class TrafficModel {
  public:
    /** Mix knobs; the defaults cover every adversarial class. */
    struct Options {
        std::size_t min_requests = 16;
        std::size_t max_requests = 56;
        /** Probability the script stops the service mid-flight. */
        double stop_probability = 0.3;
        /** Probability a request is a budget-starving giant. */
        double giant_probability = 0.1;
        /** Probability a request carries a tight (µs–ms) deadline. */
        double tight_deadline_probability = 0.15;
        /** Probability a request is malformed (fails validation). */
        double malformed_probability = 0.05;
        /** Seconds to wait for a ticket before declaring it stuck. */
        double ticket_timeout_seconds = 30.0;
    };

    /** Default mix. */
    TrafficModel(const graph::GraphFile &file,
                 const graph::BlockPartition &partition);

    TrafficModel(const graph::GraphFile &file,
                 const graph::BlockPartition &partition,
                 Options options);

    /** The episode script for @p seed — a pure function of the seed. */
    TrafficEpisode make_episode(std::uint64_t seed) const;

    /** Generate, drive, and check one episode. */
    EpisodeReport run_episode(std::uint64_t seed) const;

    /** Drive and check an explicit (possibly hand-written) episode. */
    EpisodeReport run_episode(const TrafficEpisode &episode) const;

    /**
     * Post-run conservation sweep over a stopped service: budget
     * drained, terminal counters sum to submissions, per-tenant stats
     * equal the aggregate, queues empty.  Also usable outside the
     * fuzzer wherever a service is wound down.
     */
    static std::vector<std::string>
    check_invariants(const WalkService &service);

    /** Human-readable script (mobical-style trace; also the
     *  determinism witness: equal seeds ⇒ equal strings). */
    static std::string describe(const TrafficEpisode &episode);

  private:
    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    Options options_;
};

} // namespace noswalker::service
