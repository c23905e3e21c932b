/**
 * @file
 * Walker state records.
 *
 * Walker states are the "vertex data" of random walk (§2.4.2): their
 * total size is proportional to the number of walkers, which is why
 * their management dominates existing systems' I/O.  Records are kept
 * POD and minimal so the spill accounting matches real byte counts.
 */
#pragma once

#include <cstdint>

#include "graph/types.hpp"

namespace noswalker::engine {

/** First-order walker: current position and steps taken. */
struct Walker {
    std::uint64_t id = 0;
    graph::VertexId location = 0;
    std::uint32_t step = 0;
};

/**
 * Second-order walker (Appendix A): additionally remembers the previous
 * vertex and, while a rejection-sampling trial is pending, the candidate
 * destination and the uniform height h of the trial coordinate.
 */
struct SecondOrderWalker {
    std::uint64_t id = 0;
    graph::VertexId location = 0;
    std::uint32_t step = 0;
    graph::VertexId prev = graph::kInvalidVertex;
    graph::VertexId candidate = graph::kInvalidVertex;
    float h = 0.0f;
};

/**
 * Engine-side wrapper pairing an application walker with its private
 * sampling stream (SplitMix64 state, one advance per sampling event).
 *
 * The stream is seeded once, at generation time, by
 * engine::seed_record: from (run seed, walker id), or from the app's
 * stream key (engine::StreamKeyApp).  A walker's trajectory is then a
 * pure function of that key and the graph — independent of how walkers
 * interleave across step threads.
 */
template <typename WalkerT>
struct Stepped {
    WalkerT w;
    std::uint64_t rng_state = 0;
};

} // namespace noswalker::engine
