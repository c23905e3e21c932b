/**
 * @file
 * Fundamental graph types shared across the library.
 */
#pragma once

#include <cstdint>

namespace noswalker::graph {

/** Vertex identifier. 32 bits covers the scaled datasets comfortably. */
using VertexId = std::uint32_t;

/** Index into the global edge array (CSR offsets). */
using EdgeIndex = std::uint64_t;

/** Edge weight for weighted random walks. */
using Weight = float;

/** Sentinel for "no vertex". */
inline constexpr VertexId kInvalidVertex = ~VertexId{0};

/**
 * Slot sentinel for fine loads (DESIGN.md §12): the event at a vertex
 * may read more than one target slot of its record (a weighted or
 * alias draw, a second-order trial), so its whole record must be
 * resident.  Any other slot value names the one target entry it reads.
 */
inline constexpr std::uint32_t kWholeRecord = ~std::uint32_t{0};

/** An edge as produced by builders and generators. */
struct Edge {
    VertexId src = 0;
    VertexId dst = 0;
    Weight weight = 1.0f;

    friend bool
    operator==(const Edge &a, const Edge &b)
    {
        return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
    }
};

} // namespace noswalker::graph
