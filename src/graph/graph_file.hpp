/**
 * @file
 * On-disk graph format.
 *
 * Layout (little endian):
 *
 *   header        48 bytes (magic, V, E, flags, edge-region offset)
 *   offsets       (V+1) × u64  — the CSR index, kept in memory (§3.3.1)
 *   edge region   per vertex, contiguous:
 *                   targets  deg × u32
 *                   weights  deg × f32          (flag kWeighted)
 *                   prob     deg × f32          (flag kAlias)
 *                   alias    deg × u32          (flag kAlias)
 *
 * A vertex's whole record is contiguous, so block loads are a few large
 * sequential reads.  The optional alias-table region reproduces the
 * paper's K30W setup where pre-built alias tables inflate the on-disk
 * weighted graph to ~3× the plain CSR (Table 1: 136 GiB → 384 GiB).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "storage/io_device.hpp"
#include "util/alias_table.hpp"
#include "util/error.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace noswalker::graph {

/**
 * A decoded view of one vertex's on-disk record.
 *
 * Spans point into a block buffer owned by the caller; the view must
 * not outlive that buffer.
 */
struct VertexView {
    VertexId id = kInvalidVertex;
    std::span<const VertexId> targets;
    std::span<const Weight> weights;  ///< empty when unweighted
    std::span<const float> prob;      ///< empty without alias tables
    std::span<const VertexId> alias;  ///< empty without alias tables

    /** Out-degree. */
    std::uint32_t
    degree() const
    {
        return static_cast<std::uint32_t>(targets.size());
    }

    /**
     * The target slot a uniform draw from @p rng lands on among
     * @p degree slots.  Needs only the degree, which the in-memory CSR
     * index holds, so a dry run on a copy of the event's RNG names the
     * slot before the record is loaded (engine::SlotDrawApp).
     */
    static std::uint32_t
    uniform_slot(std::uint32_t degree, util::Rng &rng)
    {
        return static_cast<std::uint32_t>(rng.next_index(degree));
    }

    /** Uniform random out-neighbour. @pre degree() > 0. */
    VertexId
    sample_uniform(util::Rng &rng) const
    {
        return targets[uniform_slot(degree(), rng)];
    }

    /**
     * Weight-proportional random out-neighbour.  O(1) via the stored
     * alias table when present, otherwise O(degree) prefix scan.
     * @pre degree() > 0.
     */
    VertexId sample_weighted(util::Rng &rng) const;

    /** Whether @p v is an out-neighbour (binary search; lists sorted). */
    bool
    has_target(VertexId v) const
    {
        return std::binary_search(targets.begin(), targets.end(), v);
    }

    /**
     * Hint the leading cache lines of every populated span (targets,
     * weights, alias rows) for an upcoming sample — the step kernel's
     * generic gather stage (DESIGN.md §12).  Decoding a view touches
     * only the in-memory CSR index, so issuing these hints is cheap
     * even when the record itself is cold.
     * @return the number of hints issued (kernel telemetry).
     */
    unsigned
    gather_prefetch(unsigned max_lines = 2) const
    {
        unsigned n = util::prefetch_range(targets.data(),
                                          targets.size_bytes(), max_lines);
        n += util::prefetch_range(weights.data(), weights.size_bytes(),
                                  max_lines);
        n += util::prefetch_range(prob.data(), prob.size_bytes(),
                                  max_lines);
        n += util::prefetch_range(alias.data(), alias.size_bytes(),
                                  max_lines);
        return n;
    }

    /**
     * Dry-run a uniform draw on @p probe — a copy of the exact RNG
     * sample_uniform will consume — and hint the one target slot the
     * draw lands on.  The copy replays the same next_index(), so the
     * prediction is exact at any degree (DESIGN.md §12).
     * @return the number of hints issued.  @pre degree() > 0.
     */
    unsigned
    prefetch_uniform_draw(util::Rng probe) const
    {
        util::prefetch_line(&targets[uniform_slot(degree(), probe)]);
        return 1;
    }

    /**
     * Dry-run a weighted draw on @p probe.  With an alias table the
     * drawn slot is exact: hint its prob/alias row and the kept-slot
     * target (the aliased target depends on alias[slot]'s value, which
     * this hint is itself fetching).  Without one the prefix scan
     * streams the whole weight span, so fall back to head lines.
     * @pre degree() > 0.
     */
    unsigned
    prefetch_weighted_draw(util::Rng probe, unsigned max_lines = 2) const
    {
        if (!prob.empty()) {
            const std::size_t slot = probe.next_index(targets.size());
            util::prefetch_line(&prob[slot]);
            util::prefetch_line(&alias[slot]);
            util::prefetch_line(&targets[slot]);
            return 3;
        }
        return util::prefetch_range(weights.data(), weights.size_bytes(),
                                    max_lines) +
               util::prefetch_range(targets.data(), targets.size_bytes(),
                                    max_lines);
    }
};

/**
 * Reader for the on-disk format.
 *
 * Construction loads the header and the CSR offsets into memory;
 * engines account that index against their memory budget.  Edge data is
 * never touched here — BlockReader streams it.
 */
class GraphFile {
  public:
    /** Format flags. */
    enum Flags : std::uint64_t {
        kWeighted = 1u << 0,
        kAlias = 1u << 1,
    };

    /**
     * Serialize @p graph into @p device (overwrites from offset 0).
     * @param with_alias also emit per-vertex alias tables (requires a
     *        weighted graph).
     */
    static void write(const CsrGraph &graph, storage::IoDevice &device,
                      bool with_alias = false);

    /**
     * Open a previously written graph.
     * @throws util::IoError on bad magic or truncated file.
     */
    explicit GraphFile(storage::IoDevice &device);

    /** Underlying device. */
    storage::IoDevice &device() const { return *device_; }

    VertexId num_vertices() const { return num_vertices_; }
    EdgeIndex num_edges() const { return num_edges_; }
    bool weighted() const { return (flags_ & kWeighted) != 0; }
    bool has_alias() const { return (flags_ & kAlias) != 0; }

    /** Bytes one edge occupies in the edge region (4, 8 or 16). */
    std::uint32_t record_bytes() const { return record_bytes_; }

    /** Out-degree of @p v. */
    std::uint32_t
    degree(VertexId v) const
    {
        return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
    }

    /** CSR edge index of @p v's first edge. */
    EdgeIndex edge_begin(VertexId v) const { return offsets_[v]; }

    /** Absolute byte offset of @p v's record in the file. */
    std::uint64_t
    vertex_byte_offset(VertexId v) const
    {
        return edge_region_offset_ + offsets_[v] * record_bytes_;
    }

    /** Bytes of @p v's record. */
    std::uint64_t
    vertex_byte_size(VertexId v) const
    {
        return static_cast<std::uint64_t>(degree(v)) * record_bytes_;
    }

    /** Absolute byte offset where the edge region starts. */
    std::uint64_t edge_region_offset() const { return edge_region_offset_; }

    /** Total bytes of the edge region. */
    std::uint64_t
    edge_region_bytes() const
    {
        return num_edges_ * record_bytes_;
    }

    /** Total file size (header + index + edge region). */
    std::uint64_t
    file_bytes() const
    {
        return edge_region_offset_ + edge_region_bytes();
    }

    /** In-memory footprint of the CSR index (engines budget this). */
    std::uint64_t
    index_bytes() const
    {
        return offsets_.size() * sizeof(EdgeIndex);
    }

    /** The in-memory CSR offsets. */
    const std::vector<EdgeIndex> &offsets() const { return offsets_; }

    /**
     * Decode vertex @p v's record from @p raw, the bytes of the edge
     * region beginning at absolute file offset @p raw_begin.
     * @pre the record lies fully inside @p raw.
     */
    VertexView
    decode(VertexId v, std::span<const std::uint8_t> raw,
           std::uint64_t raw_begin) const
    {
        const std::uint64_t off = vertex_byte_offset(v);
        const std::uint64_t len = vertex_byte_size(v);
        NOSWALKER_CHECK(off >= raw_begin &&
                        off + len <= raw_begin + raw.size());
        const std::uint8_t *base = raw.data() + (off - raw_begin);
        const std::uint32_t deg = degree(v);

        VertexView view;
        view.id = v;
        view.targets = {reinterpret_cast<const VertexId *>(base), deg};
        std::uint64_t pos =
            static_cast<std::uint64_t>(deg) * sizeof(VertexId);
        if (weighted()) {
            view.weights = {reinterpret_cast<const Weight *>(base + pos),
                            deg};
            pos += static_cast<std::uint64_t>(deg) * sizeof(Weight);
        }
        if (has_alias()) {
            view.prob = {reinterpret_cast<const float *>(base + pos), deg};
            pos += static_cast<std::uint64_t>(deg) * sizeof(float);
            view.alias = {reinterpret_cast<const VertexId *>(base + pos),
                          deg};
        }
        return view;
    }

  private:
    storage::IoDevice *device_;
    VertexId num_vertices_ = 0;
    EdgeIndex num_edges_ = 0;
    std::uint64_t flags_ = 0;
    std::uint32_t record_bytes_ = 0;
    std::uint64_t edge_region_offset_ = 0;
    std::vector<EdgeIndex> offsets_;
};

} // namespace noswalker::graph
