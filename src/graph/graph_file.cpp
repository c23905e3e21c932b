#include "graph/graph_file.hpp"

#include <cstring>

#include "util/error.hpp"

namespace noswalker::graph {

namespace {

constexpr std::uint64_t kMagic = 0x3146524757534f4eULL; // "NOSWGRF1"
constexpr std::uint64_t kHeaderBytes = 48;

struct Header {
    std::uint64_t magic;
    std::uint64_t num_vertices;
    std::uint64_t num_edges;
    std::uint64_t flags;
    std::uint64_t edge_region_offset;
    std::uint64_t reserved;
};
static_assert(sizeof(Header) == kHeaderBytes);

std::uint32_t
record_bytes_for(std::uint64_t flags)
{
    std::uint32_t bytes = sizeof(VertexId);
    if (flags & GraphFile::kWeighted) {
        bytes += sizeof(Weight);
    }
    if (flags & GraphFile::kAlias) {
        bytes += sizeof(float) + sizeof(VertexId);
    }
    return bytes;
}

} // namespace

VertexId
VertexView::sample_weighted(util::Rng &rng) const
{
    const std::size_t n = targets.size();
    if (!prob.empty()) {
        const std::size_t slot = rng.next_index(n);
        return rng.next_double() < prob[slot] ? targets[slot]
                                              : targets[alias[slot]];
    }
    NOSWALKER_CHECK(!weights.empty());
    double total = 0.0;
    for (Weight w : weights) {
        total += w;
    }
    double r = rng.next_double(total);
    for (std::size_t i = 0; i < n; ++i) {
        r -= weights[i];
        if (r <= 0.0) {
            return targets[i];
        }
    }
    return targets[n - 1];
}

void
GraphFile::write(const CsrGraph &graph, storage::IoDevice &device,
                 bool with_alias)
{
    if (with_alias && !graph.weighted()) {
        throw util::ConfigError(
            "GraphFile::write: alias tables need a weighted graph");
    }

    std::uint64_t flags = 0;
    if (graph.weighted()) {
        flags |= kWeighted;
    }
    if (with_alias) {
        flags |= kAlias;
    }
    const std::uint32_t rec = record_bytes_for(flags);
    const std::uint64_t index_bytes =
        (static_cast<std::uint64_t>(graph.num_vertices()) + 1) *
        sizeof(EdgeIndex);

    Header header{};
    header.magic = kMagic;
    header.num_vertices = graph.num_vertices();
    header.num_edges = graph.num_edges();
    header.flags = flags;
    header.edge_region_offset = kHeaderBytes + index_bytes;
    device.write(0, sizeof(header), &header);
    device.write(kHeaderBytes, index_bytes, graph.offsets().data());

    // Stream the edge region vertex by vertex, buffering ~4 MiB writes.
    std::vector<std::uint8_t> buffer;
    buffer.reserve(4 << 20);
    std::uint64_t write_pos = header.edge_region_offset;
    const auto flush = [&] {
        if (!buffer.empty()) {
            device.write(write_pos, buffer.size(), buffer.data());
            write_pos += buffer.size();
            buffer.clear();
        }
    };
    const auto append = [&](const void *data, std::size_t len) {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buffer.insert(buffer.end(), p, p + len);
    };

    std::vector<double> alias_weights;
    std::vector<float> prob_out;
    std::vector<VertexId> alias_out;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        const auto nbrs = graph.neighbors(v);
        append(nbrs.data(), nbrs.size_bytes());
        if (graph.weighted()) {
            const auto ws = graph.weights(v);
            append(ws.data(), ws.size_bytes());
            if (with_alias && !nbrs.empty()) {
                alias_weights.assign(ws.begin(), ws.end());
                prob_out.resize(nbrs.size());
                alias_out.resize(nbrs.size());
                util::build_alias_arrays(alias_weights, prob_out, alias_out);
                append(prob_out.data(), prob_out.size() * sizeof(float));
                append(alias_out.data(),
                       alias_out.size() * sizeof(VertexId));
            }
        }
        if (buffer.size() >= (4 << 20)) {
            flush();
        }
    }
    flush();
    (void)rec;
}

GraphFile::GraphFile(storage::IoDevice &device) : device_(&device)
{
    if (device.size() < kHeaderBytes) {
        throw util::IoError("GraphFile: file too small for header");
    }
    Header header{};
    device.read(0, sizeof(header), &header);
    if (header.magic != kMagic) {
        throw util::IoError("GraphFile: bad magic");
    }
    num_vertices_ = static_cast<VertexId>(header.num_vertices);
    num_edges_ = header.num_edges;
    flags_ = header.flags;
    record_bytes_ = record_bytes_for(flags_);
    edge_region_offset_ = header.edge_region_offset;

    offsets_.resize(static_cast<std::size_t>(num_vertices_) + 1);
    const std::uint64_t index_bytes =
        offsets_.size() * sizeof(EdgeIndex);
    if (device.size() < kHeaderBytes + index_bytes) {
        throw util::IoError("GraphFile: truncated index");
    }
    device.read(kHeaderBytes, index_bytes, offsets_.data());
    if (offsets_.back() != num_edges_) {
        throw util::IoError("GraphFile: index/edge-count mismatch");
    }
    if (device.size() < file_bytes()) {
        throw util::IoError("GraphFile: truncated edge region");
    }
}

} // namespace noswalker::graph
