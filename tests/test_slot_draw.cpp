/**
 * @file
 * Slot-exact fine loads (DESIGN.md §12): an app that can name the one
 * target slot its next draw reads (engine::SlotDrawApp) gets fine loads
 * that mark only that slot's page, and a fine buffer serves its walker
 * once that page is resident.
 *
 * Covers the draw_slot contract of every app that implements it, the
 * BlockReader marking rule (slot page, kWholeRecord, refine, a cache
 * hit copying only marked pages), and the end-to-end claim: with
 * pre-sampling off, an engine run and a WalkService run give the same
 * walks with the hook as with it hidden, while reading fewer bytes.
 * Suite names match the `tsan` test preset.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/basic_rw.hpp"
#include "apps/deepwalk.hpp"
#include "apps/graphlet.hpp"
#include "apps/ppr.hpp"
#include "apps/rwd.hpp"
#include "apps/rwr.hpp"
#include "apps/simrank.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "service/service_app.hpp"
#include "service/walk_service.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "storage/shared_block_cache.hpp"

namespace noswalker {
namespace {

using storage::BlockBuffer;
using storage::BlockReader;

/** Skewed graph whose hub records span several 4 KiB pages. */
struct HubGraph {
    graph::CsrGraph graph;
    storage::MemDevice device{storage::SsdModel::p4618()};
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;

    explicit HubGraph(std::uint64_t block_bytes = 32 << 10,
                      unsigned scale = 11)
        : graph(graph::generate_rmat({.scale = scale,
                                      .edge_factor = 32,
                                      .a = 0.57,
                                      .b = 0.19,
                                      .c = 0.19,
                                      .seed = 5,
                                      .symmetrize = false,
                                      .weighted = false}))
    {
        graph::GraphFile::write(graph, device);
        file = std::make_unique<graph::GraphFile>(device);
        partition =
            std::make_unique<graph::BlockPartition>(*file, block_bytes);
    }

    /** The vertex with the largest record. */
    graph::VertexId
    hub() const
    {
        graph::VertexId best = 0;
        for (graph::VertexId v = 0; v < file->num_vertices(); ++v) {
            if (file->degree(v) > file->degree(best)) {
                best = v;
            }
        }
        return best;
    }
};

/** Pages of @p block's buffer a record spans (the rule kWholeRecord
 *  keeps). */
std::vector<std::uint64_t>
record_pages(const graph::GraphFile &file, const graph::BlockInfo &block,
             graph::VertexId v)
{
    const std::uint64_t base =
        block.byte_begin / BlockReader::kPageBytes * BlockReader::kPageBytes;
    const std::uint64_t begin = file.vertex_byte_offset(v);
    const std::uint64_t end = begin + file.vertex_byte_size(v);
    std::vector<std::uint64_t> pages;
    for (std::uint64_t p = (begin - base) / BlockReader::kPageBytes;
         p <= (end - 1 - base) / BlockReader::kPageBytes; ++p) {
        pages.push_back(p);
    }
    return pages;
}

/** Residency of each target slot of @p v's record in @p buffer,
 *  through the slot predicate. */
std::vector<bool>
resident_slots(const graph::GraphFile &file, const BlockBuffer &buffer,
               graph::VertexId v)
{
    std::vector<bool> out;
    for (std::uint32_t s = 0; s < file.degree(v); ++s) {
        out.push_back(buffer.vertex_loaded(file, v, s));
    }
    return out;
}

/**
 * The draw_slot contract on every vertex of @p fixture: dry-run on a
 * copy of the event RNG, then sample() on the original; the drawn
 * vertex is targets[slot], and the original ends where one uniform
 * draw leaves the copy (the dry run replays exactly what sample()
 * consumes).
 */
template <typename App>
void
expect_slot_contract(App &app, const HubGraph &fixture, const char *name)
{
    util::MemoryBudget budget;
    BlockReader reader(*fixture.file, budget);
    BlockBuffer buffer;
    const typename App::WalkerT w = app.generate(0);
    std::uint64_t checked = 0;
    for (const graph::BlockInfo &block : fixture.partition->blocks()) {
        reader.load_coarse(block, buffer);
        for (graph::VertexId v = block.first_vertex; v < block.end_vertex;
             ++v) {
            const std::uint32_t degree = fixture.file->degree(v);
            if (degree == 0) {
                continue;
            }
            const graph::VertexView view = buffer.view(*fixture.file, v);
            for (std::uint64_t k = 0; k < 4; ++k) {
                util::Rng rng(v * 1'000'003ULL + k);
                const util::Rng copy = rng;
                const std::uint32_t slot = app.draw_slot(w, degree, copy);
                ASSERT_LT(slot, degree) << name << " vertex " << v;
                const graph::VertexId next = app.sample(view, rng);
                ASSERT_EQ(next, view.targets[slot])
                    << name << " vertex " << v << " draw " << k;
                util::Rng replay = copy;
                graph::VertexView::uniform_slot(degree, replay);
                ASSERT_EQ(rng(), replay()) << name << " vertex " << v;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 0u) << name;
}

TEST(PrefetchSlotDraw, EveryHookNamesTheSlotSampleReads)
{
    const HubGraph fixture;
    ASSERT_GT(fixture.file->vertex_byte_size(fixture.hub()),
              2 * BlockReader::kPageBytes)
        << "the graph needs multi-page hub records";
    const graph::VertexId n = fixture.file->num_vertices();

    apps::BasicRandomWalk basic(8, n);
    expect_slot_contract(basic, fixture, "BasicRandomWalk");
    apps::PersonalizedPageRank ppr({0, 1}, 4, 8);
    expect_slot_contract(ppr, fixture, "PersonalizedPageRank");
    apps::DeepWalk deepwalk(n, 1, 8, nullptr);
    expect_slot_contract(deepwalk, fixture, "DeepWalk");
    apps::RandomWalkWithRestart rwr(0, 4, 8);
    expect_slot_contract(rwr, fixture, "RandomWalkWithRestart");
    apps::RandomWalkDomination rwd(n, 8);
    expect_slot_contract(rwd, fixture, "RandomWalkDomination");
    apps::SimRank simrank(0, 1, 4, 8);
    expect_slot_contract(simrank, fixture, "SimRank");
    apps::GraphletConcentration graphlet(n, 4);
    expect_slot_contract(graphlet, fixture, "GraphletConcentration");

    service::WalkRequest request;
    request.starts = {0};
    request.walks_per_start = 1;
    service::ServiceWalkApp service_app;
    service_app.add_request(request);
    expect_slot_contract(service_app, fixture, "ServiceWalkApp");
}

TEST(PrefetchSlotDraw, WeightedServiceDrawNeedsTheWholeRecord)
{
    service::WalkRequest request;
    request.starts = {0};
    request.walks_per_start = 1;
    request.weighted = true;
    service::ServiceWalkApp app;
    app.add_request(request);
    const service::ServiceWalker w = app.generate(0);
    for (std::uint32_t degree : {1u, 7u, 5000u}) {
        EXPECT_EQ(app.draw_slot(w, degree, util::Rng(degree)),
                  engine::kWholeRecord);
    }
}

TEST(PrefetchSlotReader, SlotMarksExactlyItsPage)
{
    const HubGraph fixture;
    const graph::VertexId hub = fixture.hub();
    const graph::BlockInfo &block =
        fixture.partition->block(fixture.partition->block_of(hub));
    const std::vector<std::uint64_t> pages =
        record_pages(*fixture.file, block, hub);
    ASSERT_GE(pages.size(), 3u);

    util::MemoryBudget budget;
    BlockReader reader(*fixture.file, budget);
    BlockBuffer buffer;
    const std::uint32_t degree = fixture.file->degree(hub);
    const std::vector<graph::VertexId> needed = {hub};
    const std::uint64_t first_byte =
        fixture.file->vertex_byte_offset(hub) -
        block.byte_begin / BlockReader::kPageBytes * BlockReader::kPageBytes;
    const auto page_of = [&](std::uint32_t s) {
        return (first_byte + std::uint64_t{s} * sizeof(graph::VertexId)) /
               BlockReader::kPageBytes;
    };
    // Every slot, so the slots on either side of each page edge are
    // among them; at those the whole residency vector is checked.
    for (std::uint32_t slot = 0; slot < degree; ++slot) {
        const std::vector<std::uint32_t> slots = {slot};
        const storage::LoadResult r =
            reader.load_fine(block, needed, buffer, slots);
        ASSERT_EQ(r.bytes_read, BlockReader::kPageBytes) << slot;
        ASSERT_EQ(r.requests, 1u);
        ASSERT_TRUE(buffer.vertex_loaded(*fixture.file, hub, slot)) << slot;
        ASSERT_FALSE(buffer.vertex_loaded(*fixture.file, hub));
        ASSERT_EQ(buffer.view(*fixture.file, hub).targets[slot],
                  fixture.graph.neighbors(hub)[slot]);
        const bool page_edge = slot == 0 || slot + 1 == degree ||
                               page_of(slot - 1) != page_of(slot) ||
                               page_of(slot + 1) != page_of(slot);
        if (page_edge) {
            const std::vector<bool> resident =
                resident_slots(*fixture.file, buffer, hub);
            for (std::uint32_t s = 0; s < degree; ++s) {
                ASSERT_EQ(resident[s], page_of(s) == page_of(slot))
                    << "slot " << slot << " probe " << s;
            }
        }
    }
}

TEST(PrefetchSlotReader, WholeRecordMarksEveryPageOfTheRecord)
{
    const HubGraph fixture;
    const graph::VertexId hub = fixture.hub();
    const graph::BlockInfo &block =
        fixture.partition->block(fixture.partition->block_of(hub));
    util::MemoryBudget budget;
    BlockReader reader(*fixture.file, budget);
    const std::vector<graph::VertexId> needed = {hub};

    BlockBuffer whole;
    const std::vector<std::uint32_t> sentinel = {engine::kWholeRecord};
    const storage::LoadResult r =
        reader.load_fine(block, needed, whole, sentinel);
    EXPECT_TRUE(whole.vertex_loaded(*fixture.file, hub));
    EXPECT_EQ(r.bytes_read, record_pages(*fixture.file, block, hub).size() *
                                BlockReader::kPageBytes);

    // No slots at all is the same rule: every needed record whole.
    BlockBuffer unslotted;
    const storage::LoadResult u = reader.load_fine(block, needed, unslotted);
    EXPECT_EQ(u.bytes_read, r.bytes_read);
    EXPECT_EQ(resident_slots(*fixture.file, unslotted, hub),
              resident_slots(*fixture.file, whole, hub));
}

TEST(PrefetchSlotReader, RefineWithSlotsMatchesAFreshFineLoad)
{
    const HubGraph fixture;
    util::MemoryBudget budget;
    BlockReader reader(*fixture.file, budget);
    for (const graph::BlockInfo &block : fixture.partition->blocks()) {
        std::vector<graph::VertexId> needed;
        std::vector<std::uint32_t> slots;
        for (graph::VertexId v = block.first_vertex; v < block.end_vertex;
             v += 3) {
            needed.push_back(v);
            const std::uint32_t degree = fixture.file->degree(v);
            slots.push_back(v % 5 == 0 || degree == 0
                                ? engine::kWholeRecord
                                : static_cast<std::uint32_t>(
                                      (v * 2654435761ULL) % degree));
        }
        BlockBuffer fresh;
        reader.load_fine(block, needed, fresh, slots);
        BlockBuffer refined;
        reader.load_coarse(block, refined);
        reader.refine(block, needed, refined, slots);
        EXPECT_FALSE(refined.complete());
        for (graph::VertexId v = block.first_vertex; v < block.end_vertex;
             ++v) {
            ASSERT_EQ(refined.vertex_loaded(*fixture.file, v),
                      fresh.vertex_loaded(*fixture.file, v))
                << "block " << block.id << " vertex " << v;
            ASSERT_EQ(resident_slots(*fixture.file, refined, v),
                      resident_slots(*fixture.file, fresh, v))
                << "block " << block.id << " vertex " << v;
        }
    }
}

TEST(PrefetchSlotReader, CacheHitCopiesOnlyTheMarkedPages)
{
    const HubGraph fixture;
    const graph::VertexId hub = fixture.hub();
    const graph::BlockInfo &block =
        fixture.partition->block(fixture.partition->block_of(hub));
    // A larger block loaded first leaves its bytes in the recycled
    // buffer storage; a cache-served fine load must overwrite only the
    // marked pages of them.
    const graph::BlockInfo *other = nullptr;
    for (const graph::BlockInfo &b : fixture.partition->blocks()) {
        if (b.id != block.id &&
            (other == nullptr || b.byte_size > other->byte_size)) {
            other = &b;
        }
    }
    ASSERT_NE(other, nullptr);
    ASSERT_GE(other->byte_size + BlockReader::kPageBytes, block.byte_size);

    util::MemoryBudget budget;
    storage::SharedBlockCache cache(64ULL << 20);
    BlockReader cached(*fixture.file, budget, 8ULL << 20, &cache);
    BlockBuffer buffer;
    cached.load_coarse(block, buffer); // publishes the block's image
    const std::vector<std::uint8_t> image(buffer.bytes().begin(),
                                          buffer.bytes().end());
    cached.load_coarse(*other, buffer);
    const std::vector<std::uint8_t> stale(buffer.bytes().begin(),
                                          buffer.bytes().end());

    const std::vector<graph::VertexId> needed = {hub, block.first_vertex};
    const std::vector<std::uint32_t> slots = {
        fixture.file->degree(hub) - 1, engine::kWholeRecord};
    const std::uint64_t reads_before = fixture.device.stats().read_requests;
    const storage::LoadResult hit =
        cached.load_fine(block, needed, buffer, slots);
    EXPECT_TRUE(hit.from_cache);
    EXPECT_EQ(hit.bytes_read, 0u);
    EXPECT_EQ(fixture.device.stats().read_requests, reads_before);

    // Residency is what a device fine load of the same request gives.
    BlockReader uncached(*fixture.file, budget);
    BlockBuffer device_load;
    uncached.load_fine(block, needed, device_load, slots);
    const std::span<const std::uint8_t> got = buffer.bytes();
    std::uint64_t marked = 0;
    for (std::uint64_t p = 0; p * BlockReader::kPageBytes < got.size();
         ++p) {
        const std::uint64_t lo = p * BlockReader::kPageBytes;
        const std::uint64_t hi =
            std::min<std::uint64_t>(lo + BlockReader::kPageBytes, got.size());
        const bool is_marked = std::equal(
            got.begin() + lo, got.begin() + hi, image.begin() + lo);
        const bool is_stale =
            hi <= stale.size() &&
            std::equal(got.begin() + lo, got.begin() + hi,
                       stale.begin() + lo);
        // Each page is either copied from the image or left untouched.
        ASSERT_TRUE(is_marked || is_stale) << "page " << p;
        marked += is_marked && !is_stale ? 1 : 0;
    }
    EXPECT_GT(marked, 0u);
    for (graph::VertexId v = block.first_vertex; v < block.end_vertex;
         ++v) {
        ASSERT_EQ(buffer.vertex_loaded(*fixture.file, v),
                  device_load.vertex_loaded(*fixture.file, v));
        ASSERT_EQ(resident_slots(*fixture.file, buffer, v),
                  resident_slots(*fixture.file, device_load, v));
    }
    EXPECT_EQ(buffer.view(*fixture.file, hub)
                  .targets[fixture.file->degree(hub) - 1],
              fixture.graph.neighbors(hub).back());
}

/**
 * Forwards every hook of @p Inner but draw_slot, so fine loads and
 * residency fall back to whole records — the engine path before
 * slot-exact loads.
 */
template <typename Inner>
class HideSlotDraw {
  public:
    using WalkerT = typename Inner::WalkerT;

    explicit HideSlotDraw(Inner &inner) : inner_(&inner) {}

    WalkerT generate(std::uint64_t n) { return inner_->generate(n); }

    std::uint64_t
    stream(std::uint64_t n) const
        requires engine::StreamKeyApp<Inner>
    {
        return inner_->stream(n);
    }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return inner_->sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const graph::VertexView &view,
           util::Rng probe) const
    {
        return inner_->gather(w, view, probe);
    }

    bool active(const WalkerT &w) const { return inner_->active(w); }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        return inner_->action(w, next, rng);
    }

  private:
    Inner *inner_;
};

using testing_support::ConcurrentRecordingWalk;
static_assert(!engine::SlotDrawApp<HideSlotDraw<ConcurrentRecordingWalk>>);
static_assert(engine::StreamKeyApp<HideSlotDraw<service::ServiceWalkApp>>);

TEST(PrefetchSlotEngine, FineRunMatchesTheHiddenHookAndReadsLess)
{
    const HubGraph fixture(32 << 10, 12);
    const std::uint64_t walkers = 48;
    core::EngineConfig cfg = core::EngineConfig::full(0, 32 << 10);
    cfg.presample = false;
    cfg.alpha = 0.05; // α·|Wa|·4 KiB < S_G: fine from the first load

    const graph::VertexId n = fixture.file->num_vertices();
    ConcurrentRecordingWalk with(24, n, walkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> hook_engine(
        *fixture.file, *fixture.partition, cfg);
    const engine::RunStats hook = hook_engine.run(with, walkers);

    ConcurrentRecordingWalk without(24, n, walkers);
    HideSlotDraw<ConcurrentRecordingWalk> hidden_app(without);
    core::NosWalkerEngine<HideSlotDraw<ConcurrentRecordingWalk>>
        hidden_engine(*fixture.file, *fixture.partition, cfg);
    const engine::RunStats hidden = hidden_engine.run(hidden_app, walkers);

    EXPECT_GT(hook.fine_loads, 0u);
    EXPECT_EQ(hook.blocks_loaded, 0u) << "fine from the first load";
    EXPECT_EQ(hook.steps, hidden.steps);
    EXPECT_EQ(with.endpoints, without.endpoints);
    for (graph::VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(with.visits[v].load(), without.visits[v].load()) << v;
    }
    EXPECT_LT(hook.graph_bytes_read, hidden.graph_bytes_read);
}

TEST(ServiceSlotDraw, ServiceMatchesHiddenHookRunsAndReadsLess)
{
    const HubGraph fixture(32 << 10, 12);
    const graph::VertexId n = fixture.file->num_vertices();
    std::vector<service::WalkRequest> requests;
    for (std::uint64_t i = 0; i < 6; ++i) {
        service::WalkRequest r;
        r.seed = 300 + 17 * i;
        r.length = 10 + static_cast<std::uint32_t>(i);
        r.kind = i % 2 == 0 ? service::WalkKind::kPaths
                            : service::WalkKind::kEndpoints;
        r.starts = {static_cast<graph::VertexId>((97 * i) % n),
                    static_cast<graph::VertexId>((31 * i + 7) % n)};
        r.walks_per_start = 3;
        requests.push_back(std::move(r));
    }

    service::ServiceConfig sc;
    sc.num_workers = 1;
    sc.max_batch = 1;
    sc.block_bytes = 32 << 10;
    sc.memory_budget = 64ULL << 20;
    sc.cache_bytes = 0;
    service::WalkService svc(*fixture.file, *fixture.partition, sc);
    std::vector<service::WalkTicket> tickets;
    for (const service::WalkRequest &r : requests) {
        tickets.push_back(svc.submit(r));
    }

    core::EngineConfig cfg = core::EngineConfig::full(64ULL << 20, 32 << 10);
    cfg.presample = false; // as every service engine runs
    std::uint64_t hook_bytes = 0;
    std::uint64_t hidden_bytes = 0;
    std::uint64_t fine_loads = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const service::WalkResult served = tickets[i].get();
        ASSERT_TRUE(served.ok()) << served.error;

        service::ServiceWalkApp with;
        with.add_request(requests[i]);
        core::NosWalkerEngine<service::ServiceWalkApp> hook_engine(
            *fixture.file, *fixture.partition, cfg);
        const engine::RunStats hook =
            hook_engine.run(with, with.total_walkers());

        service::ServiceWalkApp without;
        without.add_request(requests[i]);
        HideSlotDraw<service::ServiceWalkApp> hidden_app(without);
        core::NosWalkerEngine<HideSlotDraw<service::ServiceWalkApp>>
            hidden_engine(*fixture.file, *fixture.partition, cfg);
        const engine::RunStats hidden =
            hidden_engine.run(hidden_app, without.total_walkers());

        const service::ServiceWalkApp::Slot &a = with.slots()[0];
        const service::ServiceWalkApp::Slot &b = without.slots()[0];
        EXPECT_EQ(a.endpoints, b.endpoints) << "request " << i;
        EXPECT_EQ(a.paths, b.paths) << "request " << i;
        EXPECT_EQ(served.endpoints, b.endpoints) << "request " << i;
        EXPECT_EQ(served.paths, b.paths) << "request " << i;
        hook_bytes += hook.graph_bytes_read;
        hidden_bytes += hidden.graph_bytes_read;
        fine_loads += hook.fine_loads;
    }
    EXPECT_GT(fine_loads, 0u);
    EXPECT_LT(hook_bytes, hidden_bytes);
}

} // namespace
} // namespace noswalker
