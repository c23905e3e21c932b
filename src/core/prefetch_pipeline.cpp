#include "core/prefetch_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/error.hpp"

namespace noswalker::core {

namespace {

/** Bytes of @p segments as plan_segments() packs them, from 0. */
std::uint64_t
packed_bytes(std::span<const storage::PageSegment> segments)
{
    if (segments.empty()) {
        return 0;
    }
    const storage::PageSegment &last = segments.back();
    return last.host_offset + std::uint64_t{last.end_page - last.first_page} *
                                  storage::BlockReader::kPageBytes;
}

} // namespace

bool
RoundPacker::place(storage::AsyncLoader::Request &request)
{
    const std::uint64_t need = packed_bytes(request.segments);
    if (open_ > 0 && used_ + need <= host_bytes_) {
        request.host = open_ - 1;
        request.host_offset = used_;
        used_ += need;
        return true;
    }
    if (open_ < hosts_ && need <= host_bytes_) {
        request.host = open_++;
        request.host_offset = 0;
        used_ = need;
        return true;
    }
    return false;
}

PrefetchPipeline::PrefetchPipeline(storage::AsyncLoader &loader,
                                   storage::BlockReader &reader,
                                   storage::BlockBufferPool &pool,
                                   std::size_t depth,
                                   storage::SharedBlockCache *cache,
                                   double queue_latency)
    : loader_(&loader), reader_(&reader), pool_(&pool), depth_(depth),
      cache_(cache), queue_latency_(queue_latency)
{
    NOSWALKER_CHECK(loader.depth() >= std::max<std::size_t>(depth, 1));
}

PrefetchPipeline::~PrefetchPipeline()
{
    try {
        finish();
    } catch (...) {
        // Teardown after an error: leftover loads may rethrow; the
        // original exception is already propagating.
    }
}

bool
PrefetchPipeline::can_speculate() const
{
    return inflight_.size() + admitted_.size() + stash_.size() < depth_ &&
           loader_->can_submit();
}

bool
PrefetchPipeline::covers(std::uint32_t block) const
{
    if (admitted_.count(block) != 0 || stash_.count(block) != 0) {
        return true;
    }
    for (const Inflight &f : inflight_) {
        if (f.block == block) {
            return true;
        }
    }
    return false;
}

void
PrefetchPipeline::collect_covered(std::vector<std::uint32_t> &out) const
{
    for (const Inflight &f : inflight_) {
        out.push_back(f.block);
    }
    for (const auto &[id, parked] : admitted_) {
        out.push_back(id);
    }
    for (const auto &[id, parked] : stash_) {
        out.push_back(id);
    }
}

void
PrefetchPipeline::speculate(const graph::BlockInfo &block)
{
    NOSWALKER_CHECK(can_speculate());
    NOSWALKER_CHECK(!covers(block.id));
    storage::AsyncLoader::Request request;
    request.block = &block;
    request.fine = false;
    ++stats_.speculative_loads;
    // The scheduler picked this block as hot just now: remember the
    // heat for the demotion admission filter.
    last_hot_[block.id] = sweep_epoch_;
    const double submitted = now_;
    const std::uint64_t seq = loader_->submit(std::move(request));
    inflight_.push_back({block.id, submitted, seq});
}

double
PrefetchPipeline::finish_time(const storage::AsyncLoader::Response &response,
                              double submitted)
{
    if (response.result.from_cache || response.result.requests == 0) {
        // No device traffic: the load completes at submission.
        return submitted;
    }
    const double done = std::max(device_free_, submitted + queue_latency_) +
                        response.result.modeled_seconds;
    device_free_ = done;
    return done;
}

void
PrefetchPipeline::account(const storage::AsyncLoader::Response &response)
{
    if (response.fine) {
        ++stats_.fine_loads;
    } else {
        ++stats_.coarse_loads;
        if (response.result.from_cache) {
            ++stats_.cache_hit_loads;
        }
    }
    stats_.bytes_read += response.result.bytes_read;
    stats_.read_requests += response.result.requests;
    stats_.modeled_io_seconds += response.result.modeled_seconds;
}

void
PrefetchPipeline::charge_wait(double ready_at)
{
    if (ready_at > now_) {
        stats_.io_wait_seconds += ready_at - now_;
        now_ = ready_at;
    }
}

void
PrefetchPipeline::bank_response(storage::AsyncLoader::Response response)
{
    NOSWALKER_CHECK(!inflight_.empty());
    const Inflight head = inflight_.front();
    inflight_.pop_front();
    NOSWALKER_CHECK(response.block != nullptr &&
                    response.block->id == head.block &&
                    response.ticket == head.seq);
    // Banked without charging the clock: the consumer is not blocked
    // on this load until it is served.  Loads bank in ticket order, so
    // the running max is the FIFO bound of this ticket.
    banked_ready_ =
        std::max(banked_ready_, finish_time(response, head.submitted));
    account(response);
    admitted_.emplace(head.block, Parked{std::move(response), banked_ready_});
}

void
PrefetchPipeline::bank_next_blocking()
{
    storage::AsyncLoader::Response response;
    try {
        response = loader_->wait();
    } catch (...) {
        // The failed load is consumed: drop its ledger entry so
        // finish() does not wait for it a second time.
        inflight_.pop_front();
        throw;
    }
    bank_response(std::move(response));
}

void
PrefetchPipeline::poll()
{
    while (!inflight_.empty()) {
        auto response = loader_->try_wait();
        if (!response.has_value()) {
            return;
        }
        if (response->error) {
            inflight_.pop_front();
            std::rethrow_exception(response->error);
        }
        bank_response(std::move(*response));
    }
}

storage::AsyncLoader::Response
PrefetchPipeline::adapt(storage::AsyncLoader::Response response,
                        const storage::AsyncLoader::Request &demand)
{
    if (demand.fine && !response.fine) {
        reader_->refine(*demand.block, demand.needed, response.buffer,
                        demand.slots);
        response.fine = true;
    }
    return response;
}

PrefetchPipeline::Parked
PrefetchPipeline::take_covered(const storage::AsyncLoader::Request &demand)
{
    const std::uint32_t id = demand.block->id;
    Parked parked;
    if (const auto it = stash_.find(id); it != stash_.end()) {
        parked = std::move(it->second);
        stash_.erase(it);
    } else {
        // Bank completions in ticket order (blocking) until the target
        // lands.
        while (admitted_.find(id) == admitted_.end()) {
            bank_next_blocking();
        }
        const auto banked = admitted_.find(id);
        parked = std::move(banked->second);
        admitted_.erase(banked);
    }
    ++stats_.prefetch_hits;
    parked.response = adapt(std::move(parked.response), demand);
    return parked;
}

std::size_t
PrefetchPipeline::reserved() const
{
    return std::max<std::size_t>(depth_, 1) + 1;
}

void
PrefetchPipeline::drop_covered(std::uint32_t block)
{
    if (const auto it = stash_.find(block); it != stash_.end()) {
        // Already counted as mispredicted when demoted.
        recycle(std::move(it->second.response.buffer));
        stash_.erase(it);
        return;
    }
    while (admitted_.find(block) == admitted_.end()) {
        bank_next_blocking();
    }
    const auto banked = admitted_.find(block);
    ++stats_.prefetch_mispredicts;
    recycle(std::move(banked->second.response.buffer));
    admitted_.erase(banked);
}

void
PrefetchPipeline::make_room(std::size_t served, std::size_t demand_loads)
{
    // Nothing is in flight here: obtain_round banked it all.  Demoted
    // stash entries go first (already counted as mispredicts), then
    // banked speculation, each smallest id first as sweep() evicts.
    while (admitted_.size() + stash_.size() + served + demand_loads >
           reserved()) {
        std::map<std::uint32_t, Parked> &held =
            stash_.empty() ? admitted_ : stash_;
        NOSWALKER_CHECK(!held.empty());
        if (&held == &admitted_) {
            ++stats_.prefetch_mispredicts;
        }
        recycle(std::move(held.begin()->second.response.buffer));
        held.erase(held.begin());
    }
}

void
PrefetchPipeline::take_hosts(
    std::span<const storage::AsyncLoader::Request> demands,
    const std::vector<storage::AsyncLoader::Response> &out)
{
    // Size every host before any load lands in it: growing a host
    // moves its storage.
    std::vector<std::uint64_t> &bytes = host_bytes_scratch_;
    bytes.clear();
    for (std::size_t i = 0; i < demands.size(); ++i) {
        const storage::AsyncLoader::Request &demand = demands[i];
        if (!demand.fine || out[i].block != nullptr) {
            continue;
        }
        if (bytes.size() <= demand.host) {
            bytes.resize(demand.host + 1, 0);
        }
        // A host placed only dead ends still backs their views.
        bytes[demand.host] = std::max<std::uint64_t>(
            {bytes[demand.host], demand.host_offset +
                                     packed_bytes(demand.segments),
             1});
    }
    hosts_.resize(bytes.size());
    for (std::size_t h = 0; h < bytes.size(); ++h) {
        if (bytes[h] != 0) {
            hosts_[h] = pool_->acquire();
            reader_->reserve_host(hosts_[h], bytes[h]);
        }
    }
}

storage::AsyncLoader::Response
PrefetchPipeline::load_packed(const storage::AsyncLoader::Request &demand)
{
    storage::AsyncLoader::Response response;
    response.block = demand.block;
    response.fine = true;
    if (!spare_views_.empty()) {
        response.buffer = std::move(spare_views_.back());
        spare_views_.pop_back();
    }
    response.result = reader_->load_fine_packed(
        *demand.block, demand.segments, hosts_[demand.host],
        demand.host_offset, response.buffer);
    ++live_views_;
    return response;
}

void
PrefetchPipeline::release_hosts()
{
    for (storage::BlockBuffer &host : hosts_) {
        if (host.owns_storage()) {
            pool_->recycle(std::move(host));
        }
    }
    hosts_.clear();
}

void
PrefetchPipeline::obtain_round(
    std::span<storage::AsyncLoader::Request> demands,
    std::vector<storage::AsyncLoader::Response> &out)
{
    NOSWALKER_CHECK(live_views_ == 0);
    out.clear();
    out.resize(demands.size());
    // Host buffers the round's placement opened: whatever speculation
    // serves, the demand loads may need every one of them.
    std::size_t placed_hosts = 0;
    for (const storage::AsyncLoader::Request &demand : demands) {
        NOSWALKER_CHECK(demand.block != nullptr);
        if (demand.fine) {
            placed_hosts = std::max<std::size_t>(placed_hosts,
                                                 demand.host + 1);
        }
    }
    NOSWALKER_CHECK(placed_hosts <= reserved());
    NOSWALKER_CHECK(placed_hosts > 0 || demands.size() <= 1);
    const std::size_t servable =
        placed_hosts > 0 ? reserved() - placed_hosts : demands.size();
    double ready = now_;
    std::size_t served = 0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
        if (!covers(demands[i].block->id)) {
            continue;
        }
        if (served == servable) {
            drop_covered(demands[i].block->id);
            continue;
        }
        Parked parked = take_covered(demands[i]);
        ready = std::max(ready, parked.ready_at);
        out[i] = std::move(parked.response);
        ++served;
    }
    const std::size_t loads = demands.size() - served;
    if (loads > 0) {
        // Demand loads run where they are waited for, after the FIFO
        // ahead of them: bank every older ticket (no charge — the
        // round's FIFO bound covers them), then load on this thread,
        // where the loader thread could overlap them with nothing.
        // Every load of the round is submitted at the same modeled
        // time, so the device queues them back to back and the queue
        // latency is paid once.
        stats_.demand_loads += loads;
        while (loader_->outstanding()) {
            bank_next_blocking();
        }
        const bool fine = placed_hosts > 0;
        make_room(served, fine ? placed_hosts : loads);
        if (fine) {
            take_hosts(demands, out);
        }
        const double submitted = now_;
        for (std::size_t i = 0; i < demands.size(); ++i) {
            if (out[i].block != nullptr) {
                continue;
            }
            out[i] = fine ? load_packed(demands[i])
                          : loader_->load_now(std::move(demands[i]));
            banked_ready_ =
                std::max(banked_ready_, finish_time(out[i], submitted));
            account(out[i]);
        }
        ready = std::max(ready, banked_ready_);
    }
    charge_wait(ready);
}

storage::AsyncLoader::Response
PrefetchPipeline::obtain(storage::AsyncLoader::Request demand)
{
    std::vector<storage::AsyncLoader::Response> out;
    obtain_round(std::span(&demand, 1), out);
    return std::move(out.front());
}

void
PrefetchPipeline::sweep(const BlockScheduler &scheduler)
{
    ++sweep_epoch_;
    for (auto it = admitted_.begin(); it != admitted_.end();) {
        if (scheduler.count(it->first) != 0) {
            last_hot_[it->first] = sweep_epoch_;
            ++it;
            continue;
        }
        // Misprediction: the bucket drained before the block was
        // chosen.  Demote — publish the coarse bytes to the shared
        // cache and park the buffer in the stash for a re-steer.
        ++stats_.prefetch_mispredicts;
        Parked parked = std::move(it->second);
        it = admitted_.erase(it);
        const storage::BlockBuffer &buffer = parked.response.buffer;
        const std::uint32_t id = parked.response.block->id;
        if (cache_ != nullptr && buffer.complete()) {
            const auto hot = last_hot_.find(id);
            if (hot != last_hot_.end() &&
                sweep_epoch_ - hot->second <= kAdmissionSweeps) {
                const auto bytes = buffer.bytes();
                cache_->insert(id, buffer.aligned_begin(),
                               std::vector<std::uint8_t>(bytes.begin(),
                                                         bytes.end()));
            } else {
                // Stale speculation: publishing would only dilute hot
                // service tenants.
                ++stats_.filtered_demotions;
            }
        }
        if (stash_.size() >= std::max<std::size_t>(depth_, 1)) {
            auto victim = stash_.begin();
            recycle(std::move(victim->second.response.buffer));
            stash_.erase(victim);
        }
        stash_.emplace(id, std::move(parked));
    }
}

void
PrefetchPipeline::finish()
{
    while (!inflight_.empty()) {
        // End of run: leftover speculation is consumed (the I/O really
        // happened) but the consumer is not waiting on it — account it
        // without charging the io-wait clock.
        const Inflight head = inflight_.front();
        inflight_.pop_front();
        storage::AsyncLoader::Response response = loader_->wait();
        NOSWALKER_CHECK(response.block != nullptr &&
                        response.block->id == head.block &&
                        response.ticket == head.seq);
        finish_time(response, head.submitted);
        account(response);
        ++stats_.prefetch_mispredicts;
        recycle(std::move(response.buffer));
    }
    for (auto &[id, parked] : admitted_) {
        ++stats_.prefetch_mispredicts;
        recycle(std::move(parked.response.buffer));
    }
    admitted_.clear();
    for (auto &[id, parked] : stash_) {
        // Already counted as mispredicted when demoted.
        recycle(std::move(parked.response.buffer));
    }
    stash_.clear();
    last_hot_.clear();
    release_hosts();
}

void
PrefetchPipeline::recycle(storage::BlockBuffer &&buffer)
{
    if (!buffer.is_view()) {
        pool_->recycle(std::move(buffer));
        return;
    }
    buffer.clear();
    spare_views_.push_back(std::move(buffer));
    NOSWALKER_CHECK(live_views_ > 0);
    if (--live_views_ == 0) {
        release_hosts();
    }
}

} // namespace noswalker::core
