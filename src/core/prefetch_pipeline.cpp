#include "core/prefetch_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/error.hpp"

namespace noswalker::core {

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
    inflight_.push_back({block.id, submitted, seq, true});
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
    admitted_.emplace(head.block, Parked{std::move(response), banked_ready_,
                                         head.speculative});
}

void
PrefetchPipeline::bank_next_blocking()
{
    bank_response(loader_->wait());
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
        reader_->refine(*demand.block, demand.needed, response.buffer);
        response.fine = true;
    }
    return response;
}

storage::AsyncLoader::Response
PrefetchPipeline::obtain(storage::AsyncLoader::Request demand)
{
    NOSWALKER_CHECK(demand.block != nullptr);
    const std::uint32_t id = demand.block->id;

    Parked parked;
    if (const auto it = stash_.find(id); it != stash_.end()) {
        parked = std::move(it->second);
        stash_.erase(it);
    } else {
        if (!covers(id)) {
            ++stats_.demand_loads;
            // All loader slots may be occupied by speculation: bank the
            // oldest completion(s) until one frees up.  No charge — the
            // served load's FIFO bound covers them.
            while (!loader_->can_submit()) {
                bank_next_blocking();
            }
            const double submitted = now_;
            const std::uint64_t seq = loader_->submit(std::move(demand));
            inflight_.push_back({id, submitted, seq, false});
        }
        // Bank completions in ticket order (blocking) until the target
        // lands.
        while (admitted_.find(id) == admitted_.end()) {
            bank_next_blocking();
        }
        const auto banked = admitted_.find(id);
        parked = std::move(banked->second);
        admitted_.erase(banked);
    }
    charge_wait(parked.ready_at);
    if (parked.speculative) {
        // `demand` is intact here: it was only moved on the
        // demand-load path, whose load delivers its own fine list.
        ++stats_.prefetch_hits;
        return adapt(std::move(parked.response), demand);
    }
    return std::move(parked.response);
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
}

void
PrefetchPipeline::recycle(storage::BlockBuffer &&buffer)
{
    pool_->recycle(std::move(buffer));
}

} // namespace noswalker::core
