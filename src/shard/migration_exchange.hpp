/**
 * @file
 * Batched walker exchange between shards.
 *
 * Shards post consignments incrementally as block buckets drain
 * (DESIGN.md §11) — each flush event carries a per-src sequence
 * number — and any shard thread may opportunistically move completed
 * consignments out of the queue mid-round (collect(), non-blocking)
 * into the orchestrator's staging pool.
 *
 * Delivery order — and therefore the next round's admission order —
 * is made a pure function of the walk, never of which shard thread
 * reached the exchange first, by sorting staged batches by
 * (dst, src, seq) before admission: per (src,dst) pair the
 * seq-ascending concatenation reproduces the src shard's outbox order
 * exactly.
 *
 * Conservation is tracked per (src,dst) pair: post() and collect()
 * update a pair-flow table, a debug-build assert_conserved() verifies
 * posted == delivered for every pair once the exchange is drained, and
 * pair_flows() exposes the table to tests.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "util/blocking_queue.hpp"

namespace noswalker::shard {

/** One shard-to-shard walker consignment. */
template <typename Record>
struct MigrationBatch {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t round = 0;
    /** Flush sequence of the posting shard within the round.
     *  Admission sorts by (dst, src, seq) — see the file comment. */
    std::uint64_t seq = 0;
    std::vector<Record> records;
};

/** Conservation counters of a MigrationExchange. */
struct ExchangeCounters {
    std::uint64_t posted_records = 0;
    std::uint64_t posted_batches = 0;
    std::uint64_t delivered_records = 0;
    std::uint64_t delivered_batches = 0;
};

/** Per-(src,dst) slice of the conservation counters. */
struct PairFlow {
    std::uint64_t posted_records = 0;
    std::uint64_t posted_batches = 0;
    std::uint64_t delivered_records = 0;
    std::uint64_t delivered_batches = 0;
};

/**
 * Multi-producer (shard threads), multi-drainer (any shard thread may
 * stage; the round orchestrator admits) exchange.  Unbounded: a
 * round's emigrant volume is already bounded by the shards' walker-
 * pool caps.
 */
template <typename Record>
class MigrationExchange {
  public:
    using Batch = MigrationBatch<Record>;
    using PairKey = std::pair<std::uint32_t, std::uint32_t>;

    MigrationExchange() : queue_(0) {}

    /** Post one shard's outgoing batches (one lock acquisition).
     *  @return false when the exchange was closed (batches dropped). */
    bool
    post(std::vector<Batch> batches)
    {
        std::uint64_t records = 0;
        for (const Batch &b : batches) {
            records += b.records.size();
        }
        const std::uint64_t count = batches.size();
        {
            std::lock_guard<std::mutex> lock(pair_mutex_);
            for (const Batch &b : batches) {
                PairFlow &flow = pair_flows_[{b.src, b.dst}];
                flow.posted_records += b.records.size();
                flow.posted_batches += 1;
            }
        }
        if (!queue_.push_batch(std::move(batches))) {
            return false;
        }
        posted_records_.fetch_add(records, std::memory_order_relaxed);
        posted_batches_.fetch_add(count, std::memory_order_relaxed);
        return true;
    }

    /**
     * Drain everything currently posted, without blocking.  Safe from
     * any thread; the caller owns sequencing the drained batches into
     * admission order — sort by (dst, src, seq), see admission_order().
     */
    std::vector<Batch>
    collect()
    {
        std::vector<Batch> all = queue_.pop_all();
        std::uint64_t records = 0;
        for (const Batch &b : all) {
            records += b.records.size();
        }
        {
            std::lock_guard<std::mutex> lock(pair_mutex_);
            for (const Batch &b : all) {
                PairFlow &flow = pair_flows_[{b.src, b.dst}];
                flow.delivered_records += b.records.size();
                flow.delivered_batches += 1;
            }
        }
        delivered_records_.fetch_add(records, std::memory_order_relaxed);
        delivered_batches_.fetch_add(all.size(),
                                     std::memory_order_relaxed);
        return all;
    }

    /** The deterministic admission order: (dst, src, seq) ascending. */
    static bool
    admission_order(const Batch &a, const Batch &b)
    {
        if (a.dst != b.dst) {
            return a.dst < b.dst;
        }
        if (a.src != b.src) {
            return a.src < b.src;
        }
        return a.seq < b.seq;
    }

    /** Fail all future posts (shutdown). */
    void close() { queue_.close(); }

    /** Batches posted but not yet collected (0 after a clean run). */
    std::size_t pending() const { return queue_.size(); }

    ExchangeCounters
    counters() const
    {
        ExchangeCounters c;
        c.posted_records =
            posted_records_.load(std::memory_order_relaxed);
        c.posted_batches =
            posted_batches_.load(std::memory_order_relaxed);
        c.delivered_records =
            delivered_records_.load(std::memory_order_relaxed);
        c.delivered_batches =
            delivered_batches_.load(std::memory_order_relaxed);
        return c;
    }

    /** Copy of the per-(src,dst) conservation table. */
    std::map<PairKey, PairFlow>
    pair_flows() const
    {
        std::lock_guard<std::mutex> lock(pair_mutex_);
        return pair_flows_;
    }

    /**
     * Debug-build invariant: once the exchange is drained, every
     * record and batch posted for a (src,dst) pair was delivered to
     * it.  A no-op in NDEBUG builds.
     */
    void
    assert_conserved() const
    {
#ifndef NDEBUG
        assert(queue_.size() == 0 &&
               "exchange drained before conservation check");
        std::lock_guard<std::mutex> lock(pair_mutex_);
        for (const auto &[key, flow] : pair_flows_) {
            (void)key;
            assert(flow.posted_records == flow.delivered_records &&
                   "per-pair record conservation");
            assert(flow.posted_batches == flow.delivered_batches &&
                   "per-pair batch conservation");
        }
#endif
    }

  private:
    util::BlockingQueue<Batch> queue_;
    std::atomic<std::uint64_t> posted_records_{0};
    std::atomic<std::uint64_t> posted_batches_{0};
    std::atomic<std::uint64_t> delivered_records_{0};
    std::atomic<std::uint64_t> delivered_batches_{0};
    mutable std::mutex pair_mutex_;
    std::map<PairKey, PairFlow> pair_flows_;
};

} // namespace noswalker::shard
