/**
 * @file
 * Background block loader (Figure 6 ①), a depth-K FIFO pipeline.
 *
 * NosWalker decouples disk loading from walker processing: a dedicated
 * I/O thread keeps pulling the scheduler's chosen blocks into buffers
 * while the processing thread consumes pre-samples.  Up to `depth`
 * requests may be outstanding at once (bounded queues).  Every request
 * is tagged with a monotonically increasing *ticket* at submission,
 * and because the one loader thread completes requests in submission
 * order, wait()/try_wait() always hand back the oldest outstanding
 * ticket.
 *
 * submit() is for lookahead loads, which the thread overlaps with the
 * caller's work.  A load the caller will wait for at once has nothing
 * to overlap with, so once the caller has consumed everything
 * outstanding, load_now() runs it on the caller's thread instead of
 * paying two thread hand-offs.  The loader thread is therefore started
 * lazily, by the first submit(): a run that never looks ahead never
 * creates it.
 *
 * The 0-thread mode (`background = false`) emulates the same pipeline
 * without a thread: submissions park in a pending queue and the
 * consume calls execute the oldest one on the spot, so tests can diff
 * 0/1-thread behaviour deterministically.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "graph/partition.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "util/blocking_queue.hpp"

namespace noswalker::storage {

/** Runs a BlockReader on a background thread. */
class AsyncLoader {
  public:
    /** A load order from the scheduler. */
    struct Request {
        const graph::BlockInfo *block = nullptr;
        bool fine = false;
        /** Fine mode: vertices whose pages must be loaded. */
        std::vector<graph::VertexId> needed;
        /** Fine mode: the target slot each needed vertex's next event
         *  reads, in step with `needed` (graph::kWholeRecord = the
         *  whole record); empty = whole records for all. */
        std::vector<std::uint32_t> slots;
        /** Fine round (core::PrefetchPipeline::obtain_round): the runs
         *  of the pages `needed` and `slots` read, as
         *  BlockReader::plan_segments returns them, and where
         *  core::RoundPacker placed them — the round's host buffer
         *  `host`, from byte `host_offset`. */
        std::vector<PageSegment> segments;
        std::uint32_t host = 0;
        std::uint64_t host_offset = 0;
        /** Submission order tag; assigned by submit(). */
        std::uint64_t ticket = 0;
    };

    /** A completed load. */
    struct Response {
        const graph::BlockInfo *block = nullptr;
        bool fine = false;
        BlockBuffer buffer;
        LoadResult result;
        /** Submission order tag of the originating request. */
        std::uint64_t ticket = 0;
        /** Set when the load threw; rethrown by the consumer. */
        std::exception_ptr error;
    };

    /**
     * @param reader     the block reader to drive.
     * @param background run submitted loads on one loader thread,
     *                   started by the first submit(); false = they
     *                   execute synchronously inside the consume calls
     *                   (0-thread mode).
     * @param depth      maximum outstanding requests (≥ 1).
     * @param pool       optional buffer pool; loads draw their buffers
     *                   from it so recycled storage is reused.
     */
    explicit AsyncLoader(BlockReader &reader, bool background = true,
                         std::size_t depth = 1,
                         BlockBufferPool *pool = nullptr);

    /** Drains and joins the loader thread, if it was started. */
    ~AsyncLoader();

    AsyncLoader(const AsyncLoader &) = delete;
    AsyncLoader &operator=(const AsyncLoader &) = delete;

    /** Maximum outstanding requests. */
    std::size_t depth() const { return depth_; }

    /**
     * Queue a lookahead load and return its ticket. @pre can_submit().
     */
    std::uint64_t submit(Request request);

    /**
     * Execute @p request on the calling thread and return the load;
     * rethrows its error, as wait() does.  Takes the next ticket, so
     * ticket order is the order of submit() and load_now() calls.
     * @pre !outstanding() (nothing is queued ahead of it).
     */
    Response load_now(Request request);

    /** Whether submit() has started the loader thread. */
    bool thread_started() const { return thread_.joinable(); }

    /** True when another request may be submitted. */
    bool can_submit() const { return inflight_ < depth_; }

    /** Submitted loads not yet consumed. */
    std::size_t inflight() const { return inflight_; }

    /** True when at least one submitted load has not been consumed. */
    bool outstanding() const { return inflight_ > 0; }

    /**
     * Wait for the oldest outstanding load and return it; rethrows the
     * load's error, if any.  In 0-thread mode the load executes on the
     * spot.
     * @pre outstanding().
     */
    Response wait();

    /**
     * Consume the oldest outstanding load if it has completed; in
     * 0-thread mode the oldest pending load executes on the spot.
     * Errors are reported in Response::error (not rethrown).
     * @return nullopt when nothing is outstanding or nothing has
     *         completed yet.
     */
    std::optional<Response> try_wait();

  private:
    Response execute(Request &request);
    void loop();
    /** Execute the oldest pending request (0-thread mode). */
    Response run_pending();
    /** Finish consuming @p response (bookkeeping shared by all paths). */
    Response consume(Response response);

    BlockReader *reader_;
    bool background_;
    std::size_t depth_;
    BlockBufferPool *pool_;
    std::size_t inflight_ = 0;
    std::uint64_t next_ticket_ = 0;
    std::deque<Request> pending_; ///< 0-thread mode: FIFO of submissions
    util::BlockingQueue<Request> requests_;
    util::BlockingQueue<Response> responses_;
    std::thread thread_;
};

} // namespace noswalker::storage
