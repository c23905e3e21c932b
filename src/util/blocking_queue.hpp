/**
 * @file
 * Bounded blocking MPMC queue.
 *
 * Connects NosWalker's background block-loader thread to the walker
 * processing threads (Figure 6: block buffers feed the pre-sampler),
 * and the walk service's submission path to its dispatcher/worker
 * threads.  Capacity bounds the number of in-flight elements, which is
 * what keeps producers from outrunning the memory budget; capacity 0
 * means unbounded.
 *
 * Shutdown semantics (multi-producer, multi-consumer safe): close()
 * fails all current and future pushes, wakes every blocked producer and
 * consumer, and lets consumers drain the remaining elements before
 * pop() starts returning nullopt.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace noswalker::util {

/**
 * Why a non-blocking push failed (or did not).
 *
 * try_push's bool return conflates "full" with "closed"; callers that
 * must report the rejection reason (the walk service's submission
 * path) use try_push_result, which decides under the queue lock and is
 * therefore race-free against a concurrent close().
 */
enum class PushOutcome : std::uint8_t {
    kPushed,
    /** The queue was at capacity (and not closed). */
    kFull,
    /** close() had been called; the queue accepts nothing ever again. */
    kClosed,
};

/** Bounded FIFO with blocking push/pop and cooperative shutdown. */
template <typename T>
class BlockingQueue {
  public:
    /** Queue holding at most @p capacity elements (0 = unbounded). */
    explicit BlockingQueue(std::size_t capacity = 4) : capacity_(capacity) {}

    /**
     * Push @p value, blocking while full.
     * @return false if the queue was closed (value dropped).
     */
    bool
    push(T value)
    {
        std::unique_lock lock(mutex_);
        not_full_.wait(lock, [&] { return closed_ || has_room(); });
        if (closed_) {
            return false;
        }
        queue_.push_back(std::move(value));
        not_empty_.notify_one();
        return true;
    }

    /**
     * Non-blocking push.
     * @return false (value dropped) when full or closed.
     */
    bool
    try_push(T value)
    {
        return try_push_result(std::move(value)) == PushOutcome::kPushed;
    }

    /**
     * Non-blocking push reporting *why* it failed.  The outcome is
     * decided under the queue lock, so "full" and "closed" can never be
     * conflated by a close() racing the push: kClosed is returned iff
     * close() happened-before this call took the lock.
     */
    PushOutcome
    try_push_result(T value)
    {
        std::lock_guard lock(mutex_);
        if (closed_) {
            return PushOutcome::kClosed;
        }
        if (!has_room()) {
            return PushOutcome::kFull;
        }
        queue_.push_back(std::move(value));
        not_empty_.notify_one();
        return PushOutcome::kPushed;
    }

    /**
     * Pop the oldest element, blocking while empty.
     * @return nullopt when the queue is closed and drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock lock(mutex_);
        not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        return take(lock);
    }

    /**
     * Pop with a timeout.
     * @return nullopt on timeout, or when the queue is closed and
     *         drained (disambiguate with closed()).
     */
    template <typename Rep, typename Period>
    std::optional<T>
    pop_for(std::chrono::duration<Rep, Period> timeout)
    {
        std::unique_lock lock(mutex_);
        not_empty_.wait_for(lock, timeout,
                            [&] { return closed_ || !queue_.empty(); });
        return take(lock);
    }

    /** Non-blocking pop. */
    std::optional<T>
    try_pop()
    {
        std::unique_lock lock(mutex_);
        return take(lock);
    }

    /** Close the queue: producers fail, consumers drain then get nullopt. */
    void
    close()
    {
        std::lock_guard lock(mutex_);
        closed_ = true;
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    /** Whether close() has been called. */
    bool
    closed() const
    {
        std::lock_guard lock(mutex_);
        return closed_;
    }

    /** Current element count. */
    std::size_t
    size() const
    {
        std::lock_guard lock(mutex_);
        return queue_.size();
    }

    /** Max elements (0 = unbounded). */
    std::size_t capacity() const { return capacity_; }

  private:
    bool has_room() const { return capacity_ == 0 || queue_.size() < capacity_; }

    std::optional<T>
    take(std::unique_lock<std::mutex> &)
    {
        if (queue_.empty()) {
            return std::nullopt;
        }
        T value = std::move(queue_.front());
        queue_.pop_front();
        not_full_.notify_one();
        return value;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> queue_;
    bool closed_ = false;
};

} // namespace noswalker::util
