/**
 * @file
 * Explicit memory accounting — the reproduction's stand-in for cgroups.
 *
 * The paper caps every evaluated system at 64 GiB (≈12 % of its largest
 * graph) with cgroups.  We enforce the identical constraint with an
 * explicit accountant that every engine allocates its large structures
 * through: block buffers, walker pools, pre-sample buffers, spill
 * buffers.  Exceeding the budget is a hard error, so an engine that
 * cannot fit (e.g. DrunkardMob holding all walkers in memory) fails the
 * run just like it does in the paper.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace noswalker::util {

/** Thrown when a reservation would push usage above the budget. */
class BudgetExceeded : public ConfigError {
  public:
    explicit BudgetExceeded(const std::string &what) : ConfigError(what) {}
};

/**
 * Byte accountant with a hard cap.
 *
 * Thread safe: the NosWalker loader thread and processing threads
 * reserve/release concurrently.  Tracks the high-water mark so tests and
 * benches can assert the cap was respected and report real usage.
 */
class MemoryBudget {
  public:
    /** Budget of @p limit_bytes; 0 means unlimited (in-memory engines). */
    explicit MemoryBudget(std::uint64_t limit_bytes = 0)
        : limit_(limit_bytes) {}

    MemoryBudget(const MemoryBudget &) = delete;
    MemoryBudget &operator=(const MemoryBudget &) = delete;

    /** The configured cap in bytes (0 = unlimited). */
    std::uint64_t limit() const { return limit_; }

    /** Currently reserved bytes. */
    std::uint64_t used() const { return used_.load(std::memory_order_relaxed); }

    /** Largest value used() ever reached. */
    std::uint64_t
    peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

    /** Bytes still available, or UINT64_MAX when unlimited. */
    std::uint64_t available() const;

    /**
     * Reserve @p bytes, labelled for diagnostics.
     * @throws BudgetExceeded when the cap would be exceeded.
     */
    void reserve(std::uint64_t bytes, const char *label = "");

    /**
     * Reserve @p bytes if they fit.
     * @return false (without reserving) when the cap would be exceeded.
     */
    bool try_reserve(std::uint64_t bytes);

    /**
     * Reserve @p bytes, waiting up to @p timeout_seconds for other
     * holders to release enough.  Lets concurrent engine runs queue for
     * a shared budget instead of failing outright (the walk service's
     * admission control).
     * @return false when the bytes never became available in time.
     */
    bool reserve_wait(std::uint64_t bytes, double timeout_seconds);

    /** Release @p bytes previously reserved. */
    void release(std::uint64_t bytes);

  private:
    void bump_peak(std::uint64_t now);

    std::uint64_t limit_;
    std::atomic<std::uint64_t> used_{0};
    std::atomic<std::uint64_t> peak_{0};
    /** Set when an unlimited-budget reservation saturated used_ at
     *  UINT64_MAX; releases then clamp instead of asserting pairing. */
    std::atomic<bool> saturated_{false};

    /** Waiter support for reserve_wait; the fast paths never lock. */
    std::atomic<int> waiters_{0};
    std::mutex wait_mutex_;
    std::condition_variable released_;
};

/**
 * RAII reservation against a MemoryBudget.
 *
 * Movable, not copyable; releases on destruction.  Components hold one
 * Reservation per large allocation so accounting can never leak.
 */
class Reservation {
  public:
    Reservation() = default;

    /** Reserve @p bytes from @p budget. @throws BudgetExceeded */
    Reservation(MemoryBudget &budget, std::uint64_t bytes,
                const char *label = "")
        : budget_(&budget), bytes_(bytes)
    {
        budget.reserve(bytes, label);
    }

    /**
     * Reserve @p bytes from @p budget if they fit.
     * @return the reservation, or nullopt (nothing reserved) when the
     *         cap would be exceeded.
     */
    static std::optional<Reservation>
    try_make(MemoryBudget &budget, std::uint64_t bytes)
    {
        if (!budget.try_reserve(bytes)) {
            return std::nullopt;
        }
        Reservation held;
        held.budget_ = &budget;
        held.bytes_ = bytes;
        return held;
    }

    Reservation(Reservation &&other) noexcept
        : budget_(other.budget_), bytes_(other.bytes_)
    {
        other.budget_ = nullptr;
        other.bytes_ = 0;
    }

    Reservation &
    operator=(Reservation &&other) noexcept
    {
        if (this != &other) {
            release();
            budget_ = other.budget_;
            bytes_ = other.bytes_;
            other.budget_ = nullptr;
            other.bytes_ = 0;
        }
        return *this;
    }

    Reservation(const Reservation &) = delete;
    Reservation &operator=(const Reservation &) = delete;

    ~Reservation() { release(); }

    /** Bytes held by this reservation. */
    std::uint64_t bytes() const { return bytes_; }

    /** The budget this reservation charges (nullptr when empty). */
    MemoryBudget *budget() const { return budget_; }

    /** Grow or shrink the reservation to @p new_bytes. */
    void resize(std::uint64_t new_bytes);

    /** Release early (idempotent). */
    void release();

  private:
    MemoryBudget *budget_ = nullptr;
    std::uint64_t bytes_ = 0;
};

} // namespace noswalker::util
