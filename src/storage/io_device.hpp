/**
 * @file
 * Block I/O device interface with built-in accounting.
 *
 * Every byte any engine moves to or from "disk" flows through an
 * IoDevice, so the per-system I/O comparisons of the paper (Fig 2,
 * Fig 14's normalized I/O lines) fall out of the device counters, and
 * the simulated time of the SsdModel accumulates as busy_seconds.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "storage/ssd_model.hpp"

namespace noswalker::storage {

/** Immutable snapshot of a device's counters. */
struct IoStats {
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t read_requests = 0;
    std::uint64_t write_requests = 0;
    /** Modeled device-busy time, seconds. */
    double busy_seconds = 0.0;

    IoStats &operator+=(const IoStats &other);
};

/**
 * Abstract random-access byte device.
 *
 * Thread safe with respect to accounting; concrete backends document
 * their data-path thread safety (MemDevice and FileDevice reads are
 * safe concurrently; writes require external ordering per region).
 */
class IoDevice {
  public:
    explicit IoDevice(SsdModel model) : model_(model) {}
    virtual ~IoDevice() = default;

    IoDevice(const IoDevice &) = delete;
    IoDevice &operator=(const IoDevice &) = delete;

    /** Device capacity in bytes (grows on write for MemDevice). */
    virtual std::uint64_t size() const = 0;

    /**
     * Read @p len bytes at @p offset into @p buffer.
     * @throws util::IoError on short or failed reads.
     */
    void read(std::uint64_t offset, std::uint64_t len, void *buffer);

    /** Write @p len bytes at @p offset from @p buffer. */
    void write(std::uint64_t offset, std::uint64_t len, const void *buffer);

    /**
     * Read without touching this device's accounting or cost model:
     * the data path for adapter devices (shard::ShardDevice) that keep
     * a private model over a shared byte store.
     */
    void
    peek(std::uint64_t offset, std::uint64_t len, void *buffer)
    {
        do_read(offset, len, buffer);
    }

    /** The device's cost model. */
    const SsdModel &model() const { return model_; }

    /** Snapshot the accounting counters. */
    virtual IoStats stats() const;

    /** Zero all counters (between experiment phases). */
    void reset_stats();

  protected:
    virtual void do_read(std::uint64_t offset, std::uint64_t len,
                         void *buffer) = 0;
    virtual void do_write(std::uint64_t offset, std::uint64_t len,
                          const void *buffer) = 0;

    /** Account one request without moving data (used by Raid0Device). */
    void account(bool is_write, std::uint64_t len, double seconds);

  private:
    SsdModel model_;
    std::atomic<std::uint64_t> bytes_read_{0};
    std::atomic<std::uint64_t> bytes_written_{0};
    std::atomic<std::uint64_t> read_requests_{0};
    std::atomic<std::uint64_t> write_requests_{0};
    /** Modeled busy seconds, summed exactly as the cost model prices
     *  each request; atomic for cross-thread accumulation. */
    std::atomic<double> busy_seconds_{0.0};
};

} // namespace noswalker::storage
