/**
 * @file
 * Test-only IoDevice wrapper over a base device: records the thread of
 * every read, and can fail one chosen read with util::IoError (minimal
 * fault injection).  Bytes come from the base device's unaccounted
 * peek() path; requests are accounted on the wrapper, as for any
 * device.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/io_device.hpp"
#include "util/error.hpp"

namespace noswalker::testing_support {

/** Read-only device that logs reader threads and injects one failure. */
class ProbeDevice final : public storage::IoDevice {
  public:
    /** Wrapper over @p base, which must outlive it. */
    explicit ProbeDevice(storage::IoDevice &base)
        : IoDevice(base.model()), base_(&base)
    {
    }

    std::uint64_t size() const override { return base_->size(); }

    /** Fail the @p n-th read from now on (1 = the next); 0 disarms.
     *  Reads after the failed one succeed again. */
    void
    fail_read(std::uint64_t n)
    {
        std::lock_guard lock(mutex_);
        fail_at_ = n == 0 ? 0 : threads_.size() + n;
    }

    /** Forget the recorded reader threads (and any armed failure). */
    void
    clear()
    {
        std::lock_guard lock(mutex_);
        threads_.clear();
        fail_at_ = 0;
    }

    /** The thread of every read since the last clear(), in order. */
    std::vector<std::thread::id>
    reader_threads() const
    {
        std::lock_guard lock(mutex_);
        return threads_;
    }

    /** Reads since the last clear() made on thread @p id. */
    std::uint64_t
    reads_on(std::thread::id id) const
    {
        std::lock_guard lock(mutex_);
        std::uint64_t n = 0;
        for (const std::thread::id t : threads_) {
            n += t == id ? 1 : 0;
        }
        return n;
    }

  protected:
    void
    do_read(std::uint64_t offset, std::uint64_t len, void *buffer) override
    {
        {
            std::lock_guard lock(mutex_);
            threads_.push_back(std::this_thread::get_id());
            if (fail_at_ != 0 && threads_.size() == fail_at_) {
                fail_at_ = 0;
                throw util::IoError("ProbeDevice: injected read failure");
            }
        }
        base_->peek(offset, len, buffer);
    }

    void
    do_write(std::uint64_t, std::uint64_t, const void *) override
    {
        throw util::IoError("ProbeDevice is read-only");
    }

  private:
    storage::IoDevice *base_;
    mutable std::mutex mutex_;
    std::vector<std::thread::id> threads_;
    /** 1-based index into threads_ of the read to fail; 0 = none. */
    std::uint64_t fail_at_ = 0;
};

} // namespace noswalker::testing_support
