#include "storage/io_device.hpp"

namespace noswalker::storage {

IoStats &
IoStats::operator+=(const IoStats &other)
{
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    read_requests += other.read_requests;
    write_requests += other.write_requests;
    busy_seconds += other.busy_seconds;
    return *this;
}

void
IoDevice::read(std::uint64_t offset, std::uint64_t len, void *buffer)
{
    do_read(offset, len, buffer);
    account(false, len, model_.request_seconds(len));
}

void
IoDevice::write(std::uint64_t offset, std::uint64_t len, const void *buffer)
{
    do_write(offset, len, buffer);
    account(true, len, model_.request_seconds(len));
}

void
IoDevice::account(bool is_write, std::uint64_t len, double seconds)
{
    if (is_write) {
        bytes_written_.fetch_add(len, std::memory_order_relaxed);
        write_requests_.fetch_add(1, std::memory_order_relaxed);
    } else {
        bytes_read_.fetch_add(len, std::memory_order_relaxed);
        read_requests_.fetch_add(1, std::memory_order_relaxed);
    }
    busy_seconds_.fetch_add(seconds, std::memory_order_relaxed);
}

IoStats
IoDevice::stats() const
{
    IoStats s;
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.read_requests = read_requests_.load(std::memory_order_relaxed);
    s.write_requests = write_requests_.load(std::memory_order_relaxed);
    s.busy_seconds = busy_seconds_.load(std::memory_order_relaxed);
    return s;
}

void
IoDevice::reset_stats()
{
    bytes_read_.store(0, std::memory_order_relaxed);
    bytes_written_.store(0, std::memory_order_relaxed);
    read_requests_.store(0, std::memory_order_relaxed);
    write_requests_.store(0, std::memory_order_relaxed);
    busy_seconds_.store(0.0, std::memory_order_relaxed);
}

} // namespace noswalker::storage
