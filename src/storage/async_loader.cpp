#include "storage/async_loader.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace noswalker::storage {

AsyncLoader::AsyncLoader(BlockReader &reader, bool background,
                         std::size_t depth, BlockBufferPool *pool)
    : reader_(&reader), background_(background),
      depth_(std::max<std::size_t>(depth, 1)), pool_(pool),
      requests_(depth_), responses_(depth_)
{
    if (background_) {
        thread_ = std::thread([this] { loop(); });
    }
}

AsyncLoader::~AsyncLoader()
{
    requests_.close();
    responses_.close();
    if (thread_.joinable()) {
        thread_.join();
    }
}

std::uint64_t
AsyncLoader::submit(Request request)
{
    NOSWALKER_CHECK(can_submit());
    NOSWALKER_CHECK(request.block != nullptr);
    const std::uint64_t ticket = next_ticket_++;
    request.ticket = ticket;
    ++inflight_;
    if (background_) {
        requests_.push(std::move(request));
    } else {
        pending_.push_back(std::move(request));
    }
    return ticket;
}

AsyncLoader::Response
AsyncLoader::consume(Response response)
{
    NOSWALKER_CHECK(inflight_ > 0);
    --inflight_;
    return response;
}

AsyncLoader::Response
AsyncLoader::run_pending()
{
    NOSWALKER_CHECK(!pending_.empty());
    Request request = std::move(pending_.front());
    pending_.pop_front();
    return execute(request);
}

AsyncLoader::Response
AsyncLoader::wait()
{
    NOSWALKER_CHECK(outstanding());
    Response response;
    if (background_) {
        auto popped = responses_.pop();
        NOSWALKER_CHECK(popped.has_value());
        response = consume(std::move(*popped));
    } else {
        response = consume(run_pending());
    }
    if (response.error) {
        std::rethrow_exception(response.error);
    }
    return response;
}

std::optional<AsyncLoader::Response>
AsyncLoader::try_wait()
{
    if (!outstanding()) {
        return std::nullopt;
    }
    if (!background_) {
        return consume(run_pending());
    }
    auto response = responses_.try_pop();
    if (!response.has_value()) {
        return std::nullopt;
    }
    return consume(std::move(*response));
}

AsyncLoader::Response
AsyncLoader::execute(Request &request)
{
    Response response;
    response.block = request.block;
    response.fine = request.fine;
    response.ticket = request.ticket;
    if (pool_ != nullptr) {
        response.buffer = pool_->acquire();
    }
    try {
        if (request.fine) {
            response.result = reader_->load_fine(*request.block,
                                                 request.needed,
                                                 response.buffer);
        } else {
            response.result =
                reader_->load_coarse(*request.block, response.buffer);
        }
    } catch (...) {
        response.error = std::current_exception();
    }
    return response;
}

void
AsyncLoader::loop()
{
    for (;;) {
        auto request = requests_.pop();
        if (!request.has_value()) {
            return;
        }
        if (!responses_.push(execute(*request))) {
            return;
        }
    }
}

} // namespace noswalker::storage
