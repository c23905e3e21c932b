#include "service/walk_service.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "core/config.hpp"
#include "core/noswalker_engine.hpp"
#include "service/service_app.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/block_reader.hpp"
#include "util/error.hpp"

namespace noswalker::service {

namespace {

double
elapsed_seconds(std::chrono::steady_clock::time_point from,
                std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

void
ServiceConfig::validate() const
{
    if (num_workers == 0) {
        throw util::ConfigError("service: num_workers must be >= 1");
    }
    if (step_threads == 0) {
        throw util::ConfigError("service: step_threads must be >= 1");
    }
    if (prefetch_depth > 64) {
        throw util::ConfigError("service: prefetch_depth must be <= 64");
    }
    if (num_shards == 0 || num_shards > 256) {
        throw util::ConfigError(
            "service: num_shards must be in [1, 256]");
    }
    if (max_batch == 0) {
        throw util::ConfigError("service: max_batch must be >= 1");
    }
    if (batch_window_seconds < 0.0) {
        throw util::ConfigError(
            "service: batch_window_seconds must be >= 0");
    }
    if (block_bytes == 0) {
        throw util::ConfigError("service: block_bytes must be > 0");
    }
    if (budget_wait_seconds <= 0.0) {
        throw util::ConfigError(
            "service: budget_wait_seconds must be > 0");
    }
    if (memory_budget != 0 && cache_bytes >= memory_budget) {
        throw util::ConfigError(
            "service: cache_bytes must leave room under memory_budget");
    }
}

const char *
to_string(WalkStatus status)
{
    switch (status) {
    case WalkStatus::kOk:
        return "ok";
    case WalkStatus::kRejectedQueueFull:
        return "rejected-queue-full";
    case WalkStatus::kRejectedTenantQueue:
        return "rejected-tenant-queue";
    case WalkStatus::kRejectedBudget:
        return "rejected-budget";
    case WalkStatus::kDeadlineExpired:
        return "deadline-expired";
    case WalkStatus::kShutdown:
        return "shutdown";
    case WalkStatus::kFailed:
        return "failed";
    }
    return "unknown";
}

/**
 * One worker's reusable engine — plain, or sharded when the config
 * asks for more than one shard.  Lives here so walk_service.hpp does
 * not have to pull the whole engine template in.
 */
class BatchRunner {
  public:
    BatchRunner(const graph::GraphFile &file,
                const graph::BlockPartition &partition,
                const ServiceConfig &config, util::MemoryBudget *budget,
                storage::SharedBlockCache *cache,
                util::ThreadPool *step_pool)
    {
        if (config.num_shards > 1) {
            sharded_ =
                std::make_unique<shard::ShardedEngine<ServiceWalkApp>>(
                    file, partition, engine_config(config));
            sharded_->set_shared_budget(budget);
            sharded_->set_shared_cache(cache);
            sharded_->set_step_pool(step_pool);
        } else {
            engine_ =
                std::make_unique<core::NosWalkerEngine<ServiceWalkApp>>(
                    file, partition, engine_config(config));
            engine_->set_shared_budget(budget);
            engine_->set_shared_cache(cache);
            engine_->set_step_pool(step_pool);
        }
    }

    engine::RunStats
    run(ServiceWalkApp &app, std::uint64_t total_walkers,
        std::uint64_t seed)
    {
        if (sharded_) {
            return sharded_->run(app, total_walkers, seed);
        }
        return engine_->run(app, total_walkers, seed);
    }

    /** Per-shard lifetime totals of the last run (null when the runner
     *  drives a plain single engine). */
    const std::vector<engine::RunStats> *
    shard_stats() const
    {
        return sharded_ ? &sharded_->shard_stats() : nullptr;
    }

  private:
    static core::EngineConfig
    engine_config(const ServiceConfig &config)
    {
        core::EngineConfig ec;
        // The shared budget is attached explicitly; the engine-local
        // cap is unused but kept consistent for validation/diagnostics.
        ec.memory_budget = config.memory_budget;
        ec.block_bytes = config.block_bytes;
        ec.loader_threads = config.loader_threads;
        ec.max_walkers = config.max_walkers;
        ec.step_threads = config.step_threads;
        ec.prefetch_depth = config.prefetch_depth;
        ec.num_shards = config.num_shards;
        ec.shard_overlap = config.shard_overlap;
        // Shared pre-sample reservoirs would make a request's output
        // depend on what else shares its batch, so service engines
        // draw every step from the walker's own stream.
        ec.presample = false;
        return ec;
    }

    std::unique_ptr<core::NosWalkerEngine<ServiceWalkApp>> engine_;
    std::unique_ptr<shard::ShardedEngine<ServiceWalkApp>> sharded_;
};

WalkService::WalkService(const graph::GraphFile &file,
                         const graph::BlockPartition &partition,
                         ServiceConfig config)
    : file_(&file), partition_(&partition), config_(config),
      budget_(config.memory_budget), submit_queue_(config.max_queue),
      batch_queue_(0)
{
    config_.validate();
    if (config_.cache_bytes > 0) {
        cache_ = std::make_unique<storage::SharedBlockCache>(
            config_.cache_bytes,
            budget_.limit() != 0 ? &budget_ : nullptr);
    }
    if (config_.step_threads > 1) {
        step_pool_ =
            std::make_unique<util::ThreadPool>(config_.step_threads - 1);
    }
    // Sharded engines duplicate the floor per shard (each shard holds
    // its own CSR index copy, buffer pair, and minimum walker pool).
    min_footprint_ = min_run_footprint(file, partition) *
                     std::max(1u, config_.num_shards);
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
    workers_.reserve(config_.num_workers);
    for (unsigned i = 0; i < config_.num_workers; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

WalkService::~WalkService() { stop(); }

std::uint64_t
WalkService::min_run_footprint(const graph::GraphFile &file,
                               const graph::BlockPartition &partition)
{
    // Mirrors NosWalkerEngine::setup() floors: the resident CSR index,
    // one coarse block buffer (page-aligned, single-buffer degraded
    // mode), and the 64-walker minimum pool.
    const std::uint64_t page = storage::BlockReader::kPageBytes;
    const std::uint64_t aligned =
        (partition.max_block_bytes() / page + 2) * page;
    return file.index_bytes() + aligned +
           64 * sizeof(engine::Stepped<ServiceWalker>);
}

std::uint64_t
WalkService::estimate_request_bytes(const WalkRequest &req)
{
    const std::uint64_t walks = req.num_walks();
    switch (req.kind) {
    case WalkKind::kEndpoints:
        return walks * sizeof(graph::VertexId);
    case WalkKind::kPaths:
        return walks * ((req.length + 1) * sizeof(graph::VertexId) +
                        sizeof(std::vector<graph::VertexId>));
    case WalkKind::kVisitCounts:
        // Hash-map entries; bounded by distinct visited vertices.
        return std::min<std::uint64_t>(
            walks * req.length,
            std::uint64_t{1} << 24) * 32;
    }
    return walks * sizeof(graph::VertexId);
}

bool
WalkService::validate_request(const WalkRequest &request,
                              std::string *error) const
{
    if (request.starts.empty()) {
        *error = "request has no start vertices";
        return false;
    }
    if (request.walks_per_start == 0) {
        *error = "walks_per_start must be >= 1";
        return false;
    }
    if (request.weighted && !file_->weighted()) {
        *error = "weighted walks require a weighted graph";
        return false;
    }
    for (const graph::VertexId v : request.starts) {
        if (v >= file_->num_vertices()) {
            *error = "start vertex " + std::to_string(v) +
                     " out of range";
            return false;
        }
    }
    return true;
}

void
WalkService::count_terminal(WalkStatus status)
{
    switch (status) {
    case WalkStatus::kOk:
        completed_.fetch_add(1, std::memory_order_relaxed);
        break;
    case WalkStatus::kRejectedQueueFull:
        rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
        break;
    case WalkStatus::kRejectedTenantQueue:
        rejected_tenant_queue_.fetch_add(1, std::memory_order_relaxed);
        break;
    case WalkStatus::kRejectedBudget:
        rejected_budget_.fetch_add(1, std::memory_order_relaxed);
        break;
    case WalkStatus::kDeadlineExpired:
        expired_.fetch_add(1, std::memory_order_relaxed);
        break;
    case WalkStatus::kShutdown:
        shutdown_dropped_.fetch_add(1, std::memory_order_relaxed);
        break;
    case WalkStatus::kFailed:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
}

bool
WalkService::acquire_tenant_slot(std::uint64_t tenant)
{
    if (config_.tenant_max_queue == 0) {
        return true;
    }
    std::lock_guard lock(tenant_queue_mutex_);
    std::size_t &in_flight = tenant_in_flight_[tenant];
    if (in_flight >= config_.tenant_max_queue) {
        return false;
    }
    ++in_flight;
    return true;
}

void
WalkService::release_tenant_slot(Pending &pending)
{
    if (!pending.tenant_slot) {
        return;
    }
    pending.tenant_slot = false;
    std::lock_guard lock(tenant_queue_mutex_);
    std::size_t &in_flight = tenant_in_flight_[pending.request.tenant];
    if (in_flight > 0) {
        --in_flight;
    }
}

void
WalkService::finish_rejected(Pending pending, WalkStatus status,
                             const std::string &error)
{
    release_tenant_slot(pending);
    WalkResult result;
    result.status = status;
    result.error = error;
    count_terminal(status);
    pending.promise.set_value(std::move(result));
}

WalkTicket
WalkService::submit(WalkRequest request)
{
    Pending pending;
    pending.request = std::move(request);
    pending.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    pending.submitted = Clock::now();
    const std::uint64_t id = pending.id;
    std::future<WalkResult> future = pending.promise.get_future();
    submitted_.fetch_add(1, std::memory_order_relaxed);

    std::string error;
    if (!validate_request(pending.request, &error)) {
        finish_rejected(std::move(pending), WalkStatus::kFailed, error);
        return WalkTicket(id, std::move(future));
    }

    if (budget_.limit() != 0) {
        const std::uint64_t need =
            min_footprint_ + estimate_request_bytes(pending.request);
        if (need > budget_.limit()) {
            finish_rejected(std::move(pending),
                            WalkStatus::kRejectedBudget,
                            "request needs " + std::to_string(need) +
                                " bytes; budget is " +
                                std::to_string(budget_.limit()));
            return WalkTicket(id, std::move(future));
        }
        if (!config_.queue_over_budget && need > budget_.available()) {
            finish_rejected(std::move(pending),
                            WalkStatus::kRejectedBudget,
                            "budget has no headroom and "
                            "queue_over_budget is off");
            return WalkTicket(id, std::move(future));
        }
    }

    // Per-tenant backpressure: shed before touching the global queue,
    // so one tenant's burst cannot occupy max_queue for everyone.
    if (config_.tenant_max_queue > 0) {
        if (!acquire_tenant_slot(pending.request.tenant)) {
            finish_rejected(std::move(pending),
                            WalkStatus::kRejectedTenantQueue,
                            "tenant " +
                                std::to_string(pending.request.tenant) +
                                " is at its in-flight bound (" +
                                std::to_string(config_.tenant_max_queue) +
                                ")");
            return WalkTicket(id, std::move(future));
        }
        pending.tenant_slot = true;
    }

    const std::uint64_t tenant = pending.request.tenant;
    const bool held_slot = pending.tenant_slot;
    // The outcome is decided under the queue lock, so a close() racing
    // this push can never misreport shutdown as queue-full (or vice
    // versa): kClosed iff the close happened first.
    const util::PushOutcome outcome =
        submit_queue_.try_push_result(std::move(pending));
    if (outcome != util::PushOutcome::kPushed) {
        // try_push_result consumed pending; reconstruct the terminal
        // result (and return the tenant slot it carried).
        if (held_slot) {
            std::lock_guard lock(tenant_queue_mutex_);
            std::size_t &in_flight = tenant_in_flight_[tenant];
            if (in_flight > 0) {
                --in_flight;
            }
        }
        WalkResult result;
        result.status = outcome == util::PushOutcome::kClosed
                            ? WalkStatus::kShutdown
                            : WalkStatus::kRejectedQueueFull;
        result.error = result.status == WalkStatus::kShutdown
                           ? "service stopped"
                           : "submission queue full";
        count_terminal(result.status);
        std::promise<WalkResult> replacement;
        future = replacement.get_future();
        replacement.set_value(std::move(result));
    }
    return WalkTicket(id, std::move(future));
}

void
WalkService::dispatcher_loop()
{
    // One group per compatibility key.  Requests only coalesce when
    // they can share an engine run; today the key is the weighted flag
    // (weighted and unweighted gangs walk the same graph data but are
    // kept apart so a slow weighted batch never delays cheap ones).
    std::map<std::uint64_t, Group> groups;

    const auto window =
        std::chrono::duration<double>(config_.batch_window_seconds);

    for (;;) {
        std::optional<Pending> item;
        if (groups.empty()) {
            item = submit_queue_.pop();
        } else {
            // Wake at the earliest group deadline.
            auto earliest = Clock::time_point::max();
            for (const auto &[key, group] : groups) {
                earliest = std::min(
                    earliest,
                    group.opened +
                        std::chrono::duration_cast<Clock::duration>(
                            window));
            }
            const auto now = Clock::now();
            item = earliest <= now
                       ? submit_queue_.try_pop()
                       : submit_queue_.pop_for(earliest - now);
        }

        if (item) {
            const std::uint64_t key = item->request.weighted ? 1 : 0;
            auto [it, fresh] = groups.try_emplace(key);
            if (fresh) {
                it->second.opened = Clock::now();
            }
            it->second.requests.push_back(std::move(*item));
            if (it->second.requests.size() >= config_.max_batch ||
                config_.batch_window_seconds == 0.0) {
                flush_group(it->second);
                groups.erase(it);
            }
        } else if (submit_queue_.closed()) {
            // Drain whatever was accepted before close, then flush
            // every group and shut the batch pipeline down.
            while (auto leftover = submit_queue_.try_pop()) {
                const std::uint64_t key =
                    leftover->request.weighted ? 1 : 0;
                auto [it, fresh] = groups.try_emplace(key);
                if (fresh) {
                    it->second.opened = Clock::now();
                }
                it->second.requests.push_back(std::move(*leftover));
                if (it->second.requests.size() >= config_.max_batch) {
                    flush_group(it->second);
                    groups.erase(it);
                }
            }
            for (auto &[key, group] : groups) {
                flush_group(group);
            }
            groups.clear();
            batch_queue_.close();
            return;
        }

        // Flush groups whose window has expired.
        const auto now = Clock::now();
        for (auto it = groups.begin(); it != groups.end();) {
            if (elapsed_seconds(it->second.opened, now) >=
                config_.batch_window_seconds) {
                flush_group(it->second);
                it = groups.erase(it);
            } else {
                ++it;
            }
        }
    }
}

void
WalkService::flush_group(Group &group)
{
    if (group.requests.empty()) {
        return;
    }
    Batch batch;
    batch.id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
    batch.requests = std::move(group.requests);
    group.requests.clear();
    // Best-effort priority: higher-priority requests get the earliest
    // walker ids of the run (generated, and therefore retired, first).
    // Ties keep submission order.  This never changes results — every
    // request's walks are a pure function of its own seed.
    std::stable_sort(batch.requests.begin(), batch.requests.end(),
                     [](const Pending &a, const Pending &b) {
                         return a.request.priority > b.request.priority;
                     });
    batch_queue_.push(std::move(batch));
}

void
WalkService::worker_loop(unsigned worker_index)
{
    (void)worker_index;
    BatchRunner runner(*file_, *partition_, config_, &budget_,
                       cache_.get(), step_pool_.get());
    while (auto batch = batch_queue_.pop()) {
        run_batch(*batch, runner);
    }
}

void
WalkService::fail_batch(Batch &batch, WalkStatus status,
                        const std::string &error)
{
    for (Pending &pending : batch.requests) {
        finish_rejected(std::move(pending), status, error);
    }
    batch.requests.clear();
}

void
WalkService::run_batch(Batch &batch, BatchRunner &runner)
{
    const auto run_start = Clock::now();

    // Expire requests whose deadline passed while queued.
    Batch live;
    live.id = batch.id;
    live.requests.reserve(batch.requests.size());
    for (Pending &pending : batch.requests) {
        const double deadline = pending.request.deadline_seconds;
        if (deadline > 0.0 &&
            elapsed_seconds(pending.submitted, run_start) > deadline) {
            finish_rejected(std::move(pending),
                            WalkStatus::kDeadlineExpired,
                            "deadline passed while queued");
        } else {
            live.requests.push_back(std::move(pending));
        }
    }
    batch.requests.clear();
    if (live.requests.empty()) {
        return;
    }

    auto result_bytes_of = [](const Batch &b) {
        std::uint64_t total = 0;
        for (const Pending &p : b.requests) {
            total += estimate_request_bytes(p.request);
        }
        return total;
    };

    // Charge the result buffers to the shared budget for the lifetime
    // of the run; walkers/buffers are charged by the engine itself.
    // Each wait is clamped to the batch's tightest remaining deadline:
    // a request whose deadline lapses while blocked on the budget is
    // expired here (deadline-expired), never run late.
    std::uint64_t result_bytes = result_bytes_of(live);
    bool charged = false;
    if (budget_.limit() != 0 && result_bytes > 0) {
        for (unsigned attempt = 0;
             attempt <= config_.budget_retry_limit && !charged;
             ++attempt) {
            double wait = config_.budget_wait_seconds;
            const auto now = Clock::now();
            for (const Pending &p : live.requests) {
                const double d = p.request.deadline_seconds;
                if (d > 0.0) {
                    wait = std::min(
                        wait, d - elapsed_seconds(p.submitted, now));
                }
            }
            charged = budget_.reserve_wait(result_bytes,
                                           std::max(wait, 0.0));
            if (charged) {
                break;
            }
            // Expire requests whose deadline lapsed while we blocked;
            // the survivors retry with a smaller reservation.
            const auto after = Clock::now();
            Batch still;
            still.id = live.id;
            still.requests.reserve(live.requests.size());
            for (Pending &p : live.requests) {
                const double d = p.request.deadline_seconds;
                if (d > 0.0 &&
                    elapsed_seconds(p.submitted, after) > d) {
                    finish_rejected(
                        std::move(p), WalkStatus::kDeadlineExpired,
                        "deadline expired waiting for memory");
                } else {
                    still.requests.push_back(std::move(p));
                }
            }
            live.requests = std::move(still.requests);
            if (live.requests.empty()) {
                return;
            }
            result_bytes = result_bytes_of(live);
        }
        if (!charged) {
            fail_batch(live, WalkStatus::kRejectedBudget,
                       "timed out waiting for result-buffer memory");
            return;
        }
    }

    ServiceWalkApp app;
    for (const Pending &pending : live.requests) {
        app.add_request(pending.request);
    }

    // The engine seed only drives scheduling-internal choices; request
    // results depend solely on their own per-request seeds.
    const std::uint64_t engine_seed =
        live.id * 0x9e3779b97f4a7c15ULL + 1;

    engine::RunStats stats;
    bool ran = false;
    bool budget_starved = false;
    std::string error;
    for (unsigned attempt = 0; attempt <= config_.budget_retry_limit;
         ++attempt) {
        try {
            stats = runner.run(app, app.total_walkers(), engine_seed);
            ran = true;
            break;
        } catch (const util::BudgetExceeded &e) {
            budget_starved = true;
            error = e.what();
            if (attempt == config_.budget_retry_limit) {
                break;
            }
            std::this_thread::sleep_for(std::chrono::duration<double>(
                config_.budget_wait_seconds));
        } catch (const std::exception &e) {
            budget_starved = false;
            error = e.what();
            break;
        }
    }

    if (!ran) {
        if (charged) {
            budget_.release(result_bytes);
        }
        fail_batch(live,
                   budget_starved ? WalkStatus::kRejectedBudget
                                  : WalkStatus::kFailed,
                   error);
        return;
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    if (live.requests.size() > 1) {
        coalesced_requests_.fetch_add(live.requests.size(),
                                      std::memory_order_relaxed);
    }

    // Per-shard modeled latency samples (sharded runners only): one
    // sample per shard per batch run, for the benches' per-shard p99.
    if (const std::vector<engine::RunStats> *per_shard =
            runner.shard_stats()) {
        std::lock_guard lock(shard_mutex_);
        for (const engine::RunStats &s : *per_shard) {
            shard_modeled_samples_.push_back(s.modeled_seconds());
        }
    }

    std::uint64_t total_steps = 0;
    for (const ServiceWalkApp::Slot &slot : app.slots()) {
        total_steps += slot.steps_taken;
    }
    const double run_seconds = stats.wall_seconds;
    const double batch_modeled = stats.modeled_seconds();
    const auto batch_size =
        static_cast<std::uint32_t>(live.requests.size());

    for (std::size_t i = 0; i < live.requests.size(); ++i) {
        Pending &pending = live.requests[i];
        ServiceWalkApp::Slot &slot = app.slots()[i];

        WalkResult result;
        result.status = WalkStatus::kOk;
        result.batch_id = live.id;
        result.batch_size = batch_size;
        result.wait_seconds =
            elapsed_seconds(pending.submitted, run_start);
        result.run_seconds = run_seconds;
        result.modeled_latency_seconds =
            result.wait_seconds + batch_modeled;

        // Cost slice proportional to this request's share of the
        // batch's steps; walker/step counts are exact.
        const double fraction =
            total_steps > 0
                ? static_cast<double>(slot.steps_taken) /
                      static_cast<double>(total_steps)
                : 1.0 / static_cast<double>(batch_size);
        result.stats = stats.scaled(fraction);
        result.stats.engine = "WalkService";
        result.stats.walkers = slot.num_walks;
        result.stats.steps = slot.steps_taken;

        switch (pending.request.kind) {
        case WalkKind::kEndpoints:
            result.endpoints = std::move(slot.endpoints);
            break;
        case WalkKind::kPaths:
            result.paths = std::move(slot.paths);
            break;
        case WalkKind::kVisitCounts: {
            result.top_visits.assign(slot.visits.begin(),
                                     slot.visits.end());
            std::sort(result.top_visits.begin(), result.top_visits.end(),
                      [](const auto &a, const auto &b) {
                          return a.second != b.second
                                     ? a.second > b.second
                                     : a.first < b.first;
                      });
            if (result.top_visits.size() > pending.request.top_k) {
                result.top_visits.resize(pending.request.top_k);
            }
            break;
        }
        }

        {
            std::lock_guard lock(tenant_mutex_);
            tenant_stats_[pending.request.tenant] += result.stats;
            total_stats_ += result.stats;
        }
        release_tenant_slot(pending);
        count_terminal(WalkStatus::kOk);
        pending.promise.set_value(std::move(result));
    }

    if (charged) {
        budget_.release(result_bytes);
    }
}

void
WalkService::stop()
{
    std::call_once(stop_once_, [this] {
        submit_queue_.close();
        if (dispatcher_.joinable()) {
            dispatcher_.join(); // flushes groups, closes batch_queue_
        }
        for (std::thread &worker : workers_) {
            if (worker.joinable()) {
                worker.join();
            }
        }
        // A stopped service serves nothing: drop cached blocks so
        // their budget reservations drain to zero with everything
        // else (the post-close conservation invariant).
        if (cache_) {
            cache_->clear();
        }
    });
}

WalkService::Counters
WalkService::counters() const
{
    Counters c;
    c.submitted = submitted_.load(std::memory_order_relaxed);
    c.completed = completed_.load(std::memory_order_relaxed);
    c.failed = failed_.load(std::memory_order_relaxed);
    c.rejected_queue_full =
        rejected_queue_full_.load(std::memory_order_relaxed);
    c.rejected_tenant_queue =
        rejected_tenant_queue_.load(std::memory_order_relaxed);
    c.rejected_budget = rejected_budget_.load(std::memory_order_relaxed);
    c.expired = expired_.load(std::memory_order_relaxed);
    c.shutdown_dropped =
        shutdown_dropped_.load(std::memory_order_relaxed);
    c.batches = batches_.load(std::memory_order_relaxed);
    c.coalesced_requests =
        coalesced_requests_.load(std::memory_order_relaxed);
    if (cache_) {
        c.cache_hits = cache_->hits();
        c.cache_misses = cache_->misses();
    }
    c.budget_peak = budget_.peak();
    return c;
}

engine::RunStats
WalkService::tenant_stats(std::uint64_t tenant) const
{
    std::lock_guard lock(tenant_mutex_);
    const auto it = tenant_stats_.find(tenant);
    return it != tenant_stats_.end() ? it->second : engine::RunStats{};
}

std::unordered_map<std::uint64_t, engine::RunStats>
WalkService::all_tenant_stats() const
{
    std::lock_guard lock(tenant_mutex_);
    return tenant_stats_;
}

engine::RunStats
WalkService::aggregate_stats() const
{
    std::lock_guard lock(tenant_mutex_);
    return total_stats_;
}

std::vector<double>
WalkService::shard_modeled_samples() const
{
    std::lock_guard lock(shard_mutex_);
    return shard_modeled_samples_;
}

} // namespace noswalker::service
