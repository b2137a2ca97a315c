#include "harness/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "obs/prof.hpp"

namespace koika::harness {

namespace {

/** Canonical worker lane name: zero-padded so report ordering is
 *  lexicographic == numeric ("worker-003"). */
std::string
worker_lane_name(int id)
{
    char name[32];
    std::snprintf(name, sizeof name, "worker-%03d", id);
    return name;
}

} // namespace

int
resolve_jobs(int jobs)
{
    if (jobs >= 1)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : (int)hw;
}

uint64_t
derive_seed(uint64_t base, uint64_t item)
{
    // splitmix64: the statistically-solid mixer behind std::seed_seq
    // alternatives; fully defined arithmetic, so derived seeds are the
    // same on every platform (the determinism contract).
    uint64_t z = base + (item + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

struct ThreadPool::Impl
{
    std::mutex mutex;
    std::condition_variable start_cv;
    std::condition_variable done_cv;
    std::vector<std::thread> threads;

    // Current batch, published under `mutex` with a new generation.
    uint64_t generation = 0;
    uint64_t n = 0;
    const std::function<void(uint64_t, int)>* fn = nullptr;
    int remaining = 0;
    bool shutdown = false;

    // First failure per worker; item index picks the winner at join.
    std::vector<std::exception_ptr> errors;
    std::vector<uint64_t> error_items;

    void
    worker(int id, int jobs)
    {
        uint64_t seen = 0;
        // Profiler enable-generation at the last naming (0 = never
        // named). A plain once-latch would miss profilers enabled
        // after this pool's first batch — or re-enabled between
        // batches — leaving the lane as an anonymous "thread-N" id
        // instead of its worker name in the profile report.
        uint64_t named_gen = 0;
        for (;;) {
            uint64_t batch_n;
            const std::function<void(uint64_t, int)>* batch_fn;
            {
                // Queue wait is measured idleness (SpanKind::kIdle): it
                // shows on the worker's timeline lane and in its
                // wait_seconds, but stays out of the phase table so the
                // report structure is --jobs-independent.
                obs::ProfScope wait("pool/wait", obs::SpanKind::kIdle);
                std::unique_lock<std::mutex> lock(mutex);
                start_cv.wait(lock, [&] {
                    return shutdown || generation != seen;
                });
                if (shutdown)
                    return;
                seen = generation;
                batch_n = n;
                batch_fn = fn;
            }
            obs::Profiler& prof = obs::Profiler::instance();
            if (prof.enabled() && named_gen != prof.enable_generation()) {
                prof.set_thread_name(worker_lane_name(id));
                named_gen = prof.enable_generation();
            }
            for (uint64_t item = (uint64_t)id; item < batch_n;
                 item += (uint64_t)jobs) {
                obs::ProfScope span("pool/item");
                try {
                    (*batch_fn)(item, id);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (errors[(size_t)id] == nullptr) {
                        errors[(size_t)id] = std::current_exception();
                        error_items[(size_t)id] = item;
                    }
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (--remaining == 0)
                done_cv.notify_all();
        }
    }
};

ThreadPool::ThreadPool(int jobs)
    : impl_(nullptr), jobs_(resolve_jobs(jobs))
{
    if (jobs_ == 1)
        return; // serial pool: run() executes inline, no threads.
    impl_ = new Impl();
    impl_->errors.resize((size_t)jobs_);
    impl_->error_items.resize((size_t)jobs_);
    for (int w = 0; w < jobs_; ++w)
        impl_->threads.emplace_back(
            [this, w] { impl_->worker(w, jobs_); });
}

ThreadPool::~ThreadPool()
{
    if (impl_ == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->shutdown = true;
    }
    impl_->start_cv.notify_all();
    for (std::thread& t : impl_->threads)
        t.join();
    delete impl_;
}

void
ThreadPool::run(uint64_t n,
                const std::function<void(uint64_t, int)>& fn)
{
    if (n == 0)
        return;
    if (impl_ == nullptr) {
        // Single-job pool: plain loop on the calling thread. Same
        // error contract as the threaded path — every item runs, the
        // lowest-indexed failure is rethrown after the walk — so
        // jobs=1 and jobs=N are observably identical.
        std::exception_ptr first_inline;
        for (uint64_t item = 0; item < n; ++item) {
            // Same "pool/item" span as the threaded path, so a jobs=1
            // profile has the identical phase set.
            obs::ProfScope span("pool/item");
            try {
                fn(item, 0);
            } catch (...) {
                if (first_inline == nullptr)
                    first_inline = std::current_exception();
            }
        }
        if (first_inline != nullptr)
            std::rethrow_exception(first_inline);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->n = n;
        impl_->fn = &fn;
        impl_->remaining = jobs_;
        std::fill(impl_->errors.begin(), impl_->errors.end(), nullptr);
        ++impl_->generation;
    }
    impl_->start_cv.notify_all();
    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        impl_->done_cv.wait(lock,
                            [&] { return impl_->remaining == 0; });
    }
    // Deterministic error surfacing: the failure a serial run would
    // have hit first (lowest item index) wins.
    std::exception_ptr first;
    uint64_t first_item = 0;
    for (size_t w = 0; w < impl_->errors.size(); ++w) {
        if (impl_->errors[w] == nullptr)
            continue;
        if (first == nullptr || impl_->error_items[w] < first_item) {
            first = impl_->errors[w];
            first_item = impl_->error_items[w];
        }
    }
    if (first != nullptr)
        std::rethrow_exception(first);
}

void
ThreadPool::run(uint64_t n, const ContextFactory& make,
                const std::function<void(uint64_t, int, WorkerContext*)>&
                    fn)
{
    // Contexts are created lazily on each worker's own thread (inside
    // its first item's "pool/item" span, so construction cost is
    // attributed to that worker's lane) and destroyed when this frame
    // unwinds — exactly one run() batch, even on rethrow. Worker w is
    // the only writer of slot w while the batch is in flight, and the
    // pool's join synchronizes the slots back to this thread.
    std::vector<std::unique_ptr<WorkerContext>> contexts((size_t)jobs_);
    run(n, [&](uint64_t item, int worker) {
        std::unique_ptr<WorkerContext>& slot = contexts[(size_t)worker];
        if (slot == nullptr && make != nullptr)
            slot = make(worker);
        fn(item, worker, slot.get());
    });
}

void
parallel_for(uint64_t n, int jobs,
             const std::function<void(uint64_t)>& fn)
{
    ThreadPool pool(jobs);
    pool.run(n, [&fn](uint64_t item, int) { fn(item); });
}

void
parallel_for_groups_ctx(
    uint64_t n, uint64_t group, int jobs, const ContextFactory& make,
    const std::function<void(uint64_t, uint64_t, WorkerContext*)>& fn)
{
    if (group < 1)
        group = 1;
    uint64_t groups = (n + group - 1) / group;
    ThreadPool pool(jobs);
    pool.run(groups, make,
             [&fn, n, group](uint64_t g, int, WorkerContext* ctx) {
                 uint64_t first = g * group;
                 fn(first, std::min(group, n - first), ctx);
             });
}

} // namespace koika::harness
