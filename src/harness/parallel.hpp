/**
 * @file
 * Deterministic work sharding across a fixed thread pool.
 *
 * The repository's expensive workloads — fault-injection campaigns
 * (src/fault/), scheduler-fuzz trials, bench repetitions — are
 * embarrassingly parallel: N independent items, each producing a result
 * that only depends on its index. This module shards such work across a
 * fixed pool of worker threads *without* giving up the repo's hard
 * determinism contracts:
 *
 *   - Sharding is static: item i always runs on worker (i % jobs), and
 *     each worker processes its items in increasing index order. Which
 *     thread computes an item never depends on timing.
 *   - Results are owned per item (the caller indexes a pre-sized
 *     vector), so the assembled output is identical to a serial run.
 *   - Stochastic work derives per-item seeds from one base seed
 *     (derive_seed, a splitmix64 step), so results are independent of
 *     the job count — `--jobs=8` replays `--jobs=1` exactly.
 *
 * Worker callables must only touch their own item's state (plus
 * read-only shared inputs such as a typechecked Design); the pool
 * provides no locking for shared mutable state.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace koika::harness {

/**
 * Base class for per-worker state that outlives a single item but not a
 * run() batch: warm fault-trial model pairs (fault::TrialContext),
 * opened compile-cache handles, scratch arenas. The pool creates one
 * lazily per worker (on the worker's own thread, the first time that
 * worker receives an item) and destroys all of them when run() returns
 * — contexts live exactly as long as one run() batch, so state can
 * never leak across campaigns that happen to reuse a pool.
 */
class WorkerContext
{
  public:
    virtual ~WorkerContext() = default;
};

/**
 * Builds worker `id`'s context. Called on the worker's own thread
 * (thread-affine resources like dlopen handles or thread-local caches
 * land on the thread that will use them). May return nullptr to run
 * that worker context-free; a throwing factory fails the worker's first
 * item (surfaced via the pool's usual lowest-index error contract).
 */
using ContextFactory =
    std::function<std::unique_ptr<WorkerContext>(int worker)>;

/**
 * Resolve a --jobs request: values >= 1 pass through; 0 (or negative)
 * means one job per hardware thread. Always returns >= 1.
 */
int resolve_jobs(int jobs);

/**
 * Per-item seed derivation (splitmix64 over base + item). Use one base
 * seed per campaign/sweep and one derived seed per item so the draw for
 * item i is the same whether items run serially or sharded.
 */
uint64_t derive_seed(uint64_t base, uint64_t item);

/**
 * A fixed pool of `jobs` worker threads. Threads are started once and
 * reused across run() calls (the "fixed thread pool" of the campaign
 * runner); a pool of one job degenerates to inline execution on the
 * calling thread, so serial runs stay single-threaded and debuggable.
 */
class ThreadPool
{
  public:
    /** `jobs` as for resolve_jobs (0 = hardware concurrency). */
    explicit ThreadPool(int jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int jobs() const { return jobs_; }

    /**
     * Run fn(item, worker) for every item in [0, n), item i on worker
     * (i % jobs), each worker walking its items in increasing order.
     * Blocks until all items finished. If workers threw, rethrows the
     * exception of the lowest-indexed failing item after the join (the
     * same exception a serial run would have surfaced first); the
     * remaining items still run.
     */
    void run(uint64_t n,
             const std::function<void(uint64_t item, int worker)>& fn);

    /**
     * run() with per-worker contexts: worker w's context is created by
     * make(w) on w's own thread just before its first item, passed to
     * every fn(item, w, ctx) on that worker, and destroyed (all
     * workers') when this call returns — normally or by rethrow. A
     * null `make` passes nullptr contexts. Item→worker sharding,
     * ordering, and the lowest-index error contract are unchanged, so
     * any fn whose observable output does not depend on context reuse
     * (the fault trial-loop restore contract) produces byte-identical
     * results to the context-free overload.
     */
    void run(uint64_t n, const ContextFactory& make,
             const std::function<void(uint64_t item, int worker,
                                      WorkerContext* ctx)>& fn);

  private:
    struct Impl;
    Impl* impl_;
    int jobs_;
};

/**
 * One-shot sharded loop: fn(i) for i in [0, n) across `jobs` threads
 * (static sharding as in ThreadPool::run). Convenience wrapper that
 * builds a transient pool; hot callers reuse a ThreadPool.
 */
void parallel_for(uint64_t n, int jobs,
                  const std::function<void(uint64_t item)>& fn);

/**
 * Sharded loop over contiguous groups with per-worker contexts: items
 * [0, n) are cut into ceil(n / group) consecutive groups of `group`
 * items (the last group may be short; group 0 counts as 1) and
 * fn(first, count, ctx) runs once per group, group g on worker
 * (g % jobs) with that worker's context (ThreadPool::run context
 * overload: one make(worker) per worker that receives a group,
 * contexts destroyed at return). This is the fault campaign's shard
 * shape: each pool item is one scalar trial (group 1) or one whole
 * lockstep batch (src/fault/batch.cpp), and because groups are
 * contiguous index ranges the caller's per-item result slots are
 * filled exactly as a serial run would.
 */
void parallel_for_groups_ctx(
    uint64_t n, uint64_t group, int jobs, const ContextFactory& make,
    const std::function<void(uint64_t first, uint64_t count,
                             WorkerContext* ctx)>& fn);

} // namespace koika::harness
