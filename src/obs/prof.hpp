/**
 * @file
 * Host-side wall-clock span profiler.
 *
 * Everything else in src/obs/ observes *simulated* time (rule commits,
 * abort reasons, coverage). This module observes the toolchain itself:
 * where the host's wall-clock seconds go when a campaign, bench, or
 * cuttlec invocation runs — per-trial model construction, compile
 * forks, cache probes, pool queue-wait, report merging. It exists to
 * turn "jobs=hw is only 1.05x faster" from a mystery into an
 * attributed measurement (ROADMAP item 2).
 *
 * Design:
 *
 *   - ProfScope is an RAII timer. When the process-wide Profiler is
 *     disabled (the default), constructing one costs a single relaxed
 *     atomic load — cheap enough to leave in hot-ish paths like the
 *     thread pool's per-item dispatch. When enabled, the scope records
 *     one ProfSpan (phase name, start, duration, nesting depth) into a
 *     lock-free thread-local buffer at destruction.
 *   - Span buffers are chunked singly-linked lists: the owning thread
 *     appends and publishes a span count with a release store; readers
 *     (report/trace flushers) walk the committed prefix with an acquire
 *     load. No locks on the record path, no reallocation races.
 *   - Phase names are '/'-separated paths (the same convention as
 *     MetricsRegistry), so reports are hierarchical by construction:
 *     "trial/setup", "compile/cache-probe", "pool/item".
 *   - Two exporters: trace_json() renders a Chrome trace-event /
 *     Perfetto host timeline (one lane per thread, one slice per span
 *     — the host-side twin of obs::TraceWriter's simulated-time view),
 *     and report() builds the versioned `cuttlesim-prof-v1` summary
 *     (per-phase total/count/mean/max, per-worker busy vs. idle, pool
 *     utilization) that cuttlec --profile= writes and every
 *     BENCH_*.json embeds. Report structure is deterministic: phases
 *     and workers are sorted by name and same-named worker threads
 *     (pool generations reuse "worker-NNN") are merged, so the report
 *     is structurally identical at any --jobs value.
 *
 * Concurrency contract: record() (via ProfScope) is safe from any
 * thread at any time. enable()/reset() must run while no other thread
 * is recording (in practice: before pools spin up or after they join —
 * every pool in this repo is joined before its caller returns).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace koika::obs {

/** How a span counts in the busy/idle ledger. */
enum class SpanKind : uint8_t {
    /** Productive work: counts toward its worker's busy time. */
    kWork = 0,
    /** Measured idleness (queue wait): excluded from the phase table so
     *  the report's phase set does not depend on --jobs; surfaces as
     *  the worker's wait_seconds instead. */
    kIdle = 1,
};

/** One recorded interval on one thread. */
struct ProfSpan
{
    /** Phase path; must outlive the profiler (string literal or
     *  Profiler::intern result). */
    const char* phase;
    /** Start, nanoseconds since the profiler epoch. */
    uint64_t start_ns;
    uint64_t dur_ns;
    /** ProfScope nesting depth on the recording thread (0 = top level;
     *  only depth-0 kWork spans count as busy, so nested attribution
     *  never double-counts utilization). */
    uint32_t depth;
    SpanKind kind;
};

class Profiler
{
  public:
    /** Per-thread span storage (opaque; defined in prof.cpp). */
    struct ThreadBuf;

    /** The process-wide profiler (never destroyed). */
    static Profiler& instance();

    /** Arm recording and restart the epoch. Quiescence required. */
    void enable();
    void disable();
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Monotonic count of enable() calls. Long-lived threads (pool
     * workers) cache this alongside their lane name: when the profiler
     * is re-enabled mid-flight the generation moves, telling the worker
     * its naming may predate the current recording epoch and should be
     * re-asserted. Starts at 0 (never enabled).
     */
    uint64_t
    enable_generation() const
    {
        return enable_gen_.load(std::memory_order_relaxed);
    }

    /** Nanoseconds since the profiler epoch (monotonic). */
    uint64_t now_ns() const;

    /**
     * Name the calling thread's lane ("main", "worker-003"). Creates
     * the thread buffer if needed and sticks even while the profiler is
     * disabled (buffers are immortal, so a name set before enable() is
     * what the eventual report sees). Threads that record without
     * naming themselves appear as "thread-<index>".
     */
    void set_thread_name(const std::string& name);

    /** Copy a dynamic phase name into stable storage. */
    const char* intern(const std::string& phase);

    /** Append one span to the calling thread's buffer. */
    void record(const char* phase, uint64_t start_ns, uint64_t end_ns,
                uint32_t depth, SpanKind kind);

    // -- Reporting -----------------------------------------------------------

    struct PhaseStats
    {
        uint64_t count = 0;
        double total_seconds = 0;
        double max_seconds = 0;
        double
        mean_seconds() const
        {
            return count ? total_seconds / (double)count : 0.0;
        }
    };

    struct WorkerStats
    {
        std::string name;
        uint64_t spans = 0;
        /** Sum of depth-0 kWork spans on this thread. */
        double busy_seconds = 0;
        /** Sum of kIdle spans (measured queue wait). */
        double wait_seconds = 0;
        /** wall - busy, clamped at 0 (includes wait_seconds). */
        double idle_seconds = 0;
        /** busy / wall. */
        double utilization = 0;
    };

    /** The cuttlesim-prof-v1 summary (see docs/OBSERVABILITY.md). */
    struct Report
    {
        double wall_seconds = 0;
        /** Sorted by phase path; kIdle spans excluded. */
        std::map<std::string, PhaseStats> phases;
        /** Sorted by worker name; same-named threads merged. */
        std::vector<WorkerStats> workers;
        double pool_busy_seconds = 0;
        double pool_idle_seconds = 0;
        /** sum(busy) / (workers * wall). */
        double pool_utilization = 0;

        Json to_json() const;
        std::string to_text() const;
        /**
         * Mirror into a MetricsRegistry under `prefix`:
         * <prefix>/phase/<path>/{count,total_seconds,max_seconds},
         * <prefix>/worker/<name>/{busy_seconds,utilization},
         * <prefix>/pool/utilization. Counter/gauge names are a pure
         * function of the span structure, so per-shard registries merge
         * deterministically like coverage databases do.
         */
        void export_to(MetricsRegistry& registry,
                       const std::string& prefix) const;
    };

    /** Snapshot everything recorded so far (safe while recording). */
    Report report() const;

    /** Spans of one thread, for incremental export. */
    struct ThreadSpans
    {
        std::string thread;
        std::vector<ProfSpan> spans;
    };

    /**
     * Incremental span export for callers that attribute time window by
     * window (perfbench's traced run drains the spans of each operation
     * it times): return every span committed since the last call with
     * the same cursor map, grouped by thread name, and advance the
     * cursors. Safe while recording (reads the committed
     * prefix like report()); a fresh cursor map drains from the start.
     * Threads with no new spans are omitted.
     */
    std::vector<ThreadSpans>
    drain_since(std::map<const void*, uint64_t>& cursors) const;

    /** Total kWork seconds recorded for one phase path so far. */
    double phase_total_seconds(const std::string& phase) const;

    /**
     * Running sum of depth-0 kWork seconds across all threads — an O(1)
     * aggregate for progress heartbeats (utilization without walking
     * the span buffers).
     */
    double busy_seconds() const;

    /**
     * Chrome trace-event JSON of the host timeline: one "thread" lane
     * per recorded thread, one "X" slice per span (ts/dur in
     * microseconds). Open in https://ui.perfetto.dev.
     */
    std::string trace_json() const;

    /** Drop all spans and restart the epoch. Quiescence required. */
    void reset();

  private:
    Profiler();
    ThreadBuf& local_buf();
    /** Committed spans of `buf`, oldest first. */
    static void snapshot(const ThreadBuf& buf,
                         std::vector<ProfSpan>& out);

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> enable_gen_{0};
    std::atomic<uint64_t> busy_ns_{0};
    std::atomic<int64_t> epoch_ns_{0};
    mutable std::mutex mutex_; ///< buffer registry + interned names
    std::vector<ThreadBuf*> bufs_;
    std::vector<std::string>* interned_;
};

/**
 * RAII span: times from construction to close()/destruction and
 * records into the calling thread's buffer. Near-free when the
 * profiler is disabled.
 */
class ProfScope
{
  public:
    explicit ProfScope(const char* phase,
                       SpanKind kind = SpanKind::kWork);
    ~ProfScope() { close(); }

    ProfScope(const ProfScope&) = delete;
    ProfScope& operator=(const ProfScope&) = delete;

    /** End the span early (idempotent). */
    void close();

  private:
    const char* phase_ = nullptr;
    uint64_t start_ns_ = 0;
    uint32_t depth_ = 0;
    SpanKind kind_ = SpanKind::kWork;
    bool active_ = false;
};

} // namespace koika::obs
