#include "obs/prof.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace koika::obs {

namespace {

uint64_t
steady_now_ns()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** ProfScope nesting level of the calling thread. */
thread_local uint32_t tl_depth = 0;

/** Append a JSON-escaped string literal (quotes included) to `out`. */
void
append_json_string(std::string& out, const char* s)
{
    out += '"';
    for (const char* p = s; *p; ++p) {
        unsigned char c = (unsigned char)*p;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += (char)c;
            }
        }
    }
    out += '"';
}

} // namespace

/**
 * Per-thread span storage: a singly-linked list of fixed-size chunks.
 * Only the owning thread appends; `committed` is the publication point
 * (release store after the span is fully written), so readers can walk
 * the first `committed` spans without locking. Buffers are registered
 * once and never freed — a thread that dies leaves its spans behind for
 * the final report, and pool generations that reuse a worker name are
 * merged at report time.
 */
struct Profiler::ThreadBuf
{
    static constexpr size_t kChunkSpans = 2048;

    struct Chunk
    {
        ProfSpan spans[kChunkSpans];
        std::atomic<Chunk*> next{nullptr};
    };

    explicit ThreadBuf(std::string n) : name(std::move(n))
    {
        head = tail = new Chunk();
    }
    ~ThreadBuf()
    {
        for (Chunk* c = head; c;) {
            Chunk* next = c->next.load(std::memory_order_relaxed);
            delete c;
            c = next;
        }
    }

    void
    push(const ProfSpan& span)
    {
        if (tail_used == kChunkSpans) {
            Chunk* fresh = new Chunk();
            tail->next.store(fresh, std::memory_order_release);
            tail = fresh;
            tail_used = 0;
        }
        tail->spans[tail_used++] = span;
        committed.fetch_add(1, std::memory_order_release);
    }

    std::string name;          ///< guarded by Profiler::mutex_
    Chunk* head;
    Chunk* tail = nullptr;     ///< owner thread only
    size_t tail_used = 0;      ///< owner thread only
    std::atomic<uint64_t> committed{0};
};

namespace {
/** The calling thread's buffer, once registered (never dangles:
 *  ThreadBufs are immortal). */
thread_local Profiler::ThreadBuf* tl_buf = nullptr;
} // namespace

Profiler::Profiler() : interned_(new std::vector<std::string>())
{
    epoch_ns_.store((int64_t)steady_now_ns(), std::memory_order_relaxed);
}

Profiler&
Profiler::instance()
{
    static Profiler* p = new Profiler(); // leaked: outlives all threads
    return *p;
}

void
Profiler::enable()
{
    epoch_ns_.store((int64_t)steady_now_ns(), std::memory_order_relaxed);
    busy_ns_.store(0, std::memory_order_relaxed);
    enable_gen_.fetch_add(1, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
Profiler::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

uint64_t
Profiler::now_ns() const
{
    uint64_t now = steady_now_ns();
    uint64_t epoch = (uint64_t)epoch_ns_.load(std::memory_order_relaxed);
    return now >= epoch ? now - epoch : 0;
}

Profiler::ThreadBuf&
Profiler::local_buf()
{
    if (tl_buf)
        return *tl_buf;
    std::lock_guard<std::mutex> lock(mutex_);
    char fallback[32];
    std::snprintf(fallback, sizeof fallback, "thread-%zu", bufs_.size());
    tl_buf = new ThreadBuf(fallback);
    bufs_.push_back(tl_buf);
    return *tl_buf;
}

void
Profiler::set_thread_name(const std::string& name)
{
    // Deliberately NOT gated on enabled(): a lane named before (or
    // between) recording epochs must keep its name, or the report
    // falls back to an anonymous "thread-N" id for it.
    ThreadBuf& buf = local_buf();
    std::lock_guard<std::mutex> lock(mutex_);
    buf.name = name;
}

const char*
Profiler::intern(const std::string& phase)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& s : *interned_)
        if (s == phase)
            return s.c_str();
    interned_->push_back(phase);
    return interned_->back().c_str();
}

void
Profiler::record(const char* phase, uint64_t start_ns, uint64_t end_ns,
                 uint32_t depth, SpanKind kind)
{
    if (end_ns < start_ns)
        end_ns = start_ns;
    ProfSpan span{phase, start_ns, end_ns - start_ns, depth, kind};
    local_buf().push(span);
    if (depth == 0 && kind == SpanKind::kWork)
        busy_ns_.fetch_add(span.dur_ns, std::memory_order_relaxed);
}

void
Profiler::snapshot(const ThreadBuf& buf, std::vector<ProfSpan>& out)
{
    uint64_t committed = buf.committed.load(std::memory_order_acquire);
    const ThreadBuf::Chunk* chunk = buf.head;
    for (uint64_t i = 0; i < committed; ++i) {
        size_t slot = (size_t)(i % ThreadBuf::kChunkSpans);
        out.push_back(chunk->spans[slot]);
        if (slot + 1 == ThreadBuf::kChunkSpans && i + 1 < committed)
            chunk = chunk->next.load(std::memory_order_acquire);
    }
}

Profiler::Report
Profiler::report() const
{
    Report rep;
    rep.wall_seconds = (double)now_ns() * 1e-9;

    std::vector<std::pair<std::string, const ThreadBuf*>> bufs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const ThreadBuf* b : bufs_)
            bufs.emplace_back(b->name, b);
    }

    // Same-named threads merge: every pool generation's "worker-003" is
    // the same logical lane, so the worker list (and thus the report
    // structure) depends only on the maximum pool width ever used.
    std::map<std::string, WorkerStats> workers;
    for (const auto& [name, buf] : bufs) {
        std::vector<ProfSpan> spans;
        snapshot(*buf, spans);
        WorkerStats& w = workers[name];
        w.name = name;
        for (const ProfSpan& s : spans) {
            double secs = (double)s.dur_ns * 1e-9;
            w.spans++;
            if (s.kind == SpanKind::kIdle) {
                w.wait_seconds += secs;
                continue;
            }
            if (s.depth == 0)
                w.busy_seconds += secs;
            PhaseStats& ph = rep.phases[s.phase];
            ph.count++;
            ph.total_seconds += secs;
            ph.max_seconds = std::max(ph.max_seconds, secs);
        }
    }

    double wall = rep.wall_seconds;
    for (auto& [name, w] : workers) {
        w.idle_seconds = std::max(0.0, wall - w.busy_seconds);
        w.utilization = wall > 0 ? w.busy_seconds / wall : 0.0;
        rep.pool_busy_seconds += w.busy_seconds;
        rep.pool_idle_seconds += w.idle_seconds;
        rep.workers.push_back(w);
    }
    double capacity = (double)rep.workers.size() * wall;
    rep.pool_utilization = capacity > 0 ? rep.pool_busy_seconds / capacity
                                        : 0.0;
    return rep;
}

std::vector<Profiler::ThreadSpans>
Profiler::drain_since(std::map<const void*, uint64_t>& cursors) const
{
    std::vector<std::pair<std::string, const ThreadBuf*>> bufs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const ThreadBuf* b : bufs_)
            bufs.emplace_back(b->name, b);
    }
    std::vector<ThreadSpans> out;
    for (const auto& [name, buf] : bufs) {
        uint64_t committed = buf->committed.load(std::memory_order_acquire);
        uint64_t& from = cursors[(const void*)buf];
        if (from >= committed)
            continue;
        ThreadSpans ts;
        ts.thread = name;
        // Chunks are immortal while recording (only reset() frees them,
        // under the quiescence contract), so replaying the walk from
        // head and skipping the already-drained prefix is safe.
        const ThreadBuf::Chunk* chunk = buf->head;
        for (uint64_t i = 0; i < committed; ++i) {
            size_t slot = (size_t)(i % ThreadBuf::kChunkSpans);
            if (i >= from)
                ts.spans.push_back(chunk->spans[slot]);
            if (slot + 1 == ThreadBuf::kChunkSpans && i + 1 < committed)
                chunk = chunk->next.load(std::memory_order_acquire);
        }
        from = committed;
        out.push_back(std::move(ts));
    }
    return out;
}

double
Profiler::phase_total_seconds(const std::string& phase) const
{
    std::vector<const ThreadBuf*> bufs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bufs.assign(bufs_.begin(), bufs_.end());
    }
    double total = 0;
    std::vector<ProfSpan> spans;
    for (const ThreadBuf* buf : bufs) {
        spans.clear();
        snapshot(*buf, spans);
        for (const ProfSpan& s : spans)
            if (s.kind == SpanKind::kWork && phase == s.phase)
                total += (double)s.dur_ns * 1e-9;
    }
    return total;
}

double
Profiler::busy_seconds() const
{
    return (double)busy_ns_.load(std::memory_order_relaxed) * 1e-9;
}

Json
Profiler::Report::to_json() const
{
    Json root = Json::object();
    root["schema"] = "cuttlesim-prof-v1";
    root["wall_seconds"] = wall_seconds;

    Json jphases = Json::object();
    for (const auto& [name, ph] : phases) {
        Json p = Json::object();
        p["count"] = ph.count;
        p["total_seconds"] = ph.total_seconds;
        p["mean_seconds"] = ph.mean_seconds();
        p["max_seconds"] = ph.max_seconds;
        jphases[name] = std::move(p);
    }
    root["phases"] = std::move(jphases);

    Json jworkers = Json::array();
    for (const WorkerStats& w : workers) {
        Json jw = Json::object();
        jw["name"] = w.name;
        jw["spans"] = w.spans;
        jw["busy_seconds"] = w.busy_seconds;
        jw["wait_seconds"] = w.wait_seconds;
        jw["idle_seconds"] = w.idle_seconds;
        jw["utilization"] = w.utilization;
        jworkers.push_back(std::move(jw));
    }
    root["workers"] = std::move(jworkers);

    Json pool = Json::object();
    pool["workers"] = (uint64_t)workers.size();
    pool["busy_seconds"] = pool_busy_seconds;
    pool["idle_seconds"] = pool_idle_seconds;
    pool["utilization"] = pool_utilization;
    root["pool"] = std::move(pool);
    return root;
}

std::string
Profiler::Report::to_text() const
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "host profile: wall %.3fs, %zu worker(s), pool "
                  "utilization %.1f%%\n",
                  wall_seconds, workers.size(), pool_utilization * 100.0);
    out += line;

    size_t width = 16;
    for (const auto& [name, ph] : phases)
        width = std::max(width, name.size());
    for (const auto& [name, ph] : phases) {
        std::snprintf(line, sizeof line,
                      "  %-*s  total %9.3fs  count %8" PRIu64
                      "  mean %10.6fs  max %9.3fs\n",
                      (int)width, name.c_str(), ph.total_seconds, ph.count,
                      ph.mean_seconds(), ph.max_seconds);
        out += line;
    }
    for (const WorkerStats& w : workers) {
        std::snprintf(line, sizeof line,
                      "  %-*s  busy  %9.3fs  wait %8.3fs  idle "
                      "%9.3fs  (%5.1f%% busy)\n",
                      (int)width, w.name.c_str(), w.busy_seconds,
                      w.wait_seconds, w.idle_seconds, w.utilization * 100.0);
        out += line;
    }
    return out;
}

void
Profiler::Report::export_to(MetricsRegistry& registry,
                            const std::string& prefix) const
{
    for (const auto& [name, ph] : phases) {
        const std::string base = prefix + "/phase/" + name;
        registry.inc(base + "/count", ph.count);
        registry.set_gauge(base + "/total_seconds", ph.total_seconds);
        registry.set_gauge(base + "/max_seconds", ph.max_seconds);
    }
    for (const WorkerStats& w : workers) {
        const std::string base = prefix + "/worker/" + w.name;
        registry.set_gauge(base + "/busy_seconds", w.busy_seconds);
        registry.set_gauge(base + "/utilization", w.utilization);
    }
    registry.set_gauge(prefix + "/pool/utilization", pool_utilization);
    registry.set_gauge(prefix + "/wall_seconds", wall_seconds);
}

std::string
Profiler::trace_json() const
{
    std::vector<std::pair<std::string, const ThreadBuf*>> bufs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const ThreadBuf* b : bufs_)
            bufs.emplace_back(b->name, b);
    }
    // Stable lane numbering: sorted by name, ties (same-named pool
    // generations) share a tid so the timeline shows one lane per
    // logical worker.
    std::vector<std::pair<std::string, const ThreadBuf*>> sorted = bufs;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    std::map<std::string, int> tids;
    for (const auto& [name, buf] : sorted)
        if (!tids.count(name))
            tids.emplace(name, (int)tids.size() + 1);

    std::string out;
    out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
           "\"process_name\", \"args\": {\"name\": \"cuttlesim host\"}}";
    for (const auto& [name, tid] : tids) {
        char head[96];
        std::snprintf(head, sizeof head,
                      ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                      "\"name\": \"thread_name\", \"args\": {\"name\": ",
                      tid);
        out += head;
        append_json_string(out, name.c_str());
        out += "}}";
    }
    std::vector<ProfSpan> spans;
    for (const auto& [name, buf] : sorted) {
        int tid = tids.at(name);
        spans.clear();
        snapshot(*buf, spans);
        for (const ProfSpan& s : spans) {
            char head[128];
            std::snprintf(head, sizeof head,
                          ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                          "\"ts\": %.3f, \"dur\": %.3f, \"name\": ",
                          tid, (double)s.start_ns * 1e-3,
                          (double)s.dur_ns * 1e-3);
            out += head;
            append_json_string(out, s.phase);
            if (s.kind == SpanKind::kIdle)
                out += ", \"cat\": \"idle\"";
            out += "}";
        }
    }
    out += "\n]}\n";
    return out;
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (ThreadBuf* buf : bufs_) {
        // Quiescence contract: no thread is recording, so mutating the
        // owner-side cursor from here is safe.
        for (ThreadBuf::Chunk* c =
                 buf->head->next.load(std::memory_order_relaxed);
             c;) {
            ThreadBuf::Chunk* next = c->next.load(std::memory_order_relaxed);
            delete c;
            c = next;
        }
        buf->head->next.store(nullptr, std::memory_order_relaxed);
        buf->tail = buf->head;
        buf->tail_used = 0;
        buf->committed.store(0, std::memory_order_relaxed);
    }
    busy_ns_.store(0, std::memory_order_relaxed);
    epoch_ns_.store((int64_t)steady_now_ns(), std::memory_order_relaxed);
}

ProfScope::ProfScope(const char* phase, SpanKind kind)
{
    Profiler& prof = Profiler::instance();
    if (!prof.enabled())
        return;
    phase_ = phase;
    kind_ = kind;
    depth_ = tl_depth++;
    start_ns_ = prof.now_ns();
    active_ = true;
}

void
ProfScope::close()
{
    if (!active_)
        return;
    active_ = false;
    Profiler& prof = Profiler::instance();
    uint64_t end_ns = prof.now_ns();
    --tl_depth;
    prof.record(phase_, start_ns_, end_ns, depth_, kind_);
}

} // namespace koika::obs
