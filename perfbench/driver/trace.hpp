/**
 * @file
 * Layer spans and per-layer self times for the benchmark's traced run.
 *
 * Spans are the program's own obs::Profiler spans. The benchmark opens
 * one around each call it makes into a layer (a `src/` module), named
 * "<layer>:<call>"; the program records its own phases inside those
 * calls ("trial/run", "compile/emit", "pool/item", ...). After each
 * traced operation the benchmark drains the main thread's spans and
 * charges each span's self time (its duration minus that of its direct
 * children) to its layer.
 *
 * Calls made once per simulated cycle (a model's cycle(), a coverage
 * sample) are far too many to record one by one; they are timed as
 * aggregated leaves that count toward their layer and are taken out of
 * the self time of the layer whose span encloses them.
 *
 * When tracing is off the profiler is off, and the untraced run never
 * constructs a TimedModel, so end-to-end numbers are measured without
 * either.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "obs/prof.hpp"
#include "sim/model.hpp"

namespace perfbench {

inline uint64_t
now_ns()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since `start_ns`. */
inline double
seconds_since(uint64_t start_ns)
{
    return (double)(now_ns() - start_ns) * 1e-9;
}

/** Whether the current operation is traced (the profiler records). */
inline bool
tracing()
{
    return koika::obs::Profiler::instance().enabled();
}

/** Start or stop recording. Call only between operations, while no pool
 *  thread runs. */
void set_tracing(bool on);

/** The benchmark's own spans are named "<layer>:<call>". */
using koika::obs::ProfScope;

/** Pauses tracing for its lifetime (oracle checks inside an operation,
 *  after its spans have closed). */
class Untraced
{
  public:
    Untraced() : was_(tracing()) { set_tracing(false); }
    ~Untraced() { set_tracing(was_); }
    Untraced(const Untraced&) = delete;
    Untraced& operator=(const Untraced&) = delete;

  private:
    bool was_;
};

/** Self seconds per layer over the traced operations. */
class LayerTimes
{
  public:
    static LayerTimes& get();

    /** Drop the spans recorded so far (set-up). */
    void skip();
    /** Charge the spans recorded since the last skip() or collect(). */
    void collect();
    /** Charge `ns` of per-cycle work to `layer`, out of the enclosing
     *  span's layer `from`. */
    void leaf(const char* layer, const char* from, uint64_t ns);

    const std::map<std::string, double>& self_seconds() const
    {
        return self_s_;
    }

  private:
    std::map<const void*, uint64_t> cursors_;
    std::map<std::string, double> self_s_;
};

/**
 * A model that times its inner model's cycle() as an aggregated leaf of
 * `layer` inside a span of `from`. Used only in the traced run: it hides
 * the inner model's optional capabilities (rule stats, coverage,
 * checkpoints) from dynamic_cast, so callers keep a pointer to the inner
 * model for those.
 */
class TimedModel final : public koika::sim::Model
{
  public:
    TimedModel(koika::sim::Model& inner, const char* layer, const char* from)
        : inner_(inner), layer_(layer), from_(from)
    {
    }

    void
    cycle() override
    {
        uint64_t t0 = now_ns();
        inner_.cycle();
        uint64_t dt = now_ns() - t0;
        ns_ += dt;
        LayerTimes::get().leaf(layer_, from_, dt);
    }
    koika::Bits get_reg(int reg) const override { return inner_.get_reg(reg); }
    void
    set_reg(int reg, const koika::Bits& value) override
    {
        inner_.set_reg(reg, value);
    }
    uint64_t cycles_run() const override { return inner_.cycles_run(); }
    size_t num_regs() const override { return inner_.num_regs(); }

    /** Nanoseconds spent inside the inner cycle(). */
    uint64_t cycle_ns() const { return ns_; }

  private:
    koika::sim::Model& inner_;
    const char* layer_;
    const char* from_;
    uint64_t ns_ = 0;
};

} // namespace perfbench
