/**
 * @file
 * What one driver process measures, and the helpers its workloads share.
 *
 * A driver process runs one workload once: a cold set-up, a closed loop
 * of operations (one client; the next operation starts only after the
 * previous one returned) for a fixed number of seconds, and a rebuild of
 * an edited design. run.py starts several such processes per benchmark
 * run and aggregates them.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "codegen/dlmodel.hpp"
#include "sim/model.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the closed loop, in seconds. */
    double seconds = 1;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Private compile cache and scratch directory (start empty). */
    std::string cache_dir, work_dir;
    /** Worker threads for pooled work: min(nproc, 4). */
    int threads = 1;
    /** Self-test: the oracle whose input to corrupt (see each workload's
     *  file for the names), to show that it catches a wrong answer; empty
     *  for none. */
    std::string corrupt;

    /** Compiled-engine options: the private cache, never the user's. */
    koika::codegen::DlModelOptions
    dlopts(const std::string& scratch) const
    {
        koika::codegen::DlModelOptions o;
        o.cache.dir = cache_dir;
        o.workdir = work_dir + "/" + scratch;
        return o;
    }
};

/** One closed-loop operation as the workload timed it (oracle checks
 *  excluded): `work` units done in `work_s` host seconds count toward
 *  throughput, and a `latency_s` >= 0 is one latency sample. A workload
 *  whose inputs repeat names the `input` (>= 0); run.py then keeps only
 *  the fastest run of each input. */
struct OpTime
{
    double work = 0;
    double work_s = 0;
    double latency_s = -1;
    int64_t input = -1;
};

struct Result
{
    /** Design name to ready engine (cold), and edited design to ready
     *  engine with the unedited build still cached. */
    double setup_s = 0, rebuild_s = 0;
    /** Every untraced closed-loop operation. */
    std::vector<OpTime> ops;
    /** Work units done and the seconds they took, untraced and (in the
     *  traced run) traced; the ratio of the two rates is the tracing
     *  overhead. */
    double work = 0, work_s = 0;
    double traced_work = 0, traced_work_s = 0, traced_ops = 0;
    /** Operations checked against their oracle, and those that failed. */
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    /** Per-layer metrics (traced run). */
    std::map<std::string, double> layers;

    /** Account one operation's oracle verdict. */
    void
    check(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20)
                failures.push_back(what);
        }
    }
};

/** splitmix64: the benchmark's own input generator. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t s_;
};

/**
 * The measured closed loop: op(i) for i = 0, 1, ... until the run's
 * seconds have elapsed and at least `min_ops` operations ran (so the
 * first pass over the inputs always completes and its exact counts
 * repeat). Operation 0 is an untimed warm-up. The traced run traces
 * every other pair of operations, charging their spans to LayerTimes;
 * the rates of the two halves give the tracing overhead.
 */
void measure(const Options& opt, Result& res, uint64_t min_ops,
             const std::function<OpTime(uint64_t)>& op);

/**
 * Run `build` in a span named `span` and add the code generation it
 * caused to the per-layer metrics: codegen.{emit,compile,dlopen}_s from
 * the program's profiler phases and codegen.{external_compiles,
 * cache_hits} from codegen::compile_metrics().
 */
void count_codegen(Result& res, const char* span,
                   const std::function<void()>& build);

/** Total seconds the program's span profiler recorded for `phase`. */
double prof_seconds(const std::string& phase);

/** Self-test: flip the lowest bit of the model's first non-empty
 *  register. */
void flip_state_bit(koika::sim::Model& model);

/** Bytes of every `*.model.hpp` under `dir` (emitted model sources). */
double emitted_bytes(const std::string& dir);

void run_fault_rv32i(const Options& opt, Result& res);
void run_verify_msi(const Options& opt, Result& res);

} // namespace perfbench
