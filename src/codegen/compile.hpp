/**
 * @file
 * Out-of-process compilation of generated models, hardened.
 *
 * Cuttlesim's full pipeline is "emit C++, hand it to a C++ compiler"
 * (§3). The in-tree benchmarks pre-generate models at build time, but the
 * differential tests and the compiler-sensitivity experiment (Fig. 3)
 * exercise the real pipeline: emit the model header plus a small driver,
 * invoke the system C++ compiler with chosen flags, and run the binary.
 *
 * Because that pipeline leaves the process — and certified-compiler work
 * (Fe-Si) teaches us to distrust everything outside it — every external
 * step runs under a watchdog: commands execute in their own process
 * group, are killed wholesale when they exceed a timeout, have their exit
 * status decoded properly (a SIGSEGV in a generated binary reports
 * "killed by signal 11", never a bogus exit code), and transient failures
 * (signal deaths, timeouts) are retried once with backoff. Failures throw
 * FatalError carrying a structured Diagnostic (phase, design, command,
 * captured output).
 *
 * The pipeline's dominant cost — invoking the external compiler — is
 * amortized by a content-addressed cache (CacheConfig): the key is the
 * SHA-256 of the sources, the runtime header, the compiler identity,
 * and the flags, so a hit is guaranteed to reproduce the exact binary
 * the compiler would have produced and skips the fork/exec pipeline
 * entirely. Entries are published with write-to-temp + atomic rename,
 * which keeps the cache safe under concurrent cuttlec invocations.
 */
#pragma once

#include <string>
#include <vector>

#include "codegen/cpp_emit.hpp"
#include "koika/design.hpp"
#include "obs/metrics.hpp"

namespace koika::codegen {

/** Policy knobs for one external command. */
struct RunOptions
{
    /** Kill the command's process group after this many seconds. */
    double timeout_seconds = 120;
    /** Extra attempts after the first, for transient failures only
     *  (signal deaths and timeouts; ordinary nonzero exits are
     *  deterministic and never retried). */
    int retries = 0;
    /** Sleep before the first retry; doubled for each further one. */
    double backoff_seconds = 0.1;
};

/** Decoded outcome of one external command. */
struct RunResult
{
    /** Interleaved stdout+stderr of the last attempt. */
    std::string output;
    /** WEXITSTATUS when the command exited; -1 otherwise. */
    int exit_code = -1;
    /** WTERMSIG when the command died on a signal; 0 otherwise. */
    int term_signal = 0;
    /** True when the watchdog killed the command. */
    bool timed_out = false;
    /** Attempts made (1 = no retry was needed). */
    int attempts = 1;
    /** Wall-clock seconds of the last attempt. */
    double seconds = 0;

    bool exited() const { return !timed_out && term_signal == 0; }
    bool ok() const { return exited() && exit_code == 0; }

    /** "exit code 3" / "killed by signal 11 (SIGSEGV)" /
     *  "timed out after 5s (killed by watchdog)". */
    std::string describe() const;
};

/**
 * Run `command` through /bin/sh under the watchdog, capturing
 * stdout+stderr. Never throws on command failure: decode `RunResult`.
 * Retries (per `opts`) apply only to transient failures; each retry
 * sleeps the (jittered, doubling) backoff and increments the
 * `compile.transient_retries` counter in compile_metrics().
 */
RunResult run_command(const std::string& command,
                      const RunOptions& opts = {});

/**
 * The compiled-model cache. Content addressed: key = SHA-256 of the
 * written sources, the cuttlesim runtime header, the compiler identity
 * (path + `--version` banner), and the flags. A hit copies the cached
 * binary into the workdir without running the compiler; a miss
 * compiles, then publishes the binary into the cache via temp-file +
 * atomic rename (safe under concurrent cuttlec invocations sharing one
 * cache directory). The directory is size-capped: after a store, the
 * oldest entries (by mtime; hits re-touch) are evicted until the cap
 * holds.
 *
 * Activity is observable through compile_metrics(): counters
 * `compile.cache_hits`, `compile.cache_misses`, `compile.cache_stores`,
 * `compile.cache_evictions`, `compile.cache_stale_temps_swept`, and
 * `compile.external_compiles`.
 *
 * A process killed mid-store leaves its `*.tmp.<pid>.<n>` file behind;
 * eviction also sweeps temps older than an hour (counted under
 * `compile.cache_stale_temps_swept`), so crashes cannot leak disk in
 * the shared cache directory.
 */
struct CacheConfig
{
    /** Cache directory; empty disables the cache entirely. */
    std::string dir;
    /** Evict oldest entries beyond this many bytes (0 = uncapped). */
    uint64_t max_bytes = 2ull * 1024 * 1024 * 1024;
};

/**
 * The conventional cache location: $CUTTLESIM_CACHE_DIR if set, else
 * $XDG_CACHE_HOME/cuttlesim, else ~/.cache/cuttlesim (empty string when
 * no home directory is resolvable, which disables the cache).
 */
std::string default_cache_dir();

/**
 * Process-wide compile-pipeline metrics (cache hit/miss/store/eviction
 * counts, external compiler invocations). Increments are internally
 * serialized, so the pipeline may run from pool workers; snapshot the
 * registry only while no compile is in flight.
 */
obs::MetricsRegistry& compile_metrics();

/**
 * The compiler's identity string — absolute path plus the first line of
 * its `--version` banner, newline-separated. This is the same string
 * the cache key hashes (so two processes agree on identity iff they
 * would share cache entries); benches embed it in their `host` block so
 * results are comparable across machines. Computed once per process
 * (the first call forks the compiler).
 */
const std::string& compiler_identity();

/**
 * compiler_identity() flattened to one line (newlines become spaces) —
 * the form embedded in single-line contexts: bench `host` blocks.
 */
const std::string& compiler_identity_line();

struct CompileResult
{
    /** Path of the produced executable. */
    std::string binary;
    /** Wall-clock seconds spent in the C++ compiler (last attempt);
     *  0 on a cache hit. */
    double compile_seconds = 0;
    /** Compiler attempts made (>1 after a transient-failure retry). */
    int attempts = 1;
    /** True when the binary came out of the cache (no compiler run). */
    bool cache_hit = false;
    /** Content hash of (sources, runtime, compiler, flags); empty when
     *  the cache was disabled. */
    std::string cache_key;
};

/** Policy knobs for out-of-process model compilation. */
struct CompileOptions
{
    /** Kill the compiler after this many seconds. */
    double timeout_seconds = 300;
    /** Retries for transient compiler failures (OOM-kill, timeout). */
    int retries = 1;
    double backoff_seconds = 0.25;
    /** Design name for diagnostics (defaults to the main file). */
    std::string design;
    /** Compiled-model cache; disabled unless `cache.dir` is set. */
    CacheConfig cache;
    /**
     * How compile_model_driver emits the model (counters, abort-reason
     * and coverage instrumentation). `class_name` is ignored: the model
     * file is always named after model_class_name(design). The emit
     * options participate in the cache key through the emitted source,
     * so instrumented and plain builds never collide.
     */
    EmitOptions emit;
};

/**
 * Emit the model for `design` into `workdir`, together with `driver_cpp`
 * (a main() that may include "<class>.model.hpp"), compile both with the
 * system compiler and `flags`, and return the binary path. Throws
 * FatalError with the compiler output on failure.
 */
CompileResult compile_model_driver(const Design& design,
                                   const std::string& workdir,
                                   const std::string& driver_cpp,
                                   const std::string& flags = "-O2",
                                   const CompileOptions& opts = {});

/**
 * Lower-level entry: write `files` (name -> contents) into workdir,
 * compile `main_file` (which may include the others and the cuttlesim
 * runtime) with `flags`, and return the binary. Used by the Fig. 3
 * compiler-sensitivity bench to build both Cuttlesim and RTL models at
 * several optimization levels.
 */
CompileResult compile_cpp(const std::string& workdir,
                          const std::vector<std::pair<std::string,
                                                      std::string>>& files,
                          const std::string& main_file,
                          const std::string& flags,
                          const CompileOptions& opts = {});

/**
 * A generic driver: runs argv[1] cycles and dumps every register (as hex
 * words) after each cycle — the format parse_reg_dump understands.
 */
std::string reg_dump_driver(const Design& design);

/**
 * Run a binary, capture stdout; throws FatalError (with signal/timeout
 * detail and the captured output) on anything but a clean exit 0.
 */
std::string run_binary(const std::string& binary, const std::string& args,
                       const RunOptions& opts = {});

/** Wall-clock seconds to run a binary (stdout discarded). */
double time_binary(const std::string& binary, const std::string& args,
                   const RunOptions& opts = {});

/**
 * Parse reg_dump_driver output into per-cycle register snapshots.
 * result[c][r] is register r's value after cycle c.
 */
std::vector<std::vector<Bits>> parse_reg_dump(const Design& design,
                                              const std::string& output);

} // namespace koika::codegen
