#include "fault/fault.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "base/io.hpp"
#include "base/signal.hpp"
#include "harness/parallel.hpp"
#include "obs/prof.hpp"
#include "sim/state.hpp"

namespace koika::fault {

namespace {

constexpr const char* kFaultCkptSchema = "cuttlesim-fault-ckpt-v1";

/**
 * Bounded draw via modulo. Deliberately not uniform_int_distribution:
 * its mapping is implementation-defined, and campaign reports must be
 * reproducible from the seed alone, everywhere.
 */
uint64_t
draw(std::mt19937_64& rng, uint64_t n)
{
    return n == 0 ? 0 : rng() % n;
}

} // namespace

void
inject(sim::Model& model, const FaultSpec& spec)
{
    Bits v = model.get_reg(spec.reg);
    bool value = spec.kind == FaultKind::kBitFlip
                     ? !v.bit(spec.bit)
                     : spec.kind == FaultKind::kStuckAt1;
    model.set_reg(spec.reg, v.with_bit(spec.bit, value));
}

obs::Json
injection_to_json(size_t index, const InjectionRecord& r)
{
    obs::Json e = obs::Json::object();
    e["index"] = (uint64_t)index;
    e["cycle"] = r.spec.cycle;
    e["reg"] = (int64_t)r.spec.reg;
    e["reg_name"] = r.reg_name;
    e["bit"] = (uint64_t)r.spec.bit;
    e["kind"] = fault_kind_name(r.spec.kind);
    if (r.spec.kind != FaultKind::kBitFlip)
        e["stuck_cycles"] = r.spec.stuck_cycles;
    e["outcome"] = outcome_name(r.outcome);
    e["diverged"] = r.diverged;
    if (r.diverged) {
        e["first_divergence_cycle"] = r.first_divergence_cycle;
        e["first_divergence_reg"] = (int64_t)r.first_divergence_reg;
    }
    e["detected"] = r.detected;
    if (r.detected) {
        e["detect_cycle"] = r.detect_cycle;
        e["detect_detail"] = r.detect_detail;
    }
    e["final_state_matches"] = r.final_state_matches;
    return e;
}

namespace {

const obs::Json&
jfield(const obs::Json& j, const char* key)
{
    const obs::Json* v = j.find(key);
    if (v == nullptr)
        fatal("fault checkpoint: missing field '%s'", key);
    return *v;
}

/** Inverse of injection_to_json (checkpoint resume); FatalError on
 *  missing fields. */
InjectionRecord
injection_from_json(const obs::Json& e)
{
    InjectionRecord r;
    r.spec.cycle = jfield(e, "cycle").as_u64();
    r.spec.reg = (int)jfield(e, "reg").as_int();
    r.reg_name = jfield(e, "reg_name").as_string();
    r.spec.bit = (uint32_t)jfield(e, "bit").as_u64();
    std::string kind = jfield(e, "kind").as_string();
    for (int k = 0; k < kNumFaultKinds; ++k)
        if (kind == fault_kind_name((FaultKind)k))
            r.spec.kind = (FaultKind)k;
    if (const obs::Json* sc = e.find("stuck_cycles"))
        r.spec.stuck_cycles = sc->as_u64();
    std::string outcome = jfield(e, "outcome").as_string();
    for (int o = 0; o < 3; ++o)
        if (outcome == outcome_name((Outcome)o))
            r.outcome = (Outcome)o;
    r.diverged = jfield(e, "diverged").as_bool();
    if (r.diverged) {
        r.first_divergence_cycle =
            jfield(e, "first_divergence_cycle").as_u64();
        r.first_divergence_reg =
            (int)jfield(e, "first_divergence_reg").as_int();
    }
    r.detected = jfield(e, "detected").as_bool();
    if (r.detected) {
        r.detect_cycle = jfield(e, "detect_cycle").as_u64();
        r.detect_detail = jfield(e, "detect_detail").as_string();
    }
    r.final_state_matches = jfield(e, "final_state_matches").as_bool();
    return r;
}

/** The `config` block reports and checkpoints echo: seed, count,
 *  cycles, stuck_at, max_stuck_cycles (exactly the fields that change
 *  what gets injected). */
obs::Json
campaign_config_echo(const CampaignConfig& config)
{
    obs::Json cfg = obs::Json::object();
    cfg["seed"] = config.seed;
    cfg["count"] = (int64_t)config.count;
    cfg["cycles"] = config.cycles;
    cfg["stuck_at"] = config.stuck_at;
    cfg["max_stuck_cycles"] = config.max_stuck_cycles;
    return cfg;
}

/** Write campaign progress (completed prefix) atomically. */
void
save_progress(const std::string& path, const std::string& design,
              const CampaignConfig& config,
              const std::vector<InjectionRecord>& records,
              size_t completed, const obs::CoverageMap* coverage)
{
    obs::Json j = obs::Json::object();
    j["schema"] = kFaultCkptSchema;
    j["design"] = design;
    j["config"] = campaign_config_echo(config);
    j["completed"] = (uint64_t)completed;
    obs::Json list = obs::Json::array();
    for (size_t i = 0; i < completed; ++i)
        list.push_back(injection_to_json(i, records[i]));
    j["injections"] = std::move(list);
    if (coverage != nullptr)
        j["coverage"] = coverage->to_json();
    write_file_atomic(path, j.dump(2) + "\n");
}

/**
 * Load campaign progress. Returns the number of completed injections
 * (0 when the file does not exist), filling the record prefix and
 * merged coverage. FatalError when the file exists but describes a
 * different campaign — resuming someone else's progress would produce
 * a silently wrong report.
 */
size_t
load_progress(const std::string& path, const std::string& design,
              const CampaignConfig& config,
              std::vector<InjectionRecord>& records,
              obs::CoverageMap* coverage)
{
    if (!std::ifstream(path))
        return 0;
    obs::Json j = obs::Json::parse(read_file(path));
    if (jfield(j, "schema").as_string() != kFaultCkptSchema)
        fatal("fault checkpoint '%s': not a %s file", path.c_str(),
              kFaultCkptSchema);
    if (jfield(j, "design").as_string() != design ||
        jfield(j, "config").dump() != campaign_config_echo(config).dump())
        fatal("fault checkpoint '%s' was written by a different "
              "campaign (design or config mismatch); delete it or "
              "match the original flags",
              path.c_str());
    size_t completed = (size_t)jfield(j, "completed").as_u64();
    const obs::Json& list = jfield(j, "injections");
    if (completed > records.size() || list.size() != completed)
        fatal("fault checkpoint '%s': completed count does not match "
              "its records",
              path.c_str());
    for (size_t i = 0; i < completed; ++i)
        records[i] = injection_from_json(list.at(i));
    if (coverage != nullptr) {
        const obs::Json* cov = j.find("coverage");
        if (cov == nullptr)
            fatal("fault checkpoint '%s' has no coverage section but "
                  "this campaign collects coverage; delete it to "
                  "restart",
                  path.c_str());
        coverage->merge(obs::CoverageMap::from_json(*cov));
    }
    return completed;
}

} // namespace

const char*
fault_kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kBitFlip: return "bit_flip";
      case FaultKind::kStuckAt0: return "stuck_at_0";
      case FaultKind::kStuckAt1: return "stuck_at_1";
    }
    return "?";
}

const char*
outcome_name(Outcome outcome)
{
    switch (outcome) {
      case Outcome::kMasked: return "masked";
      case Outcome::kSilentDataCorruption: return "sdc";
      case Outcome::kDetected: return "detected";
    }
    return "?";
}

std::vector<FaultSpec>
generate_faults(const Design& design, const CampaignConfig& config)
{
    std::vector<int> eligible = config.target_regs;
    if (eligible.empty())
        for (size_t r = 0; r < design.num_registers(); ++r)
            if (design.reg((int)r).type->width > 0)
                eligible.push_back((int)r);
    if (eligible.empty())
        fatal("fault campaign on design '%s': no register is wide "
              "enough to inject into",
              design.name().c_str());
    if (config.cycles < 2)
        fatal("fault campaign needs a horizon of at least 2 cycles");

    std::mt19937_64 rng(config.seed);
    std::vector<FaultSpec> faults;
    faults.reserve((size_t)config.count);
    for (int i = 0; i < config.count; ++i) {
        FaultSpec spec;
        // Leave at least one cycle after the injection so the fault has
        // a chance to propagate (or be masked).
        spec.cycle = draw(rng, config.cycles - 1);
        spec.reg = eligible[(size_t)draw(rng, eligible.size())];
        spec.bit =
            (uint32_t)draw(rng, design.reg(spec.reg).type->width);
        spec.kind = config.stuck_at
                        ? (FaultKind)draw(rng, (uint64_t)kNumFaultKinds)
                        : FaultKind::kBitFlip;
        spec.stuck_cycles =
            spec.kind == FaultKind::kBitFlip
                ? 1
                : 1 + draw(rng, config.max_stuck_cycles);
        faults.push_back(spec);
    }
    return faults;
}

// -- TrialContext ------------------------------------------------------------

TrialContext::TrialContext(const Design& design,
                           const TargetFactory& factory)
    : design_(design), factory_(factory)
{
    // The per-worker golden build (and snapshot) is still setup work —
    // it just happens once per worker now instead of once per trial.
    obs::ProfScope setup_span("trial/setup");
    golden_ = factory_();
    golden_live_ = true;
    ++rebuilds_;
    // Same condition as batch.cpp's forkable: the engine's auxiliary
    // state must be serializable, and peripherals must either be
    // serializable too or absent entirely.
    bool checkpointable = dynamic_cast<sim::CheckpointableModel*>(
                              golden_.model.get()) != nullptr;
    bool env_ok = (golden_.save_env != nullptr) ==
                  (golden_.load_env != nullptr);
    warm_ = checkpointable && env_ok &&
            (golden_.save_env != nullptr || golden_.context == nullptr);
    // Pristine cycle-0 snapshot, captured before the golden ever steps.
    if (warm_)
        pristine_ = replay::Checkpoint::capture(design_, golden_);
}

void
TrialContext::restore(FaultTarget& target)
{
    KOIKA_CHECK(pristine_.restore_into(design_, target));
    ++restores_;
}

FaultTarget&
TrialContext::golden()
{
    if (!golden_live_ || (golden_dirty_ && !warm_)) {
        golden_ = factory_();
        golden_live_ = true;
        ++rebuilds_;
    } else if (golden_dirty_) {
        restore(golden_);
    }
    golden_dirty_ = true;
    return golden_;
}

FaultTarget
TrialContext::acquire()
{
    if (warm_ && !spares_.empty()) {
        FaultTarget target = std::move(spares_.back());
        spares_.pop_back();
        restore(target);
        return target;
    }
    ++rebuilds_;
    return factory_();
}

FaultTarget
TrialContext::acquire_unrestored()
{
    if (warm_ && !spares_.empty()) {
        FaultTarget target = std::move(spares_.back());
        spares_.pop_back();
        return target;
    }
    ++rebuilds_;
    return factory_();
}

void
TrialContext::release(FaultTarget&& target, bool healthy)
{
    if (warm_ && healthy)
        spares_.push_back(std::move(target));
    // Unhealthy (or cold) targets are destroyed here: an engine that
    // threw mid-cycle may hold torn internal state no restore can fix.
}

void
TrialContext::poison()
{
    golden_ = FaultTarget{};
    golden_live_ = false;
    golden_dirty_ = false;
    spares_.clear();
}

// -- Scalar trials -----------------------------------------------------------

InjectionRecord
run_injection(const Design& design, const TargetFactory& factory,
              const FaultSpec& spec, uint64_t cycles,
              obs::CoverageMap* coverage)
{
    TrialContext context(design, factory);
    return run_injection(design, context, spec, cycles, coverage);
}

namespace {

InjectionRecord
run_injection_in(const Design& design, TrialContext& ctx,
                 const FaultSpec& spec, uint64_t cycles,
                 obs::CoverageMap* coverage)
{
    KOIKA_CHECK(spec.reg >= 0 &&
                (size_t)spec.reg < design.num_registers());
    InjectionRecord rec;
    rec.spec = spec;
    rec.reg_name = design.reg(spec.reg).name;

    // Per-trial setup vs. run split: the ratio of these two phases is
    // what decides whether parallel campaigns are worth their fork
    // overhead. With a warm context, setup is two in-place restores
    // instead of two model constructions.
    obs::ProfScope setup_span("trial/setup");
    FaultTarget& golden = ctx.golden();
    FaultTarget faulted = ctx.acquire();

    // Coverage is harvested from the faulted run only: the golden copy
    // exercises nothing an ordinary simulation would not. The collector
    // is built after the faulted target reached pristine state (its
    // constructor snapshots registers for toggle detection).
    std::unique_ptr<obs::CoverageCollector> collector;
    if (coverage != nullptr)
        collector = std::make_unique<obs::CoverageCollector>(
            design, *faulted.model);
    auto* gstats =
        dynamic_cast<sim::RuleStatsModel*>(golden.model.get());
    auto* fstats =
        dynamic_cast<sim::RuleStatsModel*>(faulted.model.get());
    bool track = gstats != nullptr && fstats != nullptr;

    // Previous-cycle counter snapshots live in the context: same-size
    // assigns below reuse their capacity, so the detection loop stops
    // allocating four vectors per trial (let alone per cycle).
    std::vector<uint64_t>& gprev = ctx.gprev;
    std::vector<uint64_t>& fprev = ctx.fprev;
    std::vector<uint64_t>& gprev_r = ctx.gprev_r;
    std::vector<uint64_t>& fprev_r = ctx.fprev_r;
    if (track) {
        const auto& g0 = gstats->rule_abort_counts();
        const auto& f0 = fstats->rule_abort_counts();
        const auto& g0r = gstats->rule_abort_reason_counts();
        const auto& f0r = fstats->rule_abort_reason_counts();
        gprev.assign(g0.begin(), g0.end());
        fprev.assign(f0.begin(), f0.end());
        gprev_r.assign(g0r.begin(), g0r.end());
        fprev_r.assign(f0r.begin(), f0r.end());
    }

    setup_span.close();
    obs::ProfScope run_span("trial/run");

    bool injected = false;
    bool engine_fault = false;
    for (uint64_t c = 0; c < cycles; ++c) {
        golden.model->cycle();
        if (golden.stimulus)
            golden.stimulus(*golden.model, c);
        try {
            faulted.model->cycle();
            if (faulted.stimulus)
                faulted.stimulus(*faulted.model, c);
            if (collector != nullptr)
                collector->sample();
        } catch (const std::exception& e) {
            // The engine itself tripped over the corrupted state — the
            // strongest form of detection.
            rec.detected = true;
            rec.detect_cycle = c;
            rec.detect_detail = std::string("engine fault: ") + e.what();
            engine_fault = true;
            break;
        }

        // Detection: a rule aborted in the faulted run more often than
        // in the golden run during the same cycle — the design's guards
        // and port discipline noticing bad state.
        if (track) {
            // One getter call per counter family per cycle; the prev
            // refreshes are same-size assigns into context-owned
            // buffers, so this loop allocates nothing steady-state.
            const auto& g = gstats->rule_abort_counts();
            const auto& f = fstats->rule_abort_counts();
            const auto& gr = gstats->rule_abort_reason_counts();
            const auto& fr = fstats->rule_abort_reason_counts();
            if (injected && !rec.detected) {
                for (size_t r = 0; r < g.size() && r < f.size(); ++r) {
                    uint64_t gd = g[r] - gprev[r];
                    uint64_t fd = f[r] - fprev[r];
                    if (fd <= gd)
                        continue;
                    rec.detected = true;
                    rec.detect_cycle = c;
                    std::string reason = "abort";
                    for (int k = 0; k < sim::kNumAbortReasons; ++k) {
                        size_t idx =
                            r * (size_t)sim::kNumAbortReasons +
                            (size_t)k;
                        if (idx >= gr.size() || idx >= fr.size())
                            break;
                        if (fr[idx] - fprev_r[idx] >
                            gr[idx] - gprev_r[idx]) {
                            reason = std::string(sim::abort_reason_name(
                                         (sim::AbortReason)k)) +
                                     " abort";
                            break;
                        }
                    }
                    rec.detect_detail = "rule '" +
                                        gstats->rule_name((int)r) +
                                        "': excess " + reason;
                    break;
                }
            }
            gprev.assign(g.begin(), g.end());
            fprev.assign(f.begin(), f.end());
            gprev_r.assign(gr.begin(), gr.end());
            fprev_r.assign(fr.begin(), fr.end());
        }

        // Divergence scan before (re-)forcing, so it measures what the
        // fault propagated into, not the forced bit itself.
        if (injected && !rec.diverged) {
            int r = sim::first_difference(*faulted.model, *golden.model);
            if (r >= 0) {
                rec.diverged = true;
                rec.first_divergence_cycle = c;
                rec.first_divergence_reg = r;
            }
        }

        // Injection happens at the cycle boundary: after cycle
        // spec.cycle committed (and its stimulus ran), before the next
        // cycle starts. Stuck-at faults re-assert the forced bit for
        // stuck_cycles consecutive boundaries.
        if (c == spec.cycle) {
            inject(*faulted.model, spec);
            injected = true;
        } else if (injected && spec.kind != FaultKind::kBitFlip &&
                   c > spec.cycle &&
                   c < spec.cycle + spec.stuck_cycles) {
            inject(*faulted.model, spec);
        }
    }

    if (!engine_fault) {
        int r = sim::first_difference(*faulted.model, *golden.model);
        rec.final_state_matches = r < 0;
        if (r >= 0 && !rec.diverged) {
            rec.diverged = true;
            rec.first_divergence_cycle = cycles;
            rec.first_divergence_reg = r;
        }
    }

    if (rec.detected)
        rec.outcome = Outcome::kDetected;
    else if (!rec.final_state_matches)
        rec.outcome = Outcome::kSilentDataCorruption;
    else
        rec.outcome = Outcome::kMasked;
    if (collector != nullptr)
        *coverage = collector->take("");

    // An engine-faulted model may hold torn internal state; only
    // cleanly-finished targets go back to the spare pool for reuse.
    ctx.release(std::move(faulted), !engine_fault);
    return rec;
}

} // namespace

InjectionRecord
run_injection(const Design& design, TrialContext& context,
              const FaultSpec& spec, uint64_t cycles,
              obs::CoverageMap* coverage)
{
    try {
        return run_injection_in(design, context, spec, cycles, coverage);
    } catch (...) {
        // An exception that escapes the trial (engine faults are caught
        // inside; this is a harness/setup failure) may have left the
        // context's cached targets mid-cycle — drop them all so the
        // next trial rebuilds from the factory.
        context.poison();
        throw;
    }
}

namespace {

/** Per-pool-worker trial state: one warm TrialContext per worker, built
 *  lazily on the worker's own thread and destroyed when the pool batch
 *  ends (harness::WorkerContext lifetime contract). */
struct TrialWorkerContext final : harness::WorkerContext
{
    TrialWorkerContext(const Design& design, const TargetFactory& factory)
        : trial(design, factory)
    {
    }

    TrialContext trial;
};

harness::ContextFactory
trial_context_factory(const Design& design, const TargetFactory& factory)
{
    return [&design,
            &factory](int) -> std::unique_ptr<harness::WorkerContext> {
        return std::make_unique<TrialWorkerContext>(design, factory);
    };
}

} // namespace

bool
run_injection_range(const Design& design, const TargetFactory& factory,
                    const std::vector<FaultSpec>& faults, size_t first,
                    size_t count, uint64_t cycles, int jobs, int batch,
                    InjectionRecord* records, obs::CoverageMap* coverage,
                    const std::function<void(uint64_t, uint64_t)>& before_item)
{
    // One grouped pool loop for every (jobs, batch): a group of one is
    // a scalar trial, a larger group one lockstep batch. ThreadPool(1)
    // runs inline on the calling thread, so jobs=1 needs no fast path.
    std::atomic<bool> interrupted{false};
    auto run_group = [&](uint64_t k, uint64_t n,
                         harness::WorkerContext* ctx) {
        // Shutdown is polled per pool item, so a signal stops the slice
        // at the next trial (or batch) boundary.
        if (shutdown_requested()) {
            interrupted.store(true);
            return;
        }
        if (before_item)
            before_item(k, n);
        TrialContext& trial = static_cast<TrialWorkerContext*>(ctx)->trial;
        obs::CoverageMap* cov = coverage ? &coverage[k] : nullptr;
        if (n == 1)
            records[k] = run_injection(design, trial, faults[first + k],
                                       cycles, cov);
        else
            run_injection_batch(design, trial, &faults[first + k],
                                (size_t)n, cycles, &records[k], cov);
    };
    harness::parallel_for_groups_ctx((uint64_t)count,
                                     (uint64_t)std::max(batch, 1), jobs,
                                     trial_context_factory(design, factory),
                                     run_group);
    return !interrupted.load();
}

CampaignReport
run_campaign(const Design& design, const TargetFactory& factory,
             const CampaignConfig& config)
{
    CampaignReport report;
    report.design = design.name();
    report.config = config;

    // The entire fault list is drawn from the campaign seed before any
    // injection runs, so sharding the (independent) injections across
    // workers cannot change what gets injected; writing each record
    // into its own slot keeps the report order identical to a serial
    // run. Outcome tallying happens after the join, in list order.
    obs::ProfScope gen_span("campaign/generate-faults");
    std::vector<FaultSpec> faults = generate_faults(design, config);
    gen_span.close();
    report.injections.resize(faults.size());
    if (config.collect_coverage) {
        report.coverage = obs::CoverageMap::for_design(design);
        report.has_coverage = true;
    }

    // Resume a checkpointed campaign: the completed prefix of records
    // (and its merged coverage) comes straight from the progress file,
    // and only the remaining injections actually run. Coverage merge
    // is associative addition, so prefix-from-file + suffix-run equals
    // an uninterrupted run byte for byte.
    size_t completed = 0;
    if (!config.checkpoint_file.empty())
        completed = load_progress(
            config.checkpoint_file, report.design, config,
            report.injections,
            config.collect_coverage ? &report.coverage : nullptr);
    report.resumed = completed;

    size_t chunk = config.checkpoint_file.empty()
                       ? faults.size()
                       : (size_t)std::max(config.checkpoint_every, 1);
    std::vector<obs::CoverageMap> shard_cov;
    if (config.collect_coverage)
        shard_cov.resize(faults.size());

    // Heartbeat: one monitor thread repaints a stderr status line about
    // once a second. It reads two atomics (started count, profiler
    // busy aggregate) and never touches campaign state, so the report
    // stays byte-identical with or without it.
    std::atomic<uint64_t> done{(uint64_t)completed};
    std::atomic<bool> stop_monitor{false};
    bool monitor_printed = false;
    std::thread monitor;
    if (config.progress) {
        uint64_t total = (uint64_t)faults.size();
        int jobs = harness::resolve_jobs(config.jobs);
        monitor = std::thread([&done, &stop_monitor, &monitor_printed,
                               total, jobs] {
            obs::Profiler& prof = obs::Profiler::instance();
            auto start = std::chrono::steady_clock::now();
            uint64_t first = done.load(std::memory_order_relaxed);
            double prev_busy = prof.busy_seconds();
            auto prev_t = start;
            while (!stop_monitor.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
                auto now = std::chrono::steady_clock::now();
                if (now - prev_t < std::chrono::milliseconds(900))
                    continue;
                double elapsed =
                    std::chrono::duration<double>(now - start).count();
                double interval =
                    std::chrono::duration<double>(now - prev_t).count();
                prev_t = now;
                uint64_t d = done.load(std::memory_order_relaxed);
                double rate =
                    elapsed > 0 ? (double)(d - first) / elapsed : 0;
                char line[160];
                int len = std::snprintf(
                    line, sizeof line,
                    "\rfault campaign: %llu/%llu injections",
                    (unsigned long long)d, (unsigned long long)total);
                if (rate > 0) {
                    len += std::snprintf(
                        line + len, sizeof line - (size_t)len,
                        "  %.1f/s  ETA %.0fs", rate,
                        (double)(total - d) / rate);
                }
                if (prof.enabled() && jobs > 0 && interval > 0) {
                    double busy = prof.busy_seconds();
                    double util = (busy - prev_busy) /
                                  (interval * (double)jobs);
                    prev_busy = busy;
                    len += std::snprintf(
                        line + len, sizeof line - (size_t)len,
                        "  workers %.0f%% busy",
                        100.0 * std::min(1.0, std::max(0.0, util)));
                }
                std::fprintf(stderr, "%-79s", line);
                std::fflush(stderr);
                monitor_printed = true;
            }
        });
    }

    // The heartbeat counts trials as their pool item starts.
    auto count_started = [&done](uint64_t, uint64_t n) {
        done.fetch_add(n, std::memory_order_relaxed);
    };
    auto stop_heartbeat = [&] {
        if (!monitor.joinable())
            return;
        stop_monitor.store(true, std::memory_order_relaxed);
        monitor.join();
        if (monitor_printed)
            std::fprintf(stderr, "\n");
    };

    try {
        while (completed < faults.size()) {
            // Graceful shutdown: stop at the chunk boundary — progress
            // up to here is already flushed to the checkpoint file, so
            // the campaign resumes exactly where it left off.
            if (shutdown_requested()) {
                report.interrupted = true;
                break;
            }
            size_t end = std::min(completed + chunk, faults.size());
            // Each pool worker carries one warm TrialContext for the
            // whole chunk: the golden/faulted pair is built (and, for
            // compiled engines, the cache probed) once per worker, and
            // every later trial restores the pristine cycle-0 snapshot
            // in place. Restore reproduces construction exactly, so the
            // records and coverage stay byte-identical to --jobs=1.
            if (!run_injection_range(
                    design, factory, faults, completed, end - completed,
                    config.cycles, config.jobs, config.batch,
                    &report.injections[completed],
                    config.collect_coverage ? &shard_cov[completed]
                                            : nullptr,
                    count_started)) {
                // Interrupted mid-chunk: the records past the stop are
                // default-initialized, so the chunk is neither folded
                // nor saved and a resume re-runs it whole.
                report.interrupted = true;
                break;
            }
            // Fold per-injection maps in fault-list order after the
            // join; merge() is commutative addition, so the database
            // matches a serial run byte for byte at any job count.
            if (config.collect_coverage) {
                obs::ProfScope merge_span("campaign/merge");
                for (size_t i = completed; i < end; ++i)
                    report.coverage.merge(shard_cov[i]);
            }
            completed = end;
            if (!config.checkpoint_file.empty()) {
                obs::ProfScope save_span("campaign/progress-save");
                save_progress(config.checkpoint_file, report.design,
                              config, report.injections, completed,
                              config.collect_coverage ? &report.coverage
                                                      : nullptr);
            }
        }
    } catch (...) {
        stop_heartbeat();
        throw;
    }
    stop_heartbeat();
    for (const InjectionRecord& rec : report.injections) {
        switch (rec.outcome) {
          case Outcome::kMasked: report.masked++; break;
          case Outcome::kSilentDataCorruption: report.sdc++; break;
          case Outcome::kDetected: report.detected++; break;
        }
    }
    return report;
}

obs::Json
CampaignReport::to_json() const
{
    obs::Json j = obs::Json::object();
    j["design"] = design;
    j["engine"] = engine;
    if (!config.label.empty())
        j["label"] = config.label;

    j["config"] = campaign_config_echo(config);

    obs::Json summary = obs::Json::object();
    summary["injections"] = (uint64_t)injections.size();
    summary["masked"] = masked;
    summary["sdc"] = sdc;
    summary["detected"] = detected;
    j["summary"] = std::move(summary);

    obs::Json list = obs::Json::array();
    for (size_t i = 0; i < injections.size(); ++i)
        list.push_back(injection_to_json(i, injections[i]));
    j["injections"] = std::move(list);
    return j;
}

std::string
CampaignReport::to_text() const
{
    std::ostringstream os;
    uint64_t total = (uint64_t)injections.size();
    os << "fault campaign: design " << design;
    if (!engine.empty())
        os << ", engine " << engine;
    os << ", seed " << config.seed << ", " << total << " injections, "
       << config.cycles << "-cycle horizon\n";
    auto line = [&](const char* name, uint64_t n) {
        double pct = total ? 100.0 * (double)n / (double)total : 0.0;
        char buf[96];
        std::snprintf(buf, sizeof buf, "  %-10s %6lu  (%5.1f%%)\n",
                      name, (unsigned long)n, pct);
        os << buf;
    };
    line("masked", masked);
    line("sdc", sdc);
    line("detected", detected);
    return os.str();
}

void
CampaignReport::export_to(obs::MetricsRegistry& registry,
                          const std::string& prefix) const
{
    registry.inc(prefix + "/injections", (uint64_t)injections.size());
    registry.inc(prefix + "/outcome/masked", masked);
    registry.inc(prefix + "/outcome/sdc", sdc);
    registry.inc(prefix + "/outcome/detected", detected);
    for (const InjectionRecord& r : injections)
        registry.inc(prefix + "/kind/" + fault_kind_name(r.spec.kind) +
                     "/" + outcome_name(r.outcome));
}

TargetFactory
closed_target(
    const std::function<std::unique_ptr<sim::Model>()>& make_model)
{
    return [make_model]() {
        FaultTarget t;
        t.model = make_model();
        return t;
    };
}

obs::MetricsRegistry
campaign_metrics(const CampaignReport& report)
{
    obs::MetricsRegistry metrics;
    report.export_to(metrics, "fault/" + report.design);
    return metrics;
}

obs::Json
campaign_report_json(const CampaignReport& report,
                     const obs::MetricsRegistry& metrics)
{
    obs::Json j = report.to_json();
    j["metrics"] = metrics.to_json();
    if (report.has_coverage)
        j["coverage"] = report.coverage.summary_json();
    return j;
}

} // namespace koika::fault
