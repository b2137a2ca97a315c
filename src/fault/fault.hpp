/**
 * @file
 * Deterministic fault-injection campaigns over any sim::Model.
 *
 * The lockstep harness proves that every engine computes the same state
 * every cycle; this module turns that machinery around and asks what the
 * *design* does when state itself misbehaves — the SEU / soft-error
 * resilience analysis that at-scale simulators run as a first-class
 * workload. A campaign draws a seeded, reproducible set of faults
 * (transient bit-flips and stuck-at-0/1 forces on architectural
 * registers), replays each one against a golden copy of the same model,
 * and classifies the outcome with the standard taxonomy:
 *
 *   - masked:   the corrupted state washed out; final state matches the
 *               golden run and no detection signal fired.
 *   - sdc:      silent data corruption — final state differs from the
 *               golden run and nothing noticed.
 *   - detected: a guard/abort fired that did not fire in the golden run
 *               at the same cycle (the design's own port discipline and
 *               guards acting as an error detector), or the engine
 *               itself faulted on the corrupted state.
 *
 * Everything is deterministic: the same seed and config produce a
 * byte-identical JSON report (no wall-clock data is recorded), so
 * campaign reports can be diffed across engines and commits.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "koika/design.hpp"
#include "obs/coverage.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "replay/checkpoint.hpp"
#include "sim/model.hpp"

namespace koika::fault {

enum class FaultKind : int {
    /** Flip one bit once (single-event upset). */
    kBitFlip = 0,
    /** Force one bit to 0 for a window of cycles. */
    kStuckAt0 = 1,
    /** Force one bit to 1 for a window of cycles. */
    kStuckAt1 = 2,
};

constexpr int kNumFaultKinds = 3;

const char* fault_kind_name(FaultKind kind);

enum class Outcome : int {
    kMasked = 0,
    kSilentDataCorruption = 1,
    kDetected = 2,
};

const char* outcome_name(Outcome outcome);

/** One fault to inject. */
struct FaultSpec
{
    /** Inject after this many cycles have committed (and after the
     *  cycle's stimulus ran), i.e. into the state cycle `cycle+1`
     *  starts from. */
    uint64_t cycle = 0;
    /** Register index in the design's order. */
    int reg = 0;
    /** Bit position within the register. */
    uint32_t bit = 0;
    FaultKind kind = FaultKind::kBitFlip;
    /** For stuck-at faults: number of consecutive cycle boundaries the
     *  bit stays forced (>= 1). Ignored for bit flips. */
    uint64_t stuck_cycles = 1;
};

/**
 * Apply `spec` to `model` at a cycle boundary: flip the bit (kBitFlip)
 * or force it to 0/1 (kStuckAt0/1). Stuck-at faults call this again on
 * each later boundary of their window. Shared by the scalar and batched
 * trial loops, so both corrupt state identically.
 */
void inject(sim::Model& model, const FaultSpec& spec);

/** What one injection did, fully attributable. */
struct InjectionRecord
{
    FaultSpec spec;
    /** Register name (denormalized so reports stand alone). */
    std::string reg_name;
    Outcome outcome = Outcome::kMasked;

    /** True when any register ever differed from the golden run. */
    bool diverged = false;
    uint64_t first_divergence_cycle = 0;
    int first_divergence_reg = -1;

    /** True when a detection signal fired (see header comment). */
    bool detected = false;
    uint64_t detect_cycle = 0;
    /** "rule 'writeback': 1 excess abort" or "engine fault: ...". */
    std::string detect_detail;

    /** True when the final states matched at the horizon. */
    bool final_state_matches = false;
};

/**
 * The system under test: the model, its stimulus and its peripherals,
 * defined once as replay::Subject (replay/checkpoint.hpp) so that fault
 * trials, bisect and cuttlec snapshot it through one path.
 */
using FaultTarget = replay::Subject;
using TargetFactory = replay::SubjectFactory;

/**
 * Reusable per-worker trial state: the fix for flat parallel scaling.
 * A campaign trial needs a golden and a faulted
 * target, and historically built BOTH from the factory for every
 * injection — so `trial/setup` grew with the trial count and jobs=hw
 * barely beat jobs=1. A TrialContext makes that a per-worker cost: it
 * builds the golden once, captures a pristine cycle-0
 * replay::Checkpoint of it (registers, engine counters, peripherals),
 * and every later trial *restores* that snapshot in place instead of
 * reconstructing.
 *
 * Warmth requires exactly what batched lane-forking requires (the
 * batch.cpp forkable condition): a checkpointable model and either
 * serializable peripherals or no peripherals at all. Anything else is
 * "cold" and transparently falls back to rebuilding through the
 * factory — same results, original cost.
 *
 * The restore contract is the checkpoint subsystem's: registers +
 * extra state + env restore is byte-identical to a fresh build, so
 * reports and coverage stay byte-identical to factory-per-trial runs
 * (enforced by the restore-vs-reconstruct ctest gates). Targets whose
 * engine faulted mid-trial are NEVER reused — release(…, healthy=false)
 * drops them, and poison() drops everything after an escaped exception.
 *
 * Not thread-safe: one TrialContext per pool worker
 * (harness::WorkerContext hooks), living exactly as long as one run()
 * batch.
 */
class TrialContext
{
  public:
    TrialContext(const Design& design, const TargetFactory& factory);

    TrialContext(const TrialContext&) = delete;
    TrialContext& operator=(const TrialContext&) = delete;

    /** Checkpoint-restore available (the batch forkable condition)? */
    bool warm() const { return warm_; }

    /**
     * The worker's golden target, in pristine cycle-0 state: restored
     * in place when warm and previously handed out, rebuilt from the
     * factory otherwise.
     */
    FaultTarget& golden();

    /** A pristine target the caller owns for one trial: a restored
     *  spare when warm, a fresh factory build otherwise. */
    FaultTarget acquire();

    /** Like acquire() but skips the restore — for callers that
     *  overwrite the full state anyway (batch lane forking). */
    FaultTarget acquire_unrestored();

    /**
     * Return a trial's target. Healthy targets become spares for the
     * next acquire (when warm); unhealthy ones — the engine threw on
     * corrupted state and may hold torn internals — are destroyed.
     */
    void release(FaultTarget&& target, bool healthy);

    /** Drop the golden and every spare (after an escaped exception);
     *  subsequent calls rebuild from the factory. */
    void poison();

    /** In-place restores performed (warm-path hits). */
    uint64_t restores() const { return restores_; }
    /** Factory invocations, the constructor's golden included. */
    uint64_t rebuilds() const { return rebuilds_; }

    /**
     * Preallocated previous-cycle counter snapshots for run_injection's
     * detection scan. Context-lifetime so the per-cycle refresh is a
     * same-size element copy, never an allocation (and a campaign's
     * trials stop allocating four vectors each).
     */
    std::vector<uint64_t> gprev, fprev, gprev_r, fprev_r;

  private:
    void restore(FaultTarget& target);

    const Design& design_;
    TargetFactory factory_;
    FaultTarget golden_;
    bool golden_live_ = false;
    /** Golden handed out since its last restore (state may have moved). */
    bool golden_dirty_ = false;
    bool warm_ = false;
    /** Pristine cycle-0 snapshot (valid when warm_). */
    replay::Checkpoint pristine_;
    /** Healthy retired targets awaiting restore-and-reuse. */
    std::vector<FaultTarget> spares_;
    uint64_t restores_ = 0;
    uint64_t rebuilds_ = 0;
};

struct CampaignConfig
{
    uint64_t seed = 1;
    /** Number of injections. */
    int count = 100;
    /** Simulation horizon per injection, in cycles. */
    uint64_t cycles = 1000;
    /** Registers eligible for injection; empty = all. */
    std::vector<int> target_regs;
    /** Also draw stuck-at faults (bit flips only when false). */
    bool stuck_at = true;
    /** Forcing window drawn for stuck-at faults: [1, max]. */
    uint64_t max_stuck_cycles = 8;
    /** Free-form label echoed into the report. */
    std::string label;
    /**
     * Worker threads for run_campaign: 1 = serial, 0 = one per
     * hardware thread. Deliberately NOT echoed into the JSON report:
     * the whole fault list is drawn from `seed` up front and each
     * injection is independent, so the report is byte-identical at any
     * job count (tested: `ctest -R cuttlec_fault_jobs`). The target
     * factory must tolerate concurrent calls when jobs != 1 (anything
     * built from a const Design qualifies).
     */
    int jobs = 1;
    /**
     * Trials per lockstep batch: 1 = scalar (run_injection per fault),
     * N > 1 packs N consecutive injections into one batch that shares
     * a single golden model and forks each faulted lane from the
     * golden's live state at its injection boundary
     * (run_injection_batch). Like `jobs`, deliberately NOT echoed into
     * the JSON report: per-trial records and the coverage database are
     * byte-identical at any lane count (tested: `ctest -L batch`).
     */
    int batch = 1;
    /**
     * Also accumulate a design-coverage database over the campaign's
     * faulted runs (fault campaigns double as coverage-amplifying
     * stimulus: forced bad state exercises guard/conflict paths a clean
     * run never reaches). Per-injection maps are folded in fault-list
     * order after the join, so the database — like the report — is
     * byte-identical at any job count.
     */
    bool collect_coverage = false;
    /**
     * Progress checkpoint for long campaigns: a JSON file
     * (cuttlesim-fault-ckpt-v1) rewritten atomically after each
     * completed chunk of injections. When the file already exists at
     * campaign start and echoes this exact config, the completed
     * prefix of records (and its merged coverage) is loaded instead of
     * re-run, and the campaign continues from there. Deliberately NOT
     * echoed into the report: a resumed campaign produces the same
     * bytes as an uninterrupted one.
     */
    std::string checkpoint_file;
    /** Injections per progress-save chunk (with checkpoint_file). */
    int checkpoint_every = 16;
    /**
     * Live heartbeat for long campaigns: a monitor thread rewrites one
     * stderr line (~1/s) with completed/total injections, trials/sec,
     * ETA, and — when the span profiler is enabled — worker busy
     * percentage. stderr only; the JSON report is unaffected, so the
     * byte-identity contracts above still hold.
     */
    bool progress = false;
};

struct CampaignReport
{
    std::string design;
    /** Engine the campaign ran on ("T5", "T4", ...). */
    std::string engine;
    CampaignConfig config;

    std::vector<InjectionRecord> injections;
    uint64_t masked = 0;
    uint64_t sdc = 0;
    uint64_t detected = 0;

    /** Merged coverage of all faulted runs (config.collect_coverage);
     *  unlabeled — the caller knows which engine ran the campaign and
     *  adds it via coverage.add_engine(). */
    bool has_coverage = false;
    obs::CoverageMap coverage;

    /** Injections loaded from config.checkpoint_file instead of run.
     *  Excluded from to_json (resume must not change the report). */
    uint64_t resumed = 0;

    /**
     * The campaign stopped early because a shutdown signal arrived
     * (base/signal.hpp): no trial or batch starts after the signal.
     * Chunks completed before it are flushed to config.checkpoint_file;
     * the interrupted chunk is not saved and the records from it on
     * may be default-initialized, so an interrupted
     * report must NOT be published as a final artifact — resume the
     * campaign (same flags) and the eventual report is byte-identical
     * to an uninterrupted run.
     */
    bool interrupted = false;

    /**
     * Deterministic report: config echo, per-injection records, and
     * summary counts. Contains no timestamps or wall-clock data, so two
     * runs with the same seed dump byte-identical JSON.
     */
    obs::Json to_json() const;

    /** Short human-readable summary table. */
    std::string to_text() const;

    /**
     * Export outcome counts under `prefix`:
     *   <prefix>/injections, <prefix>/outcome/<masked|sdc|detected>,
     *   <prefix>/kind/<bit_flip|stuck_at_0|stuck_at_1>/<outcome>.
     */
    void export_to(obs::MetricsRegistry& registry,
                   const std::string& prefix) const;
};

/**
 * Draw the campaign's fault list. Deterministic in (design, config):
 * injection cycles are uniform over [1, config.cycles - 1], registers
 * uniform over the eligible set, bits uniform over the register's
 * width. Zero-width registers are never targeted.
 */
std::vector<FaultSpec> generate_faults(const Design& design,
                                       const CampaignConfig& config);

/**
 * Run one injection: golden and faulted targets in lockstep to the
 * horizon, fault applied per `spec`, outcome classified. When
 * `coverage` is non-null it receives the faulted run's coverage map
 * (partial when the engine faulted mid-run), with no engine label.
 */
InjectionRecord run_injection(const Design& design,
                              const TargetFactory& factory,
                              const FaultSpec& spec, uint64_t cycles,
                              obs::CoverageMap* coverage = nullptr);

/**
 * run_injection against a reusable TrialContext: the golden is the
 * context's (restored to cycle 0), the faulted copy is a restored
 * spare when available, and both are returned to the context for the
 * next trial. Record and coverage bytes are identical to the factory
 * overload (the warm-trial contract); the factory overload is in fact
 * a transient-context wrapper around this one.
 */
InjectionRecord run_injection(const Design& design, TrialContext& context,
                              const FaultSpec& spec, uint64_t cycles,
                              obs::CoverageMap* coverage = nullptr);

/**
 * Run `count` injections as one lockstep batch (src/fault/batch.cpp).
 * One golden model is shared by all lanes (every golden run in a
 * campaign is identical); each faulted lane forks from the golden's
 * live state at its injection boundary when the engine supports it
 * (sim::CheckpointableModel plus serializable peripherals), so
 * pre-injection cycles are never re-simulated. Lanes whose engine
 * faults are masked out and skipped for the rest of the batch.
 *
 * `records` receives `count` InjectionRecords and — when `coverage` is
 * non-null — `coverage` receives `count` per-trial maps, all
 * byte-identical to what run_injection would have produced for the
 * same specs. Engines that cannot fork fall back to running their
 * lanes from cycle 0 against the shared golden (slower, still
 * byte-identical).
 */
void run_injection_batch(const Design& design,
                         const TargetFactory& factory,
                         const FaultSpec* specs, size_t count,
                         uint64_t cycles, InjectionRecord* records,
                         obs::CoverageMap* coverage = nullptr);

/**
 * run_injection_batch against a reusable TrialContext: the shared
 * golden is the context's (restored to cycle 0), lanes fork from
 * context spares, and healthy lanes are returned as spares for the
 * worker's next batch. The context's warm() IS the batch's forkable
 * condition, so a cold context degrades to the from-cycle-0 fallback
 * exactly as before. Bytes identical to the factory overload (which
 * wraps this one with a transient context).
 */
void run_injection_batch(const Design& design, TrialContext& context,
                         const FaultSpec* specs, size_t count,
                         uint64_t cycles, InjectionRecord* records,
                         obs::CoverageMap* coverage = nullptr);

/**
 * Run the slice faults[first, first + count) on `jobs` pool workers,
 * writing into records[0..count) (and coverage[0..count) when
 * non-null; both indexed relative to the slice). The slice is cut into
 * consecutive groups of max(batch, 1) faults, one pool item each: a
 * group of one runs the scalar run_injection, a larger group one
 * run_injection_batch, both against the worker's warm TrialContext.
 * This is THE campaign dispatch: run_campaign calls it per checkpoint
 * chunk.
 *
 * Returns false when a shutdown signal (base/signal.hpp) interrupted
 * the slice (it is polled before every pool item); records past the
 * interruption are default-initialized and must not be published.
 * `before_item` (may be empty) runs at the start of every pool item
 * with its [k, n) sub-slice (k relative to the slice start) — the hook
 * run_campaign's heartbeat uses.
 */
bool run_injection_range(
    const Design& design, const TargetFactory& factory,
    const std::vector<FaultSpec>& faults, size_t first, size_t count,
    uint64_t cycles, int jobs, int batch, InjectionRecord* records,
    obs::CoverageMap* coverage = nullptr,
    const std::function<void(uint64_t, uint64_t)>& before_item = {});

/**
 * Run a whole campaign: generate_faults, then run_injection_range per
 * checkpoint chunk (the whole list when config.checkpoint_file is
 * empty) with config.jobs and config.batch. Injections stay in
 * fault-list order and records and coverage land in per-fault slots,
 * so the report matches a serial run byte for byte at any (batch,
 * jobs). A shutdown signal stops the campaign at the next trial or
 * batch boundary and sets CampaignReport::interrupted.
 */
CampaignReport run_campaign(const Design& design,
                            const TargetFactory& factory,
                            const CampaignConfig& config);

/**
 * Convenience factory for closed designs (no stimulus): a tier-style
 * engine built by `make_model` each time.
 */
TargetFactory
closed_target(const std::function<std::unique_ptr<sim::Model>()>& make_model);

// -- Report-assembly helpers -------------------------------------------------

/** One injection record as it appears in reports and checkpoints
 *  (index = position in the fault list). */
obs::Json injection_to_json(size_t index, const InjectionRecord& rec);

/** The metrics registry a standalone campaign exports: outcome counts
 *  under "fault/<design>" (see CampaignReport::export_to). */
obs::MetricsRegistry campaign_metrics(const CampaignReport& report);

/**
 * The full fault-report JSON artifact cuttlec writes for
 * --fault-report=: report.to_json() plus the `metrics` block and — for
 * coverage-collecting campaigns — the coverage summary. Byte-identical
 * inputs produce byte-identical artifacts.
 */
obs::Json campaign_report_json(const CampaignReport& report,
                               const obs::MetricsRegistry& metrics);

} // namespace koika::fault
