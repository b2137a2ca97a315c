/**
 * @file
 * Batched (SIMD-across-trials) execution of fault injections.
 *
 * run_injection steps TWO models per trial — a golden reference and
 * the faulted copy — for the full horizon. Across a campaign every
 * golden run is identical (the factory is deterministic and the golden
 * copy never sees a fault), and every faulted run is identical to its
 * golden run UP TO the injection boundary. A batch exploits both
 * redundancies:
 *
 *   - one shared golden model advances once per cycle for all N lanes,
 *     and its per-cycle abort-count deltas and register snapshot are
 *     computed once and reused by every lane's detection/divergence
 *     scan;
 *   - each lane forks from the golden's live state at its injection
 *     boundary: one replay::Checkpoint captured from the golden and
 *     restored into the lane (registers, engine counters and coverage
 *     arrays, peripherals), plus the toggle accumulators through
 *     obs::CoverageCollector::save_state — so pre-injection cycles are
 *     never re-simulated;
 *   - lanes that finish early (the engine faulted on corrupted state)
 *     are masked out GPU-warp style and skipped for the rest of the
 *     batch.
 *
 * Scalar cost per trial is 2*C model-cycles. Batched cost is C/N for
 * the shared golden plus C - spec.cycle for the lane's post-injection
 * suffix (C/2 on average over a uniform fault list). That bound is not
 * yet a measured speedup: a bench_batch smoke-mode run (12 trials x
 * 150 cycles, 1-core host) recorded speedup_vs_scalar 1.04 batched
 * and 1.15 batched + jobs. Stepping, not forking, takes most of the
 * batch time: on a compiled rv32i campaign with coverage (400 trials,
 * --batch=8, 4-vCPU host) batch/step took 83-85% of it, batch/pack
 * 12-14% and batch/unpack 3%. The records and
 * coverage maps are byte-identical to run_injection's at any lane
 * count: the per-cycle order of events (advance, detection scan,
 * divergence scan, inject/re-force at the boundary) is exactly
 * run_injection's, the forked state is exactly the state the scalar
 * faulted run reaches at the same boundary, and the collector samples
 * at the same points.
 * Engines that are not checkpointable — or targets whose peripherals
 * cannot be serialized — fall back to running their lanes from cycle 0
 * against the shared golden: slower, still byte-identical.
 */
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "obs/prof.hpp"

namespace koika::fault {

namespace {

/** One trial instance advancing in lockstep with the shared golden. */
struct Lane
{
    FaultSpec spec;
    InjectionRecord rec;

    /** Live once the lane has its own model (fallback lanes from cycle
     *  0, forked lanes from their injection boundary). */
    FaultTarget target;
    bool live = false;
    /** Masked out (engine fault); skipped for the rest of the batch. */
    bool masked = false;
    /** Never instantiated: the fault never fires within the horizon,
     *  so the lane is the golden run by definition. */
    bool shadow = false;
    /** Runs from cycle 0 instead of forking at the boundary. */
    bool from_start = false;

    bool injected = false;
    bool engine_fault = false;

    sim::RuleStatsModel* stats = nullptr;
    std::unique_ptr<obs::CoverageCollector> collector;
    std::vector<uint64_t> fprev, fprev_r;
};

/** The batch body; callers wrap it to guarantee context poisoning on an
 *  escaped exception. */
void
run_injection_batch_in(const Design& design, TrialContext& ctx,
                       const FaultSpec* specs, size_t count,
                       uint64_t cycles, InjectionRecord* records,
                       obs::CoverageMap* coverage)
{
    // -- Pack: the shared golden plus the lanes that cannot fork ------------
    std::optional<obs::ProfScope> pack_span;
    pack_span.emplace("batch/pack");

    // The context's golden arrives in pristine cycle-0 state: freshly
    // built on the worker's first batch, restored in place afterwards.
    FaultTarget& golden = ctx.golden();
    auto* gstats = dynamic_cast<sim::RuleStatsModel*>(golden.model.get());
    // Forking needs the engine's auxiliary state (counters, coverage
    // arrays) and the peripherals' state to be serializable; a target
    // with live peripherals (context) but no env hooks cannot move
    // them, so its lanes run from cycle 0 instead. ctx.warm() is this
    // exact condition evaluated on the same factory's output.
    bool forkable = ctx.warm();

    // The golden's collector exists to seed forked lanes (its state at
    // any boundary is exactly what a faulted run's collector holds
    // there) and to stand in for never-injected shadow lanes. Sampling
    // it every cycle mirrors the scalar faulted run's sampling points.
    std::unique_ptr<obs::CoverageCollector> gcollector;
    if (coverage != nullptr)
        gcollector = std::make_unique<obs::CoverageCollector>(
            design, *golden.model);

    size_t nregs = design.num_registers();
    std::vector<Lane> lanes(count);
    for (size_t l = 0; l < count; ++l) {
        const FaultSpec& spec = specs[l];
        KOIKA_CHECK(spec.reg >= 0 &&
                    (size_t)spec.reg < design.num_registers());
        Lane& lane = lanes[l];
        lane.spec = spec;
        lane.rec.spec = spec;
        lane.rec.reg_name = design.reg(spec.reg).name;
        if (forkable && spec.cycle >= cycles) {
            lane.shadow = true;
        } else if (!forkable) {
            lane.from_start = true;
            lane.target = ctx.acquire();
            lane.live = true;
            lane.stats = dynamic_cast<sim::RuleStatsModel*>(
                lane.target.model.get());
            if (coverage != nullptr)
                lane.collector =
                    std::make_unique<obs::CoverageCollector>(
                        design, *lane.target.model);
            if (gstats != nullptr && lane.stats != nullptr) {
                lane.fprev = lane.stats->rule_abort_counts();
                lane.fprev_r = lane.stats->rule_abort_reason_counts();
            }
        }
    }
    pack_span.reset();

    // Fork one lane off the golden's live state at the current cycle
    // boundary. The copied state is byte-for-byte the state the scalar
    // faulted run holds at the same boundary: identical registers,
    // identical counters/coverage (identical fault-free history), and
    // identical peripherals.
    // Reassigned per fork rather than rebuilt: the previous snapshot's
    // buffers are freed only after the new ones exist, so the allocator
    // reuses them instead of trimming the heap and faulting it back in
    // on every fork (without it, batch/pack of a compiled rv32i
    // campaign with coverage took ~40% longer).
    replay::Checkpoint snapshot;
    auto fork_lane = [&](Lane& lane) {
        // No pristine restore: the golden's checkpoint and collector
        // state overwrite the spare's full state.
        lane.target = ctx.acquire_unrestored();
        lane.live = true;
        snapshot = replay::Checkpoint::capture(design, golden);
        KOIKA_CHECK(snapshot.restore_into(design, lane.target));
        if (coverage != nullptr) {
            // After the model restore: the collector's constructor
            // re-snapshots register state for toggle detection.
            lane.collector = std::make_unique<obs::CoverageCollector>(
                design, *lane.target.model);
            sim::StateWriter w;
            gcollector->save_state(w);
            std::string bytes = w.take();
            sim::StateReader r(bytes);
            lane.collector->load_state(r);
        }
        lane.stats = dynamic_cast<sim::RuleStatsModel*>(
            lane.target.model.get());
        if (gstats != nullptr && lane.stats != nullptr) {
            lane.fprev = lane.stats->rule_abort_counts();
            lane.fprev_r = lane.stats->rule_abort_reason_counts();
        }
    };

    // Per-cycle golden abort deltas, shared by every lane's scan.
    std::vector<uint64_t> gprev, gprev_r, gdelta, gdelta_r;
    if (gstats != nullptr) {
        gprev = gstats->rule_abort_counts();
        gprev_r = gstats->rule_abort_reason_counts();
        gdelta.assign(gprev.size(), 0);
        gdelta_r.assign(gprev_r.size(), 0);
    }
    std::vector<Bits> gregs(nregs);

    // -- Step: golden once per cycle, live lanes in lockstep ----------------
    for (uint64_t c = 0; c < cycles; ++c) {
        {
            obs::ProfScope step_span("batch/step");
            golden.model->cycle();
            if (golden.stimulus)
                golden.stimulus(*golden.model, c);
            if (gcollector != nullptr)
                gcollector->sample();
            if (gstats != nullptr) {
                const auto& g = gstats->rule_abort_counts();
                const auto& gr = gstats->rule_abort_reason_counts();
                for (size_t r = 0; r < g.size(); ++r)
                    gdelta[r] = g[r] - gprev[r];
                for (size_t i = 0; i < gr.size(); ++i)
                    gdelta_r[i] = gr[i] - gprev_r[i];
                gprev = g;
                gprev_r = gr;
            }

            // Snapshot the golden's registers once per cycle, only
            // when some lane's divergence scan (or injection boundary)
            // still needs them.
            bool need_regs = false;
            for (const Lane& lane : lanes)
                if (lane.live && !lane.masked && lane.injected &&
                    !lane.rec.diverged)
                    need_regs = true;
            if (need_regs)
                for (size_t r = 0; r < nregs; ++r)
                    gregs[r] = golden.model->get_reg((int)r);

            for (Lane& lane : lanes) {
                if (!lane.live || lane.masked)
                    continue;
                try {
                    lane.target.model->cycle();
                    if (lane.target.stimulus)
                        lane.target.stimulus(*lane.target.model, c);
                    if (lane.collector != nullptr)
                        lane.collector->sample();
                } catch (const std::exception& e) {
                    // The engine itself tripped over the corrupted
                    // state — the strongest form of detection. Mask
                    // the lane out for the rest of the batch.
                    lane.rec.detected = true;
                    lane.rec.detect_cycle = c;
                    lane.rec.detect_detail =
                        std::string("engine fault: ") + e.what();
                    lane.engine_fault = true;
                    lane.masked = true;
                    continue;
                }

                // Detection: a rule aborted more often than in the
                // golden run during the same cycle (run_injection's
                // scan, against the shared golden deltas).
                bool track = gstats != nullptr && lane.stats != nullptr;
                if (track && lane.injected && !lane.rec.detected) {
                    const auto& f = lane.stats->rule_abort_counts();
                    for (size_t r = 0;
                         r < gdelta.size() && r < f.size(); ++r) {
                        uint64_t gd = gdelta[r];
                        uint64_t fd = f[r] - lane.fprev[r];
                        if (fd <= gd)
                            continue;
                        lane.rec.detected = true;
                        lane.rec.detect_cycle = c;
                        std::string reason = "abort";
                        const auto& fr =
                            lane.stats->rule_abort_reason_counts();
                        for (int k = 0; k < sim::kNumAbortReasons;
                             ++k) {
                            size_t idx =
                                r * (size_t)sim::kNumAbortReasons +
                                (size_t)k;
                            if (idx >= gdelta_r.size() ||
                                idx >= fr.size())
                                break;
                            if (fr[idx] - lane.fprev_r[idx] >
                                gdelta_r[idx]) {
                                reason =
                                    std::string(sim::abort_reason_name(
                                        (sim::AbortReason)k)) +
                                    " abort";
                                break;
                            }
                        }
                        lane.rec.detect_detail =
                            "rule '" + gstats->rule_name((int)r) +
                            "': excess " + reason;
                        break;
                    }
                }
                if (track) {
                    lane.fprev = lane.stats->rule_abort_counts();
                    lane.fprev_r =
                        lane.stats->rule_abort_reason_counts();
                }

                // Divergence scan before (re-)forcing, so it measures
                // what the fault propagated into, not the forced bit.
                if (lane.injected && !lane.rec.diverged) {
                    for (size_t r = 0; r < nregs; ++r) {
                        if (lane.target.model->get_reg((int)r) !=
                            gregs[r]) {
                            lane.rec.diverged = true;
                            lane.rec.first_divergence_cycle = c;
                            lane.rec.first_divergence_reg = (int)r;
                            break;
                        }
                    }
                }
            }
        }

        // Injection boundary: after cycle c committed (and its
        // stimulus ran), before the next cycle starts. Forked lanes
        // come to life here; stuck-at faults re-assert their forced
        // bit for stuck_cycles consecutive boundaries.
        std::optional<obs::ProfScope> fork_span;
        for (Lane& lane : lanes) {
            if (lane.shadow || lane.masked)
                continue;
            if (c == lane.spec.cycle) {
                if (!lane.live) {
                    fork_span.emplace("batch/pack");
                    fork_lane(lane);
                    fork_span.reset();
                }
                inject(*lane.target.model, lane.spec);
                lane.injected = true;
            } else if (lane.injected &&
                       lane.spec.kind != FaultKind::kBitFlip &&
                       c > lane.spec.cycle &&
                       c < lane.spec.cycle + lane.spec.stuck_cycles) {
                inject(*lane.target.model, lane.spec);
            }
        }
    }

    // -- Unpack: per-trial classification and coverage ----------------------
    obs::ProfScope unpack_span("batch/unpack");
    for (size_t r = 0; r < nregs; ++r)
        gregs[r] = golden.model->get_reg((int)r);
    for (size_t l = 0; l < count; ++l) {
        Lane& lane = lanes[l];
        InjectionRecord& rec = lane.rec;
        if (lane.shadow) {
            // The fault never fired: the lane IS the golden run.
            rec.final_state_matches = true;
        } else if (!lane.engine_fault) {
            rec.final_state_matches = true;
            for (size_t r = 0; r < nregs; ++r) {
                if (lane.target.model->get_reg((int)r) != gregs[r]) {
                    rec.final_state_matches = false;
                    if (!rec.diverged) {
                        rec.diverged = true;
                        rec.first_divergence_cycle = cycles;
                        rec.first_divergence_reg = (int)r;
                    }
                    break;
                }
            }
        }
        if (rec.detected)
            rec.outcome = Outcome::kDetected;
        else if (!rec.final_state_matches)
            rec.outcome = Outcome::kSilentDataCorruption;
        else
            rec.outcome = Outcome::kMasked;
        if (coverage != nullptr)
            coverage[l] = lane.shadow ? gcollector->take("")
                                      : lane.collector->take("");
        records[l] = rec;
        // Retire the lane's model into the context's spare pool so the
        // next batch (or scalar trial) on this worker reuses it via
        // restore. Engine-faulted lanes may hold torn state — destroy.
        if (lane.live)
            ctx.release(std::move(lane.target), !lane.engine_fault);
    }
}

} // namespace

void
run_injection_batch(const Design& design, TrialContext& context,
                    const FaultSpec* specs, size_t count,
                    uint64_t cycles, InjectionRecord* records,
                    obs::CoverageMap* coverage)
{
    try {
        run_injection_batch_in(design, context, specs, count, cycles,
                               records, coverage);
    } catch (...) {
        // Escaped exceptions (engine faults are handled per lane; this
        // is a harness/setup failure) may leave the golden or spares
        // mid-cycle — drop them so the next batch rebuilds cleanly.
        context.poison();
        throw;
    }
}

void
run_injection_batch(const Design& design, const TargetFactory& factory,
                    const FaultSpec* specs, size_t count,
                    uint64_t cycles, InjectionRecord* records,
                    obs::CoverageMap* coverage)
{
    TrialContext context(design, factory);
    run_injection_batch(design, context, specs, count, cycles, records,
                        coverage);
}

} // namespace koika::fault
