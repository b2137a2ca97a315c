/**
 * @file
 * verify-msi: the debugging loop on msi, case study 1's conflict-heavy
 * coherence design. No C++ compiler runs.
 *
 * Set-up builds msi and three engines: the T5 interpreter with coverage
 * on, the reference interpreter, and rtl::CycleSim over the optimized
 * lowered netlist. The closed loop alternates a lockstep stretch of the
 * three engines (harness::run_lockstep, T5 sampled by a coverage
 * collector) with one replay::bisect_divergence(T5, ref) under a seeded
 * one-bit perturbation. The rebuild re-creates all three engines for the
 * msi variant with case study 1's dropped-downgrade bug. Set-up and
 * rebuild take milliseconds and compile nothing, so both are repeated
 * once per epoch of lockstep stretches (see kEpoch). Host time goes to
 * the sim tier's commit/rollback machinery, the interp reference, rtl,
 * replay checkpoints and obs coverage.
 *
 * Oracles: every lockstep stretch reports ok. Every bisect verdict
 * equals an independent linear scan that compares the two engines after
 * every cycle. The bisector compares full state only at its stride
 * points (then searches inside the first differing stride), so a
 * divergence that washes out before the next stride point is reported as
 * "no divergence"; the scan's expected verdict encodes exactly that.
 * A checkpoint of the T5 model restored into a fresh one reproduces its
 * state, and the rebuilt engines agree in a lockstep stretch.
 *
 * Self-test corruptions (--corrupt): "lockstep" flips a bit of ref before
 * a stretch, "bisect" moves one verdict, "checkpoint" flips a bit of the
 * restored model, "rebuild" flips a bit of the rebuilt ref.
 */
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "designs/designs.hpp"
#include "designs/msi.hpp"
#include "designs/targets.hpp"
#include "harness/lockstep.hpp"
#include "obs/coverage.hpp"
#include "replay/bisect.hpp"
#include "replay/checkpoint.hpp"
#include "rtl/cyclesim.hpp"
#include "rtl/lower.hpp"
#include "rtl/optimize.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using koika::sim::Model;

/** Lockstep cycles per closed-loop operation. */
constexpr uint64_t kStretch = 200;
/** Bisect horizon and compare stride. */
constexpr uint64_t kHorizon = 256;
constexpr uint64_t kStride = 16;
/** Perturbations per pass: a third wash out before a stride point
 *  (about the share a uniform draw gives), the rest diverge. */
constexpr size_t kWashedOut = 35;
constexpr size_t kDiverging = 70;
/**
 * Lockstep stretches per epoch. Every epoch starts from freshly built
 * engines, so stretch j of every epoch is the same input, and the
 * builds, timed, are the set-up and rebuild samples: spread over the
 * run, they see the host's speed as it varies over seconds.
 */
constexpr uint64_t kEpoch = 10;
/** Checkpoint primitive repetitions in the traced run. */
constexpr int kCkptReps = 50;

struct Perturbation
{
    uint64_t cycle = 0;
    int reg = 0;
    uint32_t bit = 0;
};

/** Flip the bit after cycle `p.cycle` commits (a pure function of the
 *  committed count, so replays reproduce it). */
void
perturb(const Perturbation& p, Model& m, uint64_t committed)
{
    if (committed == p.cycle) {
        koika::Bits v = m.get_reg(p.reg);
        m.set_reg(p.reg, v.with_bit(p.bit, !v.bit(p.bit)));
    }
}

struct Verdict
{
    bool diverged = false;
    uint64_t cycle = 0;
    int reg = -1;
};

/** The oracle: T5 and ref stepped together, compared after every cycle. */
Verdict
linear_scan(const koika::Design& design, const Perturbation& p)
{
    auto a = koika::designs::make_model(design, "T5");
    auto b = koika::designs::make_model(design, "ref");
    Verdict first;
    for (uint64_t done = 1; done <= kHorizon; ++done) {
        a->cycle();
        b->cycle();
        perturb(p, *b, done);
        int reg = -1;
        for (size_t r = 0; r < design.num_registers() && reg < 0; ++r)
            if (a->get_reg((int)r) != b->get_reg((int)r))
                reg = (int)r;
        if (reg >= 0 && !first.diverged)
            first = Verdict{true, done, reg};
        if (done % kStride == 0 || done == kHorizon) {
            if (reg >= 0)
                return first;
            if (first.diverged)
                return Verdict{};
        }
    }
    return Verdict{};
}

/** A perturbation and the verdict the linear scan expects for it. */
struct Input
{
    Perturbation p;
    Verdict want;
};

/**
 * Seeded perturbations, with register and bit uniform and cycles
 * stratified over the horizon within each class (washed out or
 * diverging). A bisect that sees no divergence scans the whole horizon,
 * so a fixed class mix keeps the latency median from hinging on how
 * many of a seed's flips happen to wash out. The expected verdicts come
 * from the linear scan, before the clock starts.
 */
std::vector<Input>
make_inputs(const koika::Design& design, uint64_t seed)
{
    const std::vector<koika::Bits> regs = design.initial_state();
    Rng rng(seed);
    std::vector<Input> out;
    for (bool diverging : {false, true}) {
        size_t n = diverging ? kDiverging : kWashedOut;
        for (uint64_t slot = 0; slot < n; ++slot) {
            Input in;
            do {
                uint64_t lo = 1 + slot * (kHorizon - 1) / n;
                uint64_t hi = 1 + (slot + 1) * (kHorizon - 1) / n;
                in.p.cycle = lo + rng.below(hi - lo);
                do {
                    in.p.reg = (int)rng.below(regs.size());
                } while (regs[(size_t)in.p.reg].width() == 0);
                in.p.bit =
                    (uint32_t)rng.below(regs[(size_t)in.p.reg].width());
                in.want = linear_scan(design, in.p);
            } while (in.want.diverged != diverging);
            out.push_back(in);
        }
    }
    for (size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[rng.below(i)]);
    return out;
}

/** An msi variant, its three lockstep engines, and how long the build
 *  took: in all, and in the design, lowering and optimization steps. */
struct Engines
{
    std::unique_ptr<koika::Design> design;
    std::unique_ptr<Model> t5, ref;
    std::unique_ptr<koika::rtl::CycleSim> rtl;
    std::unique_ptr<koika::obs::CoverageCollector> coverage;
    double total_s = 0, design_s = 0, lower_s = 0, optimize_s = 0;
};

Engines
build(const koika::designs::MsiConfig& config, Result& res)
{
    const uint64_t t0 = now_ns();
    Engines e;
    e.design = koika::designs::build_msi(config);
    e.design_s = seconds_since(t0);
    const koika::Design& design = *e.design;
    e.t5 = koika::designs::make_model(design, "T5");
    dynamic_cast<koika::sim::CoverageModel&>(*e.t5).enable_coverage();
    e.coverage = std::make_unique<koika::obs::CoverageCollector>(design, *e.t5);
    e.ref = koika::designs::make_model(design, "ref");
    uint64_t t1 = now_ns();
    koika::rtl::Netlist lowered = koika::rtl::lower(design);
    e.lower_s = seconds_since(t1);
    t1 = now_ns();
    koika::rtl::Netlist optimized = koika::rtl::optimize(lowered);
    e.optimize_s = seconds_since(t1);
    res.layers["rtl.nodes_lowered"] = (double)lowered.num_nodes();
    res.layers["rtl.nodes_optimized"] = (double)optimized.num_nodes();
    e.rtl = std::make_unique<koika::rtl::CycleSim>(std::move(optimized));
    e.total_s = seconds_since(t0);
    return e;
}

/** The build times of one msi variant over a run. */
struct BuildTimes
{
    std::vector<double> total, design, lower, optimize;
};

/** Replace `e` by a fresh build of `config` and record its times. */
void
renew(Engines& e, const koika::designs::MsiConfig& config, Result& res,
      BuildTimes& times)
{
    Engines fresh = build(config, res);
    times.total.push_back(fresh.total_s);
    times.design.push_back(fresh.design_s);
    times.lower.push_back(fresh.lower_s);
    times.optimize.push_back(fresh.optimize_s);
    // The previous build dies whole, its engines before their design
    // (assigning over `e` would free the design first).
    std::swap(e, fresh);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

void
run_verify_msi(const Options& opt, Result& res)
{
    // -- Set-up: design name to three ready engines. --------------------
    const koika::designs::MsiConfig buggy{.bug_silent_drop = true};
    BuildTimes setup_times, rebuild_times;
    Engines eng, rebuilt;
    renew(eng, {}, res, setup_times);
    const std::unique_ptr<koika::Design>& design = eng.design;
    const std::vector<Input> inputs = make_inputs(*design, opt.seed);

    auto subject = [&](const char* engine) {
        return [&design, engine] {
            koika::replay::Subject s;
            s.model = koika::designs::make_model(*design, engine);
            return s;
        };
    };

    // -- Closed loop: lockstep stretch, bisect, lockstep stretch, ... ---
    double checkpoints = 0, replayed = 0, compares = 0;
    double stretches = 0, t5_s = 0, ref_s = 0, rtl_s = 0, sample_s = 0,
           lockstep_s = 0;
    Result scratch;
    measure(opt, res, 2 * inputs.size(), [&](uint64_t i) {
        const uint64_t stretch = i / 2;
        if (i % 2 == 0 && stretch > 0 && stretch % kEpoch == 0) {
            Untraced builds;
            renew(eng, {}, res, setup_times);
        }
        // Half an epoch later, so that a rebuild, like a set-up, follows
        // a bisect rather than another build.
        if (i % 2 == 0 && stretch % kEpoch == kEpoch / 2) {
            Untraced builds;
            renew(rebuilt, buggy, scratch, rebuild_times);
        }
        ProfScope root(i % 2 == 0 ? "perfbench:stretch" : "perfbench:bisect");
        const bool traced = tracing();
        if (i % 2 == 0) {
            std::unique_ptr<TimedModel> t5, ref, rtl;
            std::vector<Model*> models{eng.t5.get(), eng.ref.get(),
                                       eng.rtl.get()};
            if (traced) {
                t5 = std::make_unique<TimedModel>(*eng.t5, "sim", "harness");
                ref = std::make_unique<TimedModel>(*eng.ref, "interp",
                                                   "harness");
                rtl = std::make_unique<TimedModel>(*eng.rtl, "rtl", "harness");
                models = {t5.get(), ref.get(), rtl.get()};
            }
            uint64_t sample_ns = 0;
            auto sample = [&](Model& m, uint64_t) {
                if (&m != models[0])
                    return;
                uint64_t s0 = traced ? now_ns() : 0;
                eng.coverage->sample();
                if (traced) {
                    uint64_t dt = now_ns() - s0;
                    sample_ns += dt;
                    LayerTimes::get().leaf("obs", "harness", dt);
                }
            };
            if (opt.corrupt == "lockstep" && i == 2)
                flip_state_bit(*eng.ref);
            uint64_t t0 = now_ns();
            koika::harness::LockstepResult r;
            {
                ProfScope s("harness:run_lockstep");
                r = koika::harness::run_lockstep(*design, models, kStretch,
                                                 sample);
            }
            const double secs = seconds_since(t0);
            root.close();
            res.check(r.ok, "lockstep stretch " + std::to_string(i / 2) +
                                ": " + r.detail);
            if (traced) {
                stretches += 1;
                lockstep_s += secs;
                t5_s += (double)t5->cycle_ns() * 1e-9;
                ref_s += (double)ref->cycle_ns() * 1e-9;
                rtl_s += (double)rtl->cycle_ns() * 1e-9;
                sample_s += (double)sample_ns * 1e-9;
            }
            return OpTime{(double)kStretch / 1e3, secs, -1,
                          (int64_t)(stretch % kEpoch)};
        }

        const size_t k = (i / 2) % inputs.size();
        const Perturbation p = inputs[k].p;
        koika::replay::BisectConfig cfg;
        cfg.horizon = kHorizon;
        cfg.stride = kStride;
        cfg.perturb_b = [p](Model& m, uint64_t committed) {
            perturb(p, m, committed);
        };
        uint64_t t0 = now_ns();
        koika::replay::DivergenceReport rep;
        {
            ProfScope s("replay:bisect_divergence");
            rep = koika::replay::bisect_divergence(*design, subject("T5"),
                                                   subject("ref"), cfg);
        }
        const double secs = seconds_since(t0);
        root.close();
        const Verdict& want = inputs[k].want;
        if (opt.corrupt == "bisect" && i == 3) {
            rep.diverged = true;
            rep.cycle += 1;
        }
        res.check(rep.diverged == want.diverged &&
                      (!want.diverged ||
                       (rep.cycle == want.cycle && rep.reg == want.reg)),
                  "bisect " + std::to_string(k) + ": verdict differs from "
                  "the linear scan");
        if (i < 2 * inputs.size()) {
            checkpoints += (double)rep.checkpoints;
            replayed += (double)rep.replayed_cycles;
            compares += (double)rep.state_compares;
        }
        // Every bisect run counts. A run repeats each perturbation only a
        // few times, too few for the fastest of them to settle, whereas
        // each stretch position repeats some twenty times.
        return OpTime{0, 0, secs};
    });

    // -- Checkpoint primitives on the T5 model, timed when traced. -------
    {
        using koika::replay::Checkpoint;
        const int reps = opt.trace ? kCkptReps : 1;
        uint64_t t0 = now_ns();
        Checkpoint ck;
        for (int r = 0; r < reps; ++r) {
            ProfScope s("replay:capture");
            ck = Checkpoint::capture(*design, *eng.t5);
        }
        const double capture_s = seconds_since(t0) / reps;
        auto fresh = koika::designs::make_model(*design, "T5");
        t0 = now_ns();
        for (int r = 0; r < reps; ++r) {
            ProfScope s("replay:restore_into");
            ck.restore_into(*design, *fresh);
        }
        const double restore_s = seconds_since(t0) / reps;
        if (opt.trace) {
            res.layers["replay.capture_s"] = capture_s;
            res.layers["replay.restore_s"] = restore_s;
            res.layers["replay.ckpt_kb"] =
                (double)ck.serialize().size() / 1024;
        }
        if (opt.corrupt == "checkpoint")
            flip_state_bit(*fresh);
        res.check(fresh->snapshot() == eng.t5->snapshot(),
                  "checkpoint restore does not reproduce the T5 state");
    }

    // -- Rebuild: the buggy msi variant, all three engines again. -------
    renew(rebuilt, buggy, scratch, rebuild_times);
    res.setup_s = median(setup_times.total);
    res.rebuild_s = median(rebuild_times.total);
    res.layers["koika.build_s"] = median(setup_times.design);
    res.layers["rtl.lower_s"] = median(setup_times.lower);
    res.layers["rtl.optimize_s"] = median(setup_times.optimize);
    {
        if (opt.corrupt == "rebuild")
            flip_state_bit(*rebuilt.ref);
        auto r = koika::harness::run_lockstep(
            *rebuilt.design,
            {rebuilt.t5.get(), rebuilt.ref.get(), rebuilt.rtl.get()},
            kStretch);
        res.check(r.ok, "rebuilt engines disagree: " + r.detail);
    }

    res.layers["replay.checkpoints"] = checkpoints;
    res.layers["replay.replayed_cycles"] = replayed;
    res.layers["replay.state_compares"] = compares;
    if (stretches > 0) {
        res.layers["sim.t5_cycle_s"] = t5_s / stretches;
        res.layers["interp.ref_cycle_s"] = ref_s / stretches;
        res.layers["rtl.cyclesim_cycle_s"] = rtl_s / stretches;
        res.layers["obs.coverage_sample_s"] = sample_s / stretches;
        res.layers["harness.compare_s"] =
            (lockstep_s - t5_s - ref_s - rtl_s - sample_s) / stretches;
    }
}

} // namespace perfbench
