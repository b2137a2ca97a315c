/**
 * @file
 * fault-rv32i: fault-injection campaigns on rv32i's compiled engine.
 *
 * Set-up builds rv32i and its compiled target factory from an empty
 * cache (the first target pays the compile). The closed loop runs one
 * fault::run_campaign after another, each with a fault list drawn from
 * the workload seed (kPass of them, in turn), batch = 8 lanes, one pool
 * worker per thread, and coverage collection on. Fault count and horizon
 * are the repository's campaign defaults (fault::CampaignConfig: 100
 * faults, 1000 cycles), so every pool worker runs several batches per
 * campaign. Host time goes to the fault trial loop, batch
 * pack/step/unpack, warm trial-context restores and the harness pool;
 * codegen works only in set-up, the rebuild, and the per-worker library
 * load each campaign's fresh pool threads do.
 *
 * Oracles: each campaign's summary equals a recount of its records, and
 * one seeded record per campaign equals what the T5 interpreter gives
 * for the same fault run alone (scalar, one thread, untimed). The
 * rebuilt edited target must match T5 on the edited design and differ
 * from the unedited one.
 *
 * Self-test corruptions (--corrupt): "summary" changes one record's
 * outcome, "record" flips one record's detected flag (which the summary
 * does not count), "rebuild-t5" flips a bit of the rebuilt target's
 * state at cycle 10, "rebuild-edit" rebuilds the unedited design.
 */
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "designs/designs.hpp"
#include "designs/rv32.hpp"
#include "designs/targets.hpp"
#include "fault/fault.hpp"
#include "obs/prof.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using koika::fault::FaultTarget;
using koika::fault::TargetFactory;

constexpr int kBatch = 8;
/** The repository's default campaign shape. */
const koika::fault::CampaignConfig kDefaults;
/** Distinct campaigns, run in turn. Every run of a campaign counts: its
 *  latency varies from run to run with the scheduling of the pool
 *  threads, and the fastest runs spread from one benchmark run to the
 *  next no less than all runs do. Outcome counts are reported over the
 *  first pass. */
constexpr uint64_t kPass = 16;

uint64_t
campaign_seed(uint64_t seed, uint64_t i)
{
    return Rng(seed * 1000003 + i).next();
}

/** Do fresh targets of `a` and `b` hold the same registers after every
 *  one of `cycles` cycles? */
bool
same_trajectory(const TargetFactory& a, const TargetFactory& b,
                uint64_t cycles)
{
    FaultTarget ta = a(), tb = b();
    for (uint64_t c = 0; c < cycles; ++c) {
        for (FaultTarget* t : {&ta, &tb}) {
            t->model->cycle();
            if (t->stimulus)
                t->stimulus(*t->model, c);
        }
        if (ta.model->snapshot() != tb.model->snapshot())
            return false;
    }
    return true;
}

} // namespace

void
run_fault_rv32i(const Options& opt, Result& res)
{
    const koika::codegen::DlModelOptions dlopts = opt.dlopts("setup");

    // -- Set-up: design name to a factory whose targets are ready. ------
    std::unique_ptr<koika::Design> design;
    TargetFactory factory;
    {
        uint64_t t0 = now_ns();
        {
            ProfScope s("koika:build_design");
            design = koika::designs::build_design("rv32i");
        }
        count_codegen(res, "designs:first_target", [&] {
            factory = koika::designs::make_target_factory(
                *design, "compiled", dlopts);
            FaultTarget warm = factory();
        });
        res.setup_s = seconds_since(t0);
        res.layers["koika.build_s"] = prof_seconds("koika:build_design");
    }
    res.layers["codegen.emit_kb"] = emitted_bytes(dlopts.workdir) / 1024;

    // The campaign receives this wrapper, which counts target builds
    // (on pool threads) while tracing.
    std::atomic<uint64_t> builds{0}, build_ns{0};
    TargetFactory counted = [&] {
        if (!tracing())
            return factory();
        uint64_t t0 = now_ns();
        FaultTarget t = factory();
        builds.fetch_add(1, std::memory_order_relaxed);
        build_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
        return t;
    };
    TargetFactory t5 = koika::designs::make_target_factory(*design, "T5");

    // -- Closed loop: one campaign at a time. ---------------------------
    double masked = 0, sdc = 0, detected = 0;
    double traced_campaigns = 0, traced_wall = 0;
    measure(opt, res, kPass, [&](uint64_t i) {
        koika::fault::CampaignConfig cfg;
        cfg.seed = campaign_seed(opt.seed, i % kPass);
        cfg.jobs = opt.threads;
        cfg.batch = kBatch;
        cfg.collect_coverage = true;

        ProfScope root("perfbench:campaign");
        uint64_t t0 = now_ns();
        koika::fault::CampaignReport rep;
        {
            ProfScope s("fault:run_campaign");
            rep = koika::fault::run_campaign(*design, counted, cfg);
        }
        const double secs = seconds_since(t0);
        if (tracing()) {
            traced_campaigns += 1;
            traced_wall += secs;
        }
        root.close();
        Untraced oracle;

        const size_t j = (size_t)(cfg.seed % (uint64_t)cfg.count);
        if (i == 1 && rep.injections.size() > j) {
            auto& rec = rep.injections[j];
            if (opt.corrupt == "summary")
                rec.outcome = (koika::fault::Outcome)(((int)rec.outcome + 1) % 3);
            if (opt.corrupt == "record")
                rec.detected = !rec.detected;
        }
        std::string bad;
        uint64_t n[3] = {0, 0, 0};
        for (const auto& rec : rep.injections)
            ++n[(int)rec.outcome];
        if (rep.injections.size() != (size_t)cfg.count || !rep.has_coverage ||
            n[0] != rep.masked || n[1] != rep.sdc || n[2] != rep.detected)
            bad += " summary differs from a recount of its records;";
        if (rep.injections.size() > j) {
            const auto& got = rep.injections[j];
            auto want = koika::fault::run_injection(*design, t5, got.spec,
                                                    cfg.cycles);
            const koika::fault::FaultSpec spec =
                koika::fault::generate_faults(*design, cfg)[j];
            if (spec.cycle != got.spec.cycle || spec.reg != got.spec.reg ||
                spec.bit != got.spec.bit || spec.kind != got.spec.kind ||
                spec.stuck_cycles != got.spec.stuck_cycles ||
                koika::fault::injection_to_json(j, got).dump() !=
                    koika::fault::injection_to_json(j, want).dump())
                bad += " record differs from T5;";
        }
        res.check(bad.empty(), "campaign " + std::to_string(i) + ":" + bad);
        if (i < kPass) {
            masked += (double)rep.masked;
            sdc += (double)rep.sdc;
            detected += (double)rep.detected;
        }
        return OpTime{(double)cfg.count, secs, secs};
    });

    // -- Rebuild: one-rule edit, unedited build still cached. -----------
    std::unique_ptr<koika::Design> edited;
    TargetFactory rebuilt;
    {
        uint64_t t0 = now_ns();
        {
            ProfScope s("koika:build_edited");
            edited = koika::designs::build_rv32({.x0_bug = true});
        }
        const koika::Design& loaded =
            opt.corrupt == "rebuild-edit" ? *design : *edited;
        // A fresh scratch directory: the loader keeps one library per
        // (design name, options) per thread, and the edit keeps the name.
        count_codegen(res, "designs:first_edited_target", [&] {
            rebuilt = koika::designs::make_target_factory(
                loaded, "compiled", opt.dlopts("rebuild"));
            FaultTarget warm = rebuilt();
        });
        res.rebuild_s = seconds_since(t0);
    }
    {
        if (opt.corrupt == "rebuild-t5")
            rebuilt = [inner = rebuilt] {
                FaultTarget t = inner();
                t.stimulus = [stimulus = t.stimulus](koika::sim::Model& m,
                                                     uint64_t c) {
                    if (stimulus)
                        stimulus(m, c);
                    if (c == 10)
                        flip_state_bit(m);
                };
                return t;
            };
        TargetFactory edited_t5 =
            koika::designs::make_target_factory(*edited, "T5");
        std::string bad;
        if (!same_trajectory(rebuilt, edited_t5, kDefaults.cycles))
            bad += " differs from T5 on the edited design;";
        if (same_trajectory(rebuilt, factory, kDefaults.cycles))
            bad += " simulates the unedited design;";
        res.check(bad.empty(), "rebuilt target:" + bad);
    }

    res.layers["fault.masked"] = masked;
    res.layers["fault.sdc"] = sdc;
    res.layers["fault.detected"] = detected;
    if (traced_campaigns > 0) {
        const double c = traced_campaigns;
        res.layers["designs.target_builds"] = (double)builds.load() / c;
        res.layers["designs.target_build_s"] =
            (double)build_ns.load() * 1e-9 / c;
        res.layers["fault.trial_setup_s"] = prof_seconds("trial/setup") / c;
        res.layers["fault.trial_run_s"] = prof_seconds("trial/run") / c;
        res.layers["fault.merge_s"] = prof_seconds("campaign/merge") / c;
        double pack = prof_seconds("batch/pack");
        double step = prof_seconds("batch/step");
        double unpack = prof_seconds("batch/unpack");
        res.layers["fault.batch_pack_s"] = pack / c;
        res.layers["fault.batch_step_s"] = step / c;
        res.layers["fault.batch_unpack_s"] = unpack / c;
        res.layers["fault.pack_share"] =
            pack + step + unpack > 0 ? (pack + unpack) / (pack + step + unpack)
                                     : 0;
        double wait = 0;
        for (const auto& w :
             koika::obs::Profiler::instance().report().workers)
            if (w.name.rfind("worker-", 0) == 0)
                wait += w.wait_seconds;
        res.layers["harness.pool_wait_s"] = wait / c;
        res.layers["harness.pool_utilization"] =
            prof_seconds("pool/item") / (opt.threads * traced_wall);
    }
}

} // namespace perfbench
