// Fault-injection campaign tests: outcome classification on designs
// engineered to mask, propagate, or detect corrupted state; determinism
// of seeded campaigns (the byte-identical-report contract); and the
// metrics-registry export.

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>

#include "base/signal.hpp"
#include "designs/designs.hpp"
#include "designs/targets.hpp"
#include "fault/fault.hpp"
#include "koika/builder.hpp"
#include "koika/typecheck.hpp"
#include "sim/tiers.hpp"

using namespace koika;
using namespace koika::fault;

namespace {

/** x += 1 every cycle, unguarded: a flip drifts the count forever. */
std::unique_ptr<Design>
counter_design()
{
    auto d = std::make_unique<Design>("counter");
    Builder b(*d);
    int x = b.reg("x", 8, 0);
    d->add_rule("inc", b.write0(x, b.add(b.read0(x), b.k(8, 1))));
    d->schedule("inc");
    typecheck(*d);
    return d;
}

/** x = 5 every cycle: any corruption of x is overwritten next cycle. */
std::unique_ptr<Design>
refresh_design()
{
    auto d = std::make_unique<Design>("refresh");
    Builder b(*d);
    int x = b.reg("x", 8, 0);
    d->add_rule("set", b.write0(x, b.k(8, 5)));
    d->schedule("set");
    typecheck(*d);
    return d;
}

/** inc guarded by x < 100: corrupting x past the bound trips the
 *  guard in cycles where the golden run still commits. */
std::unique_ptr<Design>
guarded_design()
{
    auto d = std::make_unique<Design>("guarded");
    Builder b(*d);
    int x = b.reg("x", 8, 0);
    d->add_rule("inc",
                b.seq({b.guard(b.ltu(b.read0(x), b.k(8, 100))),
                       b.write0(x, b.add(b.read0(x), b.k(8, 1)))}));
    d->schedule("inc");
    typecheck(*d);
    return d;
}

TargetFactory
tier_factory(const Design& d,
             sim::Tier tier = sim::Tier::kT5StaticAnalysis)
{
    return closed_target(
        [&d, tier]() { return sim::make_engine(d, tier); });
}

} // namespace

TEST(FaultInjection, BitFlipOnFreeCounterIsSdc)
{
    auto d = counter_design();
    FaultSpec spec{.cycle = 5, .reg = 0, .bit = 3,
                   .kind = FaultKind::kBitFlip};
    InjectionRecord rec =
        run_injection(*d, tier_factory(*d), spec, 50);
    EXPECT_EQ(rec.outcome, Outcome::kSilentDataCorruption);
    EXPECT_TRUE(rec.diverged);
    EXPECT_FALSE(rec.detected);
    EXPECT_FALSE(rec.final_state_matches);
    // The flip lands after cycle 5; the next scan (after cycle 6) sees
    // the drifted counter.
    EXPECT_EQ(rec.first_divergence_cycle, 6u);
    EXPECT_EQ(rec.first_divergence_reg, 0);
    EXPECT_EQ(rec.reg_name, "x");
}

TEST(FaultInjection, OverwrittenFlipIsMasked)
{
    auto d = refresh_design();
    FaultSpec spec{.cycle = 5, .reg = 0, .bit = 1,
                   .kind = FaultKind::kBitFlip};
    InjectionRecord rec =
        run_injection(*d, tier_factory(*d), spec, 50);
    EXPECT_EQ(rec.outcome, Outcome::kMasked);
    // The corrupted value never survives into a scanned cycle.
    EXPECT_FALSE(rec.diverged);
    EXPECT_FALSE(rec.detected);
    EXPECT_TRUE(rec.final_state_matches);
}

TEST(FaultInjection, StuckAtCurrentValueIsMasked)
{
    // x is 5 (0b101) every cycle; forcing bit 0 to 1 changes nothing.
    auto d = refresh_design();
    FaultSpec spec{.cycle = 5, .reg = 0, .bit = 0,
                   .kind = FaultKind::kStuckAt1, .stuck_cycles = 4};
    InjectionRecord rec =
        run_injection(*d, tier_factory(*d), spec, 50);
    EXPECT_EQ(rec.outcome, Outcome::kMasked);
    EXPECT_FALSE(rec.diverged);
}

TEST(FaultInjection, GuardDetectsCorruptedState)
{
    // Flip x's MSB at cycle 10: x jumps to ~139, the guard (x < 100)
    // fails while the golden run still commits — excess guard abort.
    auto d = guarded_design();
    FaultSpec spec{.cycle = 10, .reg = 0, .bit = 7,
                   .kind = FaultKind::kBitFlip};
    InjectionRecord rec =
        run_injection(*d, tier_factory(*d), spec, 60);
    EXPECT_EQ(rec.outcome, Outcome::kDetected);
    EXPECT_TRUE(rec.detected);
    EXPECT_EQ(rec.detect_cycle, 11u);
    EXPECT_NE(rec.detect_detail.find("inc"), std::string::npos);
    EXPECT_NE(rec.detect_detail.find("guard"), std::string::npos);
}

TEST(FaultInjection, DetectionWorksOnEveryTier)
{
    auto d = guarded_design();
    FaultSpec spec{.cycle = 10, .reg = 0, .bit = 7,
                   .kind = FaultKind::kBitFlip};
    for (int t = 0; t < sim::kNumTiers; ++t) {
        InjectionRecord rec = run_injection(
            *d, tier_factory(*d, (sim::Tier)t), spec, 60);
        EXPECT_EQ(rec.outcome, Outcome::kDetected)
            << "tier " << sim::tier_name((sim::Tier)t);
    }
}

TEST(FaultCampaign, GenerateFaultsIsSeededAndBounded)
{
    auto d = designs::build_design("collatz");
    CampaignConfig config;
    config.seed = 123;
    config.count = 40;
    config.cycles = 200;
    auto a = generate_faults(*d, config);
    auto b = generate_faults(*d, config);
    ASSERT_EQ(a.size(), 40u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycle, b[i].cycle);
        EXPECT_EQ(a[i].reg, b[i].reg);
        EXPECT_EQ(a[i].bit, b[i].bit);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_LT(a[i].cycle, config.cycles - 1);
        EXPECT_LT(a[i].bit,
                  d->reg(a[i].reg).type->width);
    }
    config.seed = 124;
    auto c = generate_faults(*d, config);
    bool any_different = false;
    for (size_t i = 0; i < a.size(); ++i)
        any_different |= a[i].cycle != c[i].cycle ||
                         a[i].reg != c[i].reg || a[i].bit != c[i].bit;
    EXPECT_TRUE(any_different);
}

TEST(FaultCampaign, TargetRegsRestrictInjection)
{
    auto d = designs::build_design("collatz");
    CampaignConfig config;
    config.seed = 5;
    config.count = 25;
    config.cycles = 100;
    config.target_regs = {1};
    for (const FaultSpec& spec : generate_faults(*d, config))
        EXPECT_EQ(spec.reg, 1);
}

TEST(FaultCampaign, ReportIsByteIdenticalAcrossRuns)
{
    auto d = designs::build_design("collatz");
    CampaignConfig config;
    config.seed = 99;
    config.count = 15;
    config.cycles = 200;
    auto factory = tier_factory(*d, sim::Tier::kT4MergedData);
    CampaignReport r1 = run_campaign(*d, factory, config);
    CampaignReport r2 = run_campaign(*d, factory, config);
    r1.engine = r2.engine = "T4";
    EXPECT_EQ(r1.to_json().dump(2), r2.to_json().dump(2));
}

TEST(FaultCampaign, EveryInjectionIsClassified)
{
    auto d = designs::build_design("collatz");
    CampaignConfig config;
    config.seed = 99;
    config.count = 15;
    config.cycles = 200;
    CampaignReport report =
        run_campaign(*d, tier_factory(*d), config);
    ASSERT_EQ(report.injections.size(), 15u);
    EXPECT_EQ(report.masked + report.sdc + report.detected, 15u);
    for (const InjectionRecord& rec : report.injections)
        EXPECT_TRUE(rec.outcome == Outcome::kMasked ||
                    rec.outcome == Outcome::kSilentDataCorruption ||
                    rec.outcome == Outcome::kDetected);
}

TEST(FaultCampaign, CountsExportToMetricsRegistry)
{
    auto d = designs::build_design("collatz");
    CampaignConfig config;
    config.seed = 42;
    config.count = 10;
    config.cycles = 150;
    CampaignReport report =
        run_campaign(*d, tier_factory(*d), config);

    obs::MetricsRegistry registry;
    report.export_to(registry, "fault/collatz");
    EXPECT_EQ(registry.counter("fault/collatz/injections"), 10u);
    EXPECT_EQ(registry.counter("fault/collatz/outcome/masked") +
                  registry.counter("fault/collatz/outcome/sdc") +
                  registry.counter("fault/collatz/outcome/detected"),
              10u);
}

TEST(FaultCampaign, ReportJsonHasTheDocumentedSchema)
{
    auto d = designs::build_design("fir");
    CampaignConfig config;
    config.seed = 3;
    config.count = 5;
    config.cycles = 80;
    CampaignReport report =
        run_campaign(*d, tier_factory(*d), config);
    report.engine = "T5";
    obs::Json j = report.to_json();
    ASSERT_TRUE(j.is_object());
    EXPECT_EQ(j.find("design")->as_string(), "fir");
    EXPECT_EQ(j.find("engine")->as_string(), "T5");
    const obs::Json* summary = j.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->find("injections")->as_u64(), 5u);
    const obs::Json* injections = j.find("injections");
    ASSERT_NE(injections, nullptr);
    ASSERT_TRUE(injections->is_array());
}

TEST(FaultCampaign, ShardedReportIsByteIdenticalToSerial)
{
    auto d = designs::build_design("collatz");
    CampaignConfig config;
    config.seed = 2026;
    config.count = 30;
    config.cycles = 250;
    auto factory = tier_factory(*d);

    config.jobs = 1;
    CampaignReport serial = run_campaign(*d, factory, config);
    config.jobs = 8;
    CampaignReport sharded = run_campaign(*d, factory, config);
    serial.engine = sharded.engine = "T5";

    // The whole contract: the report must not betray the job count.
    EXPECT_EQ(serial.to_json().dump(2), sharded.to_json().dump(2));

    obs::MetricsRegistry ms, mp;
    serial.export_to(ms, "fault/collatz");
    sharded.export_to(mp, "fault/collatz");
    EXPECT_EQ(ms.to_json().dump(2), mp.to_json().dump(2));
}

TEST(FaultCampaign, JobsZeroResolvesToHardwareAndStaysDeterministic)
{
    auto d = designs::build_design("collatz");
    CampaignConfig config;
    config.seed = 11;
    config.count = 12;
    config.cycles = 150;
    auto factory = tier_factory(*d);

    CampaignReport serial = run_campaign(*d, factory, config);
    config.jobs = 0; // one worker per hardware thread
    CampaignReport sharded = run_campaign(*d, factory, config);
    serial.engine = sharded.engine = "T5";
    EXPECT_EQ(serial.to_json().dump(2), sharded.to_json().dump(2));
}

TEST(FaultCampaign, ShutdownMidCampaignInterruptsWithoutCheckpoint)
{
    // Without checkpoint_file the whole campaign is one chunk, so only
    // the per-trial shutdown poll can stop it. The stimulus raises the
    // flag during trial 2, as a SIGINT arriving mid-campaign would.
    auto d = counter_design();
    auto runs = std::make_shared<std::atomic<int>>(0);
    TargetFactory factory = [&d, runs]() {
        FaultTarget t;
        t.model = sim::make_engine(*d, sim::Tier::kT5StaticAnalysis);
        t.stimulus = [runs](sim::Model&, uint64_t c) {
            // Each trial starts two runs: golden and faulted.
            if (c == 0 && ++*runs == 2 * 2 + 1)
                request_shutdown(SIGINT);
        };
        return t;
    };
    CampaignConfig config;
    config.count = 8;
    config.cycles = 20;
    CampaignReport report = run_campaign(*d, factory, config);
    bool stopped = shutdown_requested();
    request_shutdown(0);

    EXPECT_TRUE(stopped);
    EXPECT_TRUE(report.interrupted);
    // Trial 2 finishes; trials 3..7 never start.
    EXPECT_EQ(runs->load(), 3 * 2);
}

// -- TrialContext: the warm-worker restore path (ROADMAP item 2 fix).
// The contract under test: a trial run against a reused, checkpoint-
// restored context produces the same bytes — records AND coverage —
// as a trial that reconstructs both targets through the factory.

namespace {

/** Fault specs exercising divergence, masking, and the past-horizon
 *  shadow lane, drawn deterministically from the campaign sampler. */
std::vector<FaultSpec>
sampled_specs(const Design& d, int count, uint64_t cycles)
{
    CampaignConfig config;
    config.seed = 97;
    config.count = count;
    config.cycles = cycles;
    return generate_faults(d, config);
}

/**
 * Forwards the bare Model interface and nothing else: no
 * RuleStatsModel, no CoverageModel, no CheckpointableModel. A
 * TrialContext built over it must come up cold and fall back to
 * factory rebuilds — byte-identically.
 */
class OpaqueModel final : public sim::Model
{
  public:
    explicit OpaqueModel(std::unique_ptr<sim::Model> inner)
        : inner_(std::move(inner))
    {
    }

    void cycle() override { inner_->cycle(); }
    Bits get_reg(int reg) const override { return inner_->get_reg(reg); }
    void set_reg(int reg, const Bits& value) override
    {
        inner_->set_reg(reg, value);
    }
    uint64_t cycles_run() const override { return inner_->cycles_run(); }
    size_t num_regs() const override { return inner_->num_regs(); }

  private:
    std::unique_ptr<sim::Model> inner_;
};

} // namespace

TEST(TrialContext, RestoreMatchesReconstructOnEveryInProcessEngine)
{
    // ref + T0..T5, on a registry design with real rule structure.
    auto d = designs::build_design("collatz");
    std::vector<FaultSpec> specs = sampled_specs(*d, 8, 120);
    std::vector<std::string> engines = {"ref"};
    for (int t = 0; t < sim::kNumTiers; ++t)
        engines.push_back("T" + std::to_string(t));
    for (const std::string& engine : engines) {
        TargetFactory factory = designs::make_target_factory(*d, engine);
        TrialContext ctx(*d, factory);
        EXPECT_TRUE(ctx.warm()) << engine;
        for (size_t i = 0; i < specs.size(); ++i) {
            obs::CoverageMap want_cov, got_cov;
            InjectionRecord want =
                run_injection(*d, factory, specs[i], 120, &want_cov);
            InjectionRecord got =
                run_injection(*d, ctx, specs[i], 120, &got_cov);
            EXPECT_EQ(injection_to_json(i, want).dump(2),
                      injection_to_json(i, got).dump(2))
                << engine << " trial " << i;
            EXPECT_EQ(want_cov.to_json().dump(2),
                      got_cov.to_json().dump(2))
                << engine << " trial " << i << " coverage";
        }
        // The whole point: the golden/faulted pair is built once per
        // context; every later trial is restores only.
        EXPECT_EQ(ctx.rebuilds(), 2u) << engine;
        EXPECT_GT(ctx.restores(), 0u) << engine;
    }
}

TEST(TrialContext, RestoreMatchesReconstructOnCompiledEngine)
{
    // The dlopened generated model is checkpointable too; the warm
    // path must hold for it (and the model build is per-thread, so
    // this test also exercises reuse of the dlopened library).
    auto d = designs::build_design("collatz");
    std::vector<FaultSpec> specs = sampled_specs(*d, 4, 100);
    TargetFactory factory = designs::make_target_factory(*d, "compiled");
    TrialContext ctx(*d, factory);
    EXPECT_TRUE(ctx.warm());
    for (size_t i = 0; i < specs.size(); ++i) {
        obs::CoverageMap want_cov, got_cov;
        InjectionRecord want =
            run_injection(*d, factory, specs[i], 100, &want_cov);
        InjectionRecord got =
            run_injection(*d, ctx, specs[i], 100, &got_cov);
        EXPECT_EQ(injection_to_json(i, want).dump(2),
                  injection_to_json(i, got).dump(2))
            << "trial " << i;
        EXPECT_EQ(want_cov.to_json().dump(2), got_cov.to_json().dump(2))
            << "trial " << i << " coverage";
    }
    EXPECT_EQ(ctx.rebuilds(), 2u);
    EXPECT_GT(ctx.restores(), 0u);
}

TEST(TrialContext, NonCheckpointableTargetFallsBackToRebuilds)
{
    auto d = designs::build_design("collatz");
    TargetFactory factory = closed_target([&d]() {
        return std::make_unique<OpaqueModel>(
            sim::make_engine(*d, sim::Tier::kT5StaticAnalysis));
    });
    std::vector<FaultSpec> specs = sampled_specs(*d, 5, 100);
    TrialContext ctx(*d, factory);
    EXPECT_FALSE(ctx.warm());
    for (size_t i = 0; i < specs.size(); ++i) {
        InjectionRecord want = run_injection(*d, factory, specs[i], 100);
        InjectionRecord got = run_injection(*d, ctx, specs[i], 100);
        EXPECT_EQ(injection_to_json(i, want).dump(2),
                  injection_to_json(i, got).dump(2))
            << "trial " << i;
    }
    // Cold context: no restores ever, a rebuild per golden handout.
    EXPECT_EQ(ctx.restores(), 0u);
    EXPECT_GT(ctx.rebuilds(), specs.size());
}

TEST(TrialContext, CampaignWithEnvCheckpointsMatchesFactoryPath)
{
    // rv32i targets carry save_env/load_env peripherals; a warm context
    // must restore those too. The campaign runs the context path
    // internally — compare against a fresh serial baseline re-run.
    auto d = designs::build_design("rv32i");
    TargetFactory factory = designs::make_target_factory(*d, "T3");
    TrialContext ctx(*d, factory);
    EXPECT_TRUE(ctx.warm());

    CampaignConfig config;
    config.seed = 19;
    config.count = 6;
    config.cycles = 120;
    CampaignReport a = run_campaign(*d, factory, config);
    CampaignReport b = run_campaign(*d, factory, config);
    a.engine = b.engine = "T3";
    EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
}
