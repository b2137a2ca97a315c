// Batched fault-injection tests (src/fault/batch.cpp): lane-masking
// edge cases and the byte-identity contract. Every record and coverage
// map a batch produces must match what the scalar run_injection path
// produces for the same specs — at any lane count, any job count,
// whether lanes fork from the shared golden or fall back to running
// from cycle 0, and whether they fault out mid-batch.

#include <gtest/gtest.h>

#include <stdexcept>

#include "designs/designs.hpp"
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

TargetFactory
tier_factory(const Design& d)
{
    return closed_target([&d]() {
        return sim::make_engine(d, sim::Tier::kT5StaticAnalysis);
    });
}

/** Same engine, but the stimulus asserts on corrupted state: it throws
 *  once x's top bit is set, which only the faulted runs ever do.
 *  Mimics a peripheral tripping on bad state (= "engine fault"). */
TargetFactory
asserting_factory(const Design& d)
{
    return [&d]() {
        FaultTarget t;
        t.model = sim::make_engine(d, sim::Tier::kT5StaticAnalysis);
        t.stimulus = [](sim::Model& m, uint64_t) {
            if (m.get_reg(0).bit(7))
                throw std::runtime_error("peripheral assertion: x MSB");
        };
        return t;
    };
}

/** A target the batch engine cannot fork: it carries live context with
 *  no save_env/load_env, so lanes must re-run from cycle 0. */
TargetFactory
unforkable_factory(const Design& d)
{
    return [&d]() {
        FaultTarget t;
        t.model = sim::make_engine(d, sim::Tier::kT5StaticAnalysis);
        t.context = std::make_shared<int>(0);
        return t;
    };
}

/** Records from the scalar reference path, one run_injection per spec. */
std::vector<InjectionRecord>
scalar_records(const Design& d, const TargetFactory& factory,
               const std::vector<FaultSpec>& specs, uint64_t cycles,
               std::vector<obs::CoverageMap>* coverage = nullptr)
{
    std::vector<InjectionRecord> out;
    if (coverage != nullptr)
        coverage->resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        out.push_back(run_injection(
            d, factory, specs[i], cycles,
            coverage != nullptr ? &(*coverage)[i] : nullptr));
    return out;
}

/** The byte-identity check: serialized records must match slot by slot. */
void
expect_identical(const std::vector<InjectionRecord>& scalar,
                 const std::vector<InjectionRecord>& batched)
{
    ASSERT_EQ(scalar.size(), batched.size());
    for (size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(injection_to_json(i, scalar[i]).dump(2),
                  injection_to_json(i, batched[i]).dump(2))
            << "record " << i;
}

} // namespace

TEST(FaultBatch, LaneDivergingOnCycleZeroMatchesScalar)
{
    // Injection boundary at cycle 0: the lane forks before a single
    // cycle of shared-golden prefix exists and diverges immediately.
    auto d = counter_design();
    auto factory = tier_factory(*d);
    std::vector<FaultSpec> specs;
    for (uint32_t bit = 0; bit < 4; ++bit)
        specs.push_back({.cycle = 0, .reg = 0, .bit = bit,
                         .kind = FaultKind::kBitFlip});
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 40,
                        batched.data());
    expect_identical(scalar_records(*d, factory, specs, 40), batched);
    for (const InjectionRecord& rec : batched)
        EXPECT_EQ(rec.first_divergence_cycle, 1u);
}

TEST(FaultBatch, InjectionPastHorizonIsMaskedShadowLane)
{
    // A spec whose injection boundary never arrives: the lane IS the
    // golden run (never instantiated), classified masked with a
    // matching final state — same as the scalar path.
    auto d = counter_design();
    auto factory = tier_factory(*d);
    std::vector<FaultSpec> specs = {
        {.cycle = 100, .reg = 0, .bit = 2, .kind = FaultKind::kBitFlip},
        {.cycle = 5, .reg = 0, .bit = 2, .kind = FaultKind::kBitFlip},
    };
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 50,
                        batched.data());
    expect_identical(scalar_records(*d, factory, specs, 50), batched);
    EXPECT_EQ(batched[0].outcome, Outcome::kMasked);
    EXPECT_TRUE(batched[0].final_state_matches);
}

TEST(FaultBatch, AllLanesFinishingEarlyMatchesScalar)
{
    // Every lane trips the asserting stimulus within a few cycles of
    // its injection and is masked out of the batch; the remaining
    // cycles advance only the golden. Records (detected, with the
    // engine-fault detail) must still match the scalar path.
    auto d = counter_design();
    auto factory = asserting_factory(*d);
    std::vector<FaultSpec> specs;
    for (uint64_t c = 2; c <= 5; ++c)
        specs.push_back({.cycle = c, .reg = 0, .bit = 7,
                         .kind = FaultKind::kBitFlip});
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 60,
                        batched.data());
    expect_identical(scalar_records(*d, factory, specs, 60), batched);
    for (const InjectionRecord& rec : batched) {
        EXPECT_EQ(rec.outcome, Outcome::kDetected);
        EXPECT_NE(rec.detect_detail.find("engine fault"),
                  std::string::npos);
    }
}

TEST(FaultBatch, UnforkableTargetFallsBackByteIdentical)
{
    // Live context without save_env/load_env: lanes cannot fork from
    // the golden and re-run from cycle 0 — slower, same bytes.
    auto d = counter_design();
    auto factory = unforkable_factory(*d);
    std::vector<FaultSpec> specs = {
        {.cycle = 3, .reg = 0, .bit = 1, .kind = FaultKind::kBitFlip},
        {.cycle = 7, .reg = 0, .bit = 4, .kind = FaultKind::kStuckAt1,
         .stuck_cycles = 5},
        {.cycle = 12, .reg = 0, .bit = 0, .kind = FaultKind::kStuckAt0,
         .stuck_cycles = 3},
    };
    std::vector<InjectionRecord> batched(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 40,
                        batched.data());
    expect_identical(scalar_records(*d, factory, specs, 40), batched);
}

TEST(FaultBatch, CampaignCountNotDivisibleByLanes)
{
    // 7 injections at batch=4: a full batch plus a ragged tail of 3.
    // The report must not betray the lane count.
    auto d = designs::build_design("collatz");
    auto factory = tier_factory(*d);
    CampaignConfig config;
    config.seed = 77;
    config.count = 7;
    config.cycles = 200;
    CampaignReport scalar = run_campaign(*d, factory, config);
    config.batch = 4;
    CampaignReport batched = run_campaign(*d, factory, config);
    scalar.engine = batched.engine = "T5";
    EXPECT_EQ(scalar.to_json().dump(2), batched.to_json().dump(2));
}

TEST(FaultBatch, CampaignCoverageByteIdentity)
{
    // The per-trial coverage maps unpacked from the lanes must merge
    // to the same database bytes as the scalar campaign's.
    auto d = designs::build_design("collatz");
    auto factory = tier_factory(*d);
    CampaignConfig config;
    config.seed = 31;
    config.count = 10;
    config.cycles = 150;
    config.collect_coverage = true;
    CampaignReport scalar = run_campaign(*d, factory, config);
    config.batch = 3;
    CampaignReport batched = run_campaign(*d, factory, config);
    scalar.engine = batched.engine = "T5";
    EXPECT_EQ(scalar.to_json().dump(2), batched.to_json().dump(2));
    ASSERT_TRUE(scalar.has_coverage);
    ASSERT_TRUE(batched.has_coverage);
    EXPECT_EQ(scalar.coverage.to_json().dump(2),
              batched.coverage.to_json().dump(2));
}

TEST(FaultBatch, BatchComposesWithJobs)
{
    // Each pool worker drives one whole lockstep batch; the report is
    // byte-identical at any (batch, jobs) combination.
    auto d = designs::build_design("collatz");
    auto factory = tier_factory(*d);
    CampaignConfig config;
    config.seed = 42;
    config.count = 18;
    config.cycles = 200;
    config.collect_coverage = true;
    CampaignReport scalar = run_campaign(*d, factory, config);
    config.batch = 2;
    config.jobs = 4;
    CampaignReport batched = run_campaign(*d, factory, config);
    scalar.engine = batched.engine = "T5";
    EXPECT_EQ(scalar.to_json().dump(2), batched.to_json().dump(2));
    EXPECT_EQ(scalar.coverage.to_json().dump(2),
              batched.coverage.to_json().dump(2));
}

TEST(FaultBatch, PerTrialCoverageMapsMatchScalar)
{
    // Per-trial maps (not just the merged database) are part of the
    // contract: run_injection_range hands them back per slot and the
    // campaign merges them itself.
    auto d = counter_design();
    auto factory = tier_factory(*d);
    std::vector<FaultSpec> specs = {
        {.cycle = 2, .reg = 0, .bit = 0, .kind = FaultKind::kBitFlip},
        {.cycle = 9, .reg = 0, .bit = 3, .kind = FaultKind::kBitFlip},
        {.cycle = 80, .reg = 0, .bit = 5, .kind = FaultKind::kBitFlip},
    };
    std::vector<obs::CoverageMap> want_cov;
    std::vector<InjectionRecord> want =
        scalar_records(*d, factory, specs, 50, &want_cov);
    std::vector<InjectionRecord> batched(specs.size());
    std::vector<obs::CoverageMap> got_cov(specs.size());
    run_injection_batch(*d, factory, specs.data(), specs.size(), 50,
                        batched.data(), got_cov.data());
    expect_identical(want, batched);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(want_cov[i].to_json().dump(2),
                  got_cov[i].to_json().dump(2))
            << "coverage map " << i;
}
