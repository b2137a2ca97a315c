// Differential tests for the Cuttlesim engine tiers (§3.2-3.3).
//
// Each tier must be observationally identical to the reference
// interpreter: the same committed register values after every cycle and
// the same set of fired rules. We check hand-written semantic corner
// cases and sweep hundreds of random designs.

#include <gtest/gtest.h>

#include "harness/lockstep.hpp"
#include "harness/random_design.hpp"
#include "interp/reference_model.hpp"
#include "koika/builder.hpp"
#include "koika/typecheck.hpp"
#include "sim/tiers.hpp"

using namespace koika;
using namespace koika::sim;
using koika::harness::random_design;
using koika::harness::RandomDesignConfig;
using koika::harness::run_lockstep;

namespace {

const Tier kAllTiers[] = {Tier::kT0Naive,       Tier::kT1SplitSets,
                          Tier::kT2Accumulate,  Tier::kT3ResetOnFail,
                          Tier::kT4MergedData,  Tier::kT5StaticAnalysis};

/** Run every tier against the reference for `cycles` cycles. */
void
expect_all_tiers_match(const Design& d, uint64_t cycles)
{
    ReferenceModel ref(d);
    std::vector<std::unique_ptr<TierModel>> engines;
    std::vector<Model*> models = {&ref};
    for (Tier t : kAllTiers) {
        engines.push_back(make_engine(d, t));
        models.push_back(engines.back().get());
    }
    auto result = run_lockstep(d, models, cycles);
    EXPECT_TRUE(result.ok) << d.name() << ": " << result.detail;
}

} // namespace

class TierSemantics : public ::testing::TestWithParam<Tier>
{
  protected:
    std::unique_ptr<TierModel>
    engine(const Design& d)
    {
        return make_engine(d, GetParam());
    }
};

TEST_P(TierSemantics, CounterIncrements)
{
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    d.add_rule("inc", b.write0(x, b.add(b.read0(x), b.k(8, 1))));
    d.schedule("inc");
    typecheck(d);
    auto e = engine(d);
    for (int i = 1; i <= 5; ++i) {
        e->cycle();
        EXPECT_EQ(e->get_reg(x).to_u64(), (uint64_t)i);
    }
    EXPECT_EQ(e->rule_commit_counts()[0], 5u);
    EXPECT_EQ(e->rule_abort_counts()[0], 0u);
}

TEST_P(TierSemantics, GoldbergianContraption)
{
    // §3.2: the one pattern merged-data tiers give up on is wr1-then-rd1
    // within a rule; this design uses the *allowed* orderings and must
    // agree everywhere.
    Design d("t");
    Builder b(d);
    int r = b.reg("r", 8, 0);
    int saw0 = b.reg("saw0", 8, 0xFF);
    d.add_rule("rl", b.seq({b.write0(r, b.k(8, 1)),
                            b.write1(r, b.k(8, 2)),
                            b.write1(saw0, b.read0(r))}));
    d.schedule("rl");
    typecheck(d);
    auto e = engine(d);
    e->cycle();
    EXPECT_EQ(e->get_reg(saw0).to_u64(), 0u);
    EXPECT_EQ(e->get_reg(r).to_u64(), 2u);
}

TEST_P(TierSemantics, ConflictAbortsSecondRule)
{
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    d.add_rule("w1", b.write0(x, b.k(8, 1)));
    d.add_rule("w2", b.write0(x, b.k(8, 2)));
    d.schedule("w1");
    d.schedule("w2");
    typecheck(d);
    auto e = engine(d);
    e->cycle();
    EXPECT_TRUE(e->fired()[0]);
    EXPECT_FALSE(e->fired()[1]);
    EXPECT_EQ(e->get_reg(x).to_u64(), 1u);
    EXPECT_EQ(e->rule_abort_counts()[1], 1u);
}

TEST_P(TierSemantics, FailedRuleRollsBackPartialWrites)
{
    // Write y, then abort: y must keep its old value and the next rule
    // must see clean logs.
    Design d("t");
    Builder b(d);
    int y = b.reg("y", 8, 5);
    int z = b.reg("z", 8, 0);
    d.add_rule("doomed", b.seq({b.write0(y, b.k(8, 77)), b.abort()}));
    d.add_rule("next", b.write0(z, b.read1(y)));
    d.schedule("doomed");
    d.schedule("next");
    typecheck(d);
    auto e = engine(d);
    e->cycle();
    EXPECT_EQ(e->get_reg(y).to_u64(), 5u);
    EXPECT_EQ(e->get_reg(z).to_u64(), 5u);
}

TEST_P(TierSemantics, FailedRuleRollsBackRd1Marks)
{
    // doomed reads y at port 1 then aborts; the next rule's wr0 to y must
    // still succeed (the rd1 mark must not leak into the cycle log).
    Design d("t");
    Builder b(d);
    int y = b.reg("y", 8, 5);
    int sink = b.reg("sink", 8, 0);
    d.add_rule("doomed", b.seq({b.write0(sink, b.read1(y)), b.abort()}));
    d.add_rule("wr", b.write0(y, b.k(8, 9)));
    d.schedule("doomed");
    d.schedule("wr");
    typecheck(d);
    auto e = engine(d);
    e->cycle();
    EXPECT_FALSE(e->fired()[0]);
    EXPECT_TRUE(e->fired()[1]);
    EXPECT_EQ(e->get_reg(y).to_u64(), 9u);
}

TEST_P(TierSemantics, CallInLaterArgumentKeepsEarlierArguments)
{
    // sub2(10, sq(2)): the nested call runs after argument 0 has been
    // evaluated and must not overwrite it (10 - 4, not 2 - 4).
    Design d("t");
    Builder b(d);
    int y = b.reg("y", 8, 0);
    FunctionDef* sq = b.fn("sq", {{"a", bits_type(8)}}, bits_type(8),
                           b.mul(b.var("a"), b.var("a")));
    FunctionDef* sub2 =
        b.fn("sub2", {{"a", bits_type(8)}, {"b", bits_type(8)}},
             bits_type(8), b.sub(b.var("a"), b.var("b")));
    d.add_rule("r", b.write0(y, b.call(sub2, {b.k(8, 10),
                                              b.call(sq, {b.k(8, 2)})})));
    d.schedule("r");
    typecheck(d);
    auto e = engine(d);
    e->cycle();
    EXPECT_EQ(e->get_reg(y).to_u64(), 6u);
    expect_all_tiers_match(d, 3);
}

TEST_P(TierSemantics, SetRegBetweenCyclesVisible)
{
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    int y = b.reg("y", 8, 0);
    d.add_rule("copy", b.write0(y, b.read0(x)));
    d.schedule("copy");
    typecheck(d);
    auto e = engine(d);
    e->set_reg(x, Bits::of(8, 42));
    e->cycle();
    EXPECT_EQ(e->get_reg(y).to_u64(), 42u);
    // rd1 paths must also see the poked value.
    e->set_reg(x, Bits::of(8, 43));
    e->cycle();
    EXPECT_EQ(e->get_reg(y).to_u64(), 43u);
}

TEST_P(TierSemantics, PipelineForwardingThroughWire)
{
    // Producer wr0 -> consumer rd1 in the same cycle, every cycle.
    Design d("t");
    Builder b(d);
    int src = b.reg("src", 8, 0);
    int wire = b.reg("wire", 8, 0);
    int dst = b.reg("dst", 8, 0);
    d.add_rule("produce",
               b.seq({b.write0(src, b.add(b.read0(src), b.k(8, 1))),
                      b.write0(wire, b.read0(src))}));
    d.add_rule("consume", b.write0(dst, b.read1(wire)));
    d.schedule("produce");
    d.schedule("consume");
    typecheck(d);
    auto e = engine(d);
    for (int i = 0; i < 4; ++i)
        e->cycle();
    // In cycle i the wire carries src's old value (i).
    EXPECT_EQ(e->get_reg(dst).to_u64(), 3u);
    EXPECT_EQ(e->get_reg(src).to_u64(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, TierSemantics, ::testing::ValuesIn(kAllTiers),
    [](const ::testing::TestParamInfo<Tier>& info) {
        std::string n = tier_name(info.param);
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(Tiers, CustomOrderSupportedBelowT5)
{
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    d.add_rule("a", b.write0(x, b.k(8, 1)));
    d.add_rule("b", b.write0(x, b.k(8, 2)));
    d.schedule("a");
    d.schedule("b");
    typecheck(d);
    auto e = make_engine(d, Tier::kT4MergedData);
    e->cycle_with_order({1, 0});
    EXPECT_EQ(e->get_reg(x).to_u64(), 2u);
    auto t5 = make_engine(d, Tier::kT5StaticAnalysis);
    EXPECT_THROW(t5->cycle_with_order({1, 0}), FatalError);
}

TEST(Tiers, RandomOrderMatchesReferenceOrder)
{
    // Any explicit order agrees with the reference run under that order.
    auto d = random_design(7777);
    ReferenceSim ref(*d);
    auto e = make_engine(*d, Tier::kT3ResetOnFail);
    std::mt19937_64 rng(1);
    std::vector<int> order;
    for (size_t i = 0; i < d->num_rules(); ++i)
        order.push_back((int)i);
    for (int c = 0; c < 50; ++c) {
        std::shuffle(order.begin(), order.end(), rng);
        ref.cycle_with_order(order);
        e->cycle_with_order(order);
        for (size_t i = 0; i < d->num_registers(); ++i)
            ASSERT_EQ(e->get_reg((int)i), ref.reg((int)i))
                << "cycle " << c << " reg " << d->reg((int)i).name;
    }
}

// ---------------------------------------------------------------------------
// Random-design differential sweep: all tiers vs the reference.
// ---------------------------------------------------------------------------

class TierRandomSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TierRandomSweep, AllTiersMatchReference)
{
    uint64_t base_seed = GetParam();
    for (uint64_t s = 0; s < 8; ++s) {
        auto d = random_design(base_seed * 100 + s);
        expect_all_tiers_match(*d, 40);
    }
}

TEST_P(TierRandomSweep, WideRegistersMatchReference)
{
    RandomDesignConfig cfg;
    cfg.wide_registers = true;
    auto d = random_design(GetParam() * 31 + 5, cfg);
    expect_all_tiers_match(*d, 40);
}

TEST_P(TierRandomSweep, RandomOrdersMatchReference)
{
    // Schedule-independent tiers must track the reference under a fresh
    // random rule order every cycle (case study 2's methodology).
    auto d = random_design(GetParam() * 523 + 9);
    ReferenceSim ref(*d);
    auto t0 = make_engine(*d, Tier::kT0Naive);
    auto t4 = make_engine(*d, Tier::kT4MergedData);
    std::mt19937_64 rng(GetParam());
    std::vector<int> order;
    for (size_t i = 0; i < d->num_rules(); ++i)
        order.push_back((int)i);
    for (int c = 0; c < 30; ++c) {
        std::shuffle(order.begin(), order.end(), rng);
        ref.cycle_with_order(order);
        t0->cycle_with_order(order);
        t4->cycle_with_order(order);
        for (size_t r = 0; r < d->num_registers(); ++r) {
            ASSERT_EQ(t0->get_reg((int)r), ref.reg((int)r))
                << "T0 cycle " << c;
            ASSERT_EQ(t4->get_reg((int)r), ref.reg((int)r))
                << "T4 cycle " << c;
        }
    }
}

TEST_P(TierRandomSweep, StimulusMatchesReference)
{
    // External pokes between cycles (the peripheral pattern) must keep
    // engines in lockstep too.
    auto d = random_design(GetParam() * 17 + 3);
    ReferenceModel ref(*d);
    auto t5 = make_engine(*d, Tier::kT5StaticAnalysis);
    std::vector<sim::Model*> models = {&ref, t5.get()};
    uint64_t seed = GetParam();
    auto stimulus = [&](sim::Model& m, uint64_t c) {
        std::mt19937_64 rng(seed * 1000 + c);
        int reg = (int)(rng() % d->num_registers());
        uint32_t w = d->reg(reg).type->width;
        m.set_reg(reg, Bits::of(w, rng()));
    };
    auto result = run_lockstep(*d, models, 30, stimulus);
    EXPECT_TRUE(result.ok) << result.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TierRandomSweep,
                         ::testing::Range<uint64_t>(1, 26));
