// Reference-interpreter tests: the specification semantics of §3.1.
//
// These pin down the port conflict matrix, intra-rule visibility, rule
// abortion and commit behaviour, and end-of-cycle register updates. Every
// other engine is later differential-tested against this interpreter, so
// these tests are the semantic anchor of the whole repository.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

#include "base/sha256.hpp"
#include "harness/random_design.hpp"
#include "interp/reference.hpp"
#include "koika/builder.hpp"
#include "koika/print.hpp"
#include "koika/typecheck.hpp"
#include "sim/tiers.hpp"

using namespace koika;

namespace {

struct Fixture
{
    Design d{"t"};
    Builder b{d};

    void
    finish()
    {
        typecheck(d);
    }
};

} // namespace

TEST(Reference, CounterIncrements)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("inc", f.b.write0(x, f.b.add(f.b.read0(x), f.b.k(8, 1))));
    f.d.schedule("inc");
    f.finish();
    ReferenceSim sim(f.d);
    for (int i = 1; i <= 5; ++i) {
        sim.cycle();
        EXPECT_EQ(sim.reg(x).to_u64(), (uint64_t)i);
    }
    EXPECT_EQ(sim.cycles_run(), 5u);
}

TEST(Reference, Wr1BeatsWr0AtCommit)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("r", f.b.seq({f.b.write0(x, f.b.k(8, 1)),
                               f.b.write1(x, f.b.k(8, 2))}));
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_EQ(sim.reg(x).to_u64(), 2u);
}

TEST(Reference, GoldbergianContraption)
{
    // Paper §3.2: rule rl = r.wr0(1); r.wr1(2); r.rd0(); r.rd1()
    // succeeds, rd0 reads 0 and rd1 reads 1.
    Fixture f;
    int r = f.b.reg("r", 8, 0);
    int saw0 = f.b.reg("saw0", 8, 0xFF);
    int saw1 = f.b.reg("saw1", 8, 0xFF);
    f.d.add_rule(
        "rl", f.b.seq({f.b.write0(r, f.b.k(8, 1)),
                       f.b.write1(r, f.b.k(8, 2)),
                       f.b.write1(saw0, f.b.read0(r)),
                       f.b.write1(saw1, f.b.read1(r))}));
    f.d.schedule("rl");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_EQ(sim.reg(saw0).to_u64(), 0u);
    EXPECT_EQ(sim.reg(saw1).to_u64(), 1u);
    EXPECT_EQ(sim.reg(r).to_u64(), 2u);
}

TEST(Reference, Rd0AfterEarlierRuleWriteAborts)
{
    // Rule w writes x at port 0; rule r then reads x at port 0 -> r must
    // abort (a rd0 cannot observe an earlier write in the same cycle).
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    int y = f.b.reg("y", 8, 0);
    f.d.add_rule("w", f.b.write0(x, f.b.k(8, 1)));
    f.d.add_rule("r", f.b.write0(y, f.b.read0(x)));
    f.d.schedule("w");
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_FALSE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(y).to_u64(), 0u);
}

TEST(Reference, Rd1SeesEarlierRuleWr0)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    int y = f.b.reg("y", 8, 0);
    f.d.add_rule("w", f.b.write0(x, f.b.k(8, 42)));
    f.d.add_rule("r", f.b.write0(y, f.b.read1(x)));
    f.d.schedule("w");
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(y).to_u64(), 42u);
}

TEST(Reference, Rd1AfterEarlierRuleWr1Aborts)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    int y = f.b.reg("y", 8, 0);
    f.d.add_rule("w", f.b.write1(x, f.b.k(8, 1)));
    f.d.add_rule("r", f.b.write0(y, f.b.read1(x)));
    f.d.schedule("w");
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_FALSE(sim.fired()[1]);
}

TEST(Reference, Wr0AfterEarlierRuleRd1Aborts)
{
    // The accidental-conflict scenario of case study 1: a rd1 followed by
    // a later rule's wr0 is a linearity violation.
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    int y = f.b.reg("y", 8, 0);
    f.d.add_rule("r", f.b.write0(y, f.b.read1(x)));
    f.d.add_rule("w", f.b.write0(x, f.b.k(8, 1)));
    f.d.schedule("r");
    f.d.schedule("w");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_FALSE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 0u);
}

TEST(Reference, Wr0AfterEarlierRuleWr0Aborts)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("w1", f.b.write0(x, f.b.k(8, 1)));
    f.d.add_rule("w2", f.b.write0(x, f.b.k(8, 2)));
    f.d.schedule("w1");
    f.d.schedule("w2");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_FALSE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 1u);
}

TEST(Reference, TwoWr1sConflict)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("w1", f.b.write1(x, f.b.k(8, 1)));
    f.d.add_rule("w2", f.b.write1(x, f.b.k(8, 2)));
    f.d.schedule("w1");
    f.d.schedule("w2");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_FALSE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 1u);
}

TEST(Reference, Wr0ThenLaterRuleWr1Allowed)
{
    // wr0 then a *later rule's* wr1 is the classic forwarding pattern.
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("w0", f.b.write0(x, f.b.k(8, 1)));
    f.d.add_rule("w1", f.b.write1(x, f.b.k(8, 2)));
    f.d.schedule("w0");
    f.d.schedule("w1");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_TRUE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 2u);
}

TEST(Reference, Wr1ThenLaterRuleWr0Conflicts)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("w1", f.b.write1(x, f.b.k(8, 2)));
    f.d.add_rule("w0", f.b.write0(x, f.b.k(8, 1)));
    f.d.schedule("w1");
    f.d.schedule("w0");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_FALSE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 2u);
}

TEST(Reference, AbortedRuleLeavesNoTrace)
{
    // A rule that writes, then aborts: its writes must be discarded and a
    // later rule must still be able to write.
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("doomed", f.b.seq({f.b.write0(x, f.b.k(8, 7)),
                                    f.b.abort()}));
    f.d.add_rule("after", f.b.write0(x, f.b.k(8, 9)));
    f.d.schedule("doomed");
    f.d.schedule("after");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_FALSE(sim.fired()[0]);
    EXPECT_TRUE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 9u);
}

TEST(Reference, GuardFalseAborts)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("r", f.b.seq({f.b.guard(f.b.eq(f.b.read0(x), f.b.k(8, 1))),
                               f.b.write0(x, f.b.k(8, 5))}));
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_FALSE(sim.fired()[0]);
    EXPECT_EQ(sim.reg(x).to_u64(), 0u);
    sim.set_reg(x, Bits::of(8, 1));
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_EQ(sim.reg(x).to_u64(), 5u);
}

TEST(Reference, IntraRuleWr0ThenRd1SeesValue)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    int y = f.b.reg("y", 8, 0);
    f.d.add_rule("r", f.b.seq({f.b.write0(x, f.b.k(8, 3)),
                               f.b.write1(y, f.b.read1(x))}));
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_EQ(sim.reg(y).to_u64(), 3u);
}

TEST(Reference, IntraRuleWr0ThenWr0Conflicts)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("r", f.b.seq({f.b.write0(x, f.b.k(8, 1)),
                               f.b.write0(x, f.b.k(8, 2))}));
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_FALSE(sim.fired()[0]);
    EXPECT_EQ(sim.reg(x).to_u64(), 0u);
}

TEST(Reference, TwoStateMachine)
{
    // The paper's §2.1 example: alternate rlA / rlB by state.
    Fixture f;
    auto st_t = make_enum("state", {"A", "B"});
    int st = f.d.add_register("st", st_t, Bits::of(1, 0));
    int x = f.b.reg("x", 32, 1);
    Action* rlA =
        f.b.seq({f.b.guard(f.b.eq(f.b.read0(st), f.b.enum_k(st_t, "A"))),
                 f.b.write0(st, f.b.enum_k(st_t, "B")),
                 f.b.write0(x, f.b.add(f.b.read0(x), f.b.k(32, 1)))});
    Action* rlB =
        f.b.seq({f.b.guard(f.b.eq(f.b.read0(st), f.b.enum_k(st_t, "B"))),
                 f.b.write0(st, f.b.enum_k(st_t, "A")),
                 f.b.write0(x, f.b.mul(f.b.read0(x), f.b.k(32, 2)))});
    f.d.add_rule("rlA", rlA);
    f.d.add_rule("rlB", rlB);
    f.d.schedule("rlA");
    f.d.schedule("rlB");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle(); // A: x = 2
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_FALSE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 2u);
    sim.cycle(); // B: x = 4
    EXPECT_FALSE(sim.fired()[0]);
    EXPECT_TRUE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 4u);
    sim.cycle(); // A: x = 5
    EXPECT_EQ(sim.reg(x).to_u64(), 5u);
}

TEST(Reference, MutuallyExclusiveRulesOrderIrrelevant)
{
    // Case study 2's property on a small scale: for mutually exclusive
    // rules, any scheduler order produces the same behaviour.
    Fixture f;
    auto st_t = make_enum("state", {"A", "B"});
    int st = f.d.add_register("st", st_t, Bits::of(1, 0));
    int x = f.b.reg("x", 8, 0);
    Action* rlA =
        f.b.seq({f.b.guard(f.b.eq(f.b.read0(st), f.b.enum_k(st_t, "A"))),
                 f.b.write0(st, f.b.enum_k(st_t, "B")),
                 f.b.write0(x, f.b.add(f.b.read0(x), f.b.k(8, 1)))});
    Action* rlB =
        f.b.seq({f.b.guard(f.b.eq(f.b.read0(st), f.b.enum_k(st_t, "B"))),
                 f.b.write0(st, f.b.enum_k(st_t, "A")),
                 f.b.write0(x, f.b.add(f.b.read0(x), f.b.k(8, 10)))});
    f.d.add_rule("rlA", rlA);
    f.d.add_rule("rlB", rlB);
    f.d.schedule("rlA");
    f.d.schedule("rlB");
    f.finish();

    ReferenceSim fwd(f.d), rev(f.d);
    std::vector<int> reversed = {1, 0};
    for (int i = 0; i < 10; ++i) {
        fwd.cycle();
        rev.cycle_with_order(reversed);
        EXPECT_EQ(fwd.reg(x), rev.reg(x)) << "cycle " << i;
        EXPECT_EQ(fwd.reg(st), rev.reg(st)) << "cycle " << i;
    }
}

TEST(Reference, UnscheduledRuleNeverRuns)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("never", f.b.write0(x, f.b.k(8, 99)));
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_EQ(sim.reg(x).to_u64(), 0u);
}

TEST(Reference, AssignMutatesLocal)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    // let v := 1 in (if x == 0 then set v := 5); x.wr0(v)
    Action* body = f.b.let(
        "v", f.b.k(8, 1),
        f.b.seq({f.b.when(f.b.eq(f.b.read0(x), f.b.k(8, 0)),
                          f.b.assign("v", f.b.k(8, 5))),
                 f.b.write0(x, f.b.var("v"))}));
    f.d.add_rule("r", body);
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_EQ(sim.reg(x).to_u64(), 5u);
    sim.cycle();
    EXPECT_EQ(sim.reg(x).to_u64(), 1u);
}

TEST(Reference, FunctionCallEvaluates)
{
    Fixture f;
    int x = f.b.reg("x", 8, 3);
    FunctionDef* sq = f.b.fn("sq", {{"a", bits_type(8)}}, bits_type(8),
                             f.b.mul(f.b.var("a"), f.b.var("a")));
    f.d.add_rule("r", f.b.write0(x, f.b.call(sq, {f.b.read0(x)})));
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_EQ(sim.reg(x).to_u64(), 9u);
    sim.cycle();
    EXPECT_EQ(sim.reg(x).to_u64(), 81u);
}

TEST(Reference, StructFieldRoundTrip)
{
    Fixture f;
    auto t = make_struct("pkt", {{"hi", bits_type(8), 0},
                                 {"lo", bits_type(8), 0}});
    int p = f.d.add_register("p", t, Bits::zeroes(16));
    int out = f.b.reg("out", 8, 0);
    f.d.add_rule(
        "wr", f.b.write0(p, f.b.struct_init(t, {{"hi", f.b.k(8, 0xAB)},
                                                {"lo", f.b.k(8, 0xCD)}})));
    f.d.add_rule("rd", f.b.write0(out, f.b.get(f.b.read1(p), "hi")));
    f.d.schedule("wr");
    f.d.schedule("rd");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_EQ(sim.reg(p).to_u64(), 0xABCDu);
    EXPECT_EQ(sim.reg(out).to_u64(), 0xABu);
}

TEST(Reference, SubstFieldUpdatesOnlyThatField)
{
    Fixture f;
    auto t = make_struct("pkt", {{"hi", bits_type(8), 0},
                                 {"lo", bits_type(8), 0}});
    int p = f.d.add_register("p", t, Bits::of(16, 0x1234));
    f.d.add_rule("r",
                 f.b.write0(p, f.b.subst(f.b.read0(p), "hi", f.b.k(8, 0xFF))));
    f.d.schedule("r");
    f.finish();
    ReferenceSim sim(f.d);
    sim.cycle();
    EXPECT_EQ(sim.reg(p).to_u64(), 0xFF34u);
}

// -- Early exits: an aborted rule leaves nothing behind ----------------------

TEST(Reference, AbortInsideCallArgumentsLeavesCleanFrames)
{
    // add2(a, b) = a + sq(b) calls a function from its body. "doomed"
    // aborts while evaluating the argument of a call that is itself the
    // second argument of another call, so both calls have pending
    // arguments when the guard fails. "after" then makes the same nested
    // calls and must compute from fresh frames and arguments.
    Fixture f;
    int flag = f.b.reg("flag", 1, 0);
    int x = f.b.reg("x", 8, 0);
    int y = f.b.reg("y", 8, 0);
    FunctionDef* sq = f.b.fn("sq", {{"a", bits_type(8)}}, bits_type(8),
                             f.b.mul(f.b.var("a"), f.b.var("a")));
    FunctionDef* add2 = f.b.fn(
        "add2", {{"a", bits_type(8)}, {"b", bits_type(8)}}, bits_type(8),
        f.b.add(f.b.var("a"), f.b.call(sq, {f.b.var("b")})));
    Action* doomed_arg =
        f.b.seq({f.b.guard(f.b.eq(f.b.read0(flag), f.b.k(1, 1))),
                 f.b.k(8, 3)});
    f.d.add_rule("doomed",
                 f.b.write0(x, f.b.call(add2, {f.b.k(8, 1),
                                               f.b.call(sq, {doomed_arg})})));
    f.d.add_rule("after",
                 f.b.write0(y, f.b.call(add2, {f.b.call(sq, {f.b.k(8, 2)}),
                                               f.b.call(sq, {f.b.k(8, 3)})})));
    f.d.schedule("doomed");
    f.d.schedule("after");
    f.finish();
    ReferenceSim sim(f.d);
    sim.enable_coverage();
    for (int i = 0; i < 3; ++i) {
        sim.cycle();
        EXPECT_FALSE(sim.fired()[0]);
        EXPECT_TRUE(sim.fired()[1]);
        EXPECT_EQ(sim.reg(x).to_u64(), 0u);
        EXPECT_EQ(sim.reg(y).to_u64(), 85u); // 4 + sq(9) = 4 + 81
    }
    // The aborted argument stopped evaluation: its constant never ran.
    EXPECT_EQ(sim.coverage()[(size_t)doomed_arg->id], 3u);
    EXPECT_EQ(sim.branch_not_taken()[(size_t)doomed_arg->a0->id], 3u);
    EXPECT_EQ(sim.coverage()[(size_t)doomed_arg->a1->id], 0u);

    sim.set_reg(flag, Bits::of(1, 1));
    sim.cycle();
    EXPECT_TRUE(sim.fired()[0]);
    EXPECT_TRUE(sim.fired()[1]);
    EXPECT_EQ(sim.reg(x).to_u64(), 82u); // 1 + sq(sq(3)) = 1 + 81
    EXPECT_EQ(sim.reg(y).to_u64(), 85u);
}

TEST(Reference, AbortedRuleLogsDoNotReachLaterRules)
{
    // "doomed" logs a rd1 of a, a wr0 of b and a wr1 of c, then aborts.
    // Had any of those entries leaked into the cycle log, "after" would
    // abort (wr0 after rd1, rd0 after wr0, wr0 after wr1) or read 5.
    Fixture f;
    int a = f.b.reg("a", 8, 1);
    int b = f.b.reg("b", 8, 2);
    int c = f.b.reg("c", 8, 3);
    int seen = f.b.reg("seen", 8, 0);
    int seen0 = f.b.reg("seen0", 8, 0);
    Action* tail = f.b.write0(seen, f.b.k(8, 99));
    f.d.add_rule("doomed", f.b.seq({f.b.write1(seen, f.b.read1(a)),
                                    f.b.write0(b, f.b.k(8, 5)),
                                    f.b.write1(c, f.b.k(8, 6)),
                                    f.b.abort(), tail}));
    f.d.add_rule("after",
                 f.b.seq({f.b.write0(a, f.b.add(f.b.read0(a), f.b.k(8, 1))),
                          f.b.write1(seen, f.b.read1(b)),
                          f.b.write1(seen0, f.b.read0(b)),
                          f.b.write0(c, f.b.add(f.b.read0(c), f.b.k(8, 1)))}));
    f.d.schedule("doomed");
    f.d.schedule("after");
    f.finish();
    ReferenceSim sim(f.d);
    sim.enable_coverage();
    for (uint64_t i = 1; i <= 3; ++i) {
        sim.cycle();
        EXPECT_FALSE(sim.fired()[0]);
        EXPECT_TRUE(sim.fired()[1]);
        EXPECT_EQ(sim.reg(a).to_u64(), 1 + i);
        EXPECT_EQ(sim.reg(b).to_u64(), 2u);
        EXPECT_EQ(sim.reg(c).to_u64(), 3 + i);
        EXPECT_EQ(sim.reg(seen).to_u64(), 2u);
        EXPECT_EQ(sim.reg(seen0).to_u64(), 2u);
    }
    // Partial coverage of the aborted rule: everything up to the abort
    // counted once per cycle, nothing after it.
    EXPECT_EQ(sim.coverage()[(size_t)tail->id], 0u);
    EXPECT_EQ(sim.coverage()[(size_t)f.d.rule(0).body->id], 3u);
}

TEST(Reference, AgreesWithTiersOnConflictHeavyRandomDesigns)
{
    // More rules than registers, so most cycles abort several rules. The
    // reference and T0 run a fresh random rule order every cycle; T5 only
    // runs the design's schedule, so it pairs with a second reference
    // instance on that order. Registers and fired sets must agree every
    // cycle, and statement/branch counts (aborted rules' partial counts
    // included) at the end.
    harness::RandomDesignConfig cfg;
    cfg.num_registers = 4;
    cfg.num_rules = 8;
    cfg.max_stmts_per_rule = 8;
    cfg.wide_registers = true;
    auto expect_same_coverage = [](const ReferenceSim& ref,
                                   const sim::TierModel& m,
                                   uint64_t seed) {
        EXPECT_EQ(ref.coverage(), m.stmt_counts()) << "seed " << seed;
        EXPECT_EQ(ref.branch_taken(), m.branch_taken_counts())
            << "seed " << seed;
        EXPECT_EQ(ref.branch_not_taken(), m.branch_not_taken_counts())
            << "seed " << seed;
    };
    uint64_t aborts = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        auto d = harness::random_design(seed * 104729 + 7, cfg);
        ReferenceSim ref(*d), ref_sched(*d);
        auto t0 = sim::make_engine(*d, sim::Tier::kT0Naive);
        auto t5 = sim::make_engine(*d, sim::Tier::kT5StaticAnalysis);
        ref.enable_coverage();
        ref_sched.enable_coverage();
        t0->enable_coverage();
        t5->enable_coverage();
        std::mt19937_64 rng(seed);
        std::vector<int> order(d->num_rules());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = (int)i;
        for (int cyc = 0; cyc < 60; ++cyc) {
            std::shuffle(order.begin(), order.end(), rng);
            ref.cycle_with_order(order);
            t0->cycle_with_order(order);
            ref_sched.cycle_with_order(d->schedule_order());
            t5->cycle();
            ASSERT_EQ(ref.fired(), t0->fired())
                << "seed " << seed << " cycle " << cyc;
            ASSERT_EQ(ref_sched.fired(), t5->fired())
                << "seed " << seed << " cycle " << cyc;
            for (size_t r = 0; r < d->num_registers(); ++r) {
                ASSERT_EQ(ref.reg((int)r), t0->get_reg((int)r))
                    << "seed " << seed << " cycle " << cyc << " reg " << r;
                ASSERT_EQ(ref_sched.reg((int)r), t5->get_reg((int)r))
                    << "seed " << seed << " cycle " << cyc << " reg " << r;
            }
            aborts += (uint64_t)std::count(ref.fired().begin(),
                                           ref.fired().end(), false);
        }
        expect_same_coverage(ref, *t0, seed);
        expect_same_coverage(ref_sched, *t5, seed);
    }
    // The property is only as strong as the conflicts it saw.
    EXPECT_GT(aborts, 40u * 60u);
}

// -- Design fingerprint ---------------------------------------------------------

TEST(DesignFingerprint, MemoMatchesPrintedDesignAndFreezesIt)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("inc", f.b.write0(x, f.b.add(f.b.read0(x), f.b.k(8, 1))));
    f.d.schedule("inc");
    f.finish();
    std::string printed = sha256_hex(print_design(f.d));

    const std::string& fp = f.d.fingerprint();
    EXPECT_EQ(fp, printed);
    EXPECT_EQ(&fp, &f.d.fingerprint()); // computed once, then kept

    EXPECT_THROW(f.d.add_register("y", bits_type(8), Bits::of(8, 0)),
                 FatalError);
    EXPECT_THROW(f.d.add_rule("more", f.d.rule(0).body), FatalError);
    EXPECT_THROW(f.d.schedule("inc"), FatalError);
    EXPECT_THROW(f.d.schedule(0), FatalError);
    EXPECT_THROW(f.d.alloc(ActionKind::kConst), FatalError);
    EXPECT_THROW(f.d.alloc_function(), FatalError);
    EXPECT_THROW(f.d.rule_mut(0), FatalError);
    try {
        f.d.schedule(0);
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint was taken"),
                  std::string::npos);
        EXPECT_EQ(e.diagnostic().design, "t");
    }
    // The rejected mutations left the design, and so the memo, as it was.
    EXPECT_EQ(sha256_hex(print_design(f.d)), printed);
    EXPECT_EQ(f.d.num_rules(), 1u);
    EXPECT_EQ(f.d.schedule_order().size(), 1u);
}

TEST(DesignFingerprint, ConcurrentFirstUseComputesOnce)
{
    Fixture f;
    int x = f.b.reg("x", 8, 0);
    f.d.add_rule("inc", f.b.write0(x, f.b.add(f.b.read0(x), f.b.k(8, 1))));
    f.d.schedule("inc");
    f.finish();
    std::vector<const std::string*> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < seen.size(); ++i)
        threads.emplace_back([&, i] { seen[i] = &f.d.fingerprint(); });
    for (auto& t : threads)
        t.join();
    for (const std::string* p : seen)
        EXPECT_EQ(p, seen[0]);
    EXPECT_EQ(*seen[0], sha256_hex(print_design(f.d)));
}
