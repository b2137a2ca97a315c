// Observability layer tests: MetricsRegistry JSON round-trips, the
// tier engines agree on abort-reason attribution (guard vs read-port vs
// write-port conflict) for hand-built conflicts, and TraceWriter emits
// valid Chrome trace-event JSON.

#include <gtest/gtest.h>

#include <sstream>

#include "koika/builder.hpp"
#include "koika/typecheck.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "sim/tiers.hpp"

using namespace koika;
using namespace koika::obs;
using koika::sim::AbortReason;
using koika::sim::make_engine;
using koika::sim::Tier;

namespace {

const Tier kAllTiers[] = {Tier::kT0Naive,       Tier::kT1SplitSets,
                          Tier::kT2Accumulate,  Tier::kT3ResetOnFail,
                          Tier::kT4MergedData,  Tier::kT5StaticAnalysis};

/**
 * Run `d` for `cycles` on every tier and check each rule attributes its
 * aborts to exactly one expected reason — identically across tiers.
 * `expected[r]` is the reason rule r must abort with (or kGuard with
 * zero aborts when the rule never aborts; see `expect_aborts`).
 */
void
expect_reasons_all_tiers(const Design& d, uint64_t cycles,
                         const std::vector<AbortReason>& expected,
                         const std::vector<bool>& expect_aborts)
{
    for (Tier t : kAllTiers) {
        auto e = make_engine(d, t);
        for (uint64_t c = 0; c < cycles; ++c)
            e->cycle();
        SimStats s = collect_stats(*e);
        ASSERT_EQ(s.rules.size(), expected.size()) << sim::tier_name(t);
        for (size_t r = 0; r < expected.size(); ++r) {
            const RuleStats& rs = s.rules[r];
            ASSERT_TRUE(rs.has_reasons)
                << sim::tier_name(t) << " rule " << rs.name;
            EXPECT_EQ(rs.guard_aborts + rs.read_conflict_aborts +
                          rs.write_conflict_aborts,
                      rs.aborts)
                << sim::tier_name(t) << " rule " << rs.name;
            if (!expect_aborts[r]) {
                EXPECT_EQ(rs.aborts, 0u)
                    << sim::tier_name(t) << " rule " << rs.name;
                continue;
            }
            EXPECT_EQ(rs.aborts, cycles)
                << sim::tier_name(t) << " rule " << rs.name;
            EXPECT_EQ(rs.reason(expected[r]), cycles)
                << sim::tier_name(t) << " rule " << rs.name;
        }
    }
}

} // namespace

// -- MetricsRegistry --------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics)
{
    MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    m.inc("a/b");
    m.inc("a/b", 4);
    EXPECT_EQ(m.counter("a/b"), 5u);
    EXPECT_EQ(m.counter("missing"), 0u);
    m.set_gauge("g", 2.5);
    EXPECT_DOUBLE_EQ(m.gauge("g"), 2.5);

    m.define_histogram("h", {1, 2, 4});
    m.observe("h", 0.5); // bucket 0 (<= 1)
    m.observe("h", 2.0); // bucket 1 (<= 2)
    m.observe("h", 9.0); // overflow bucket
    const Histogram* h = m.histogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->total, 3u);
    ASSERT_EQ(h->counts.size(), 4u);
    EXPECT_EQ(h->counts[0], 1u);
    EXPECT_EQ(h->counts[1], 1u);
    EXPECT_EQ(h->counts[2], 0u);
    EXPECT_EQ(h->counts[3], 1u);
    EXPECT_DOUBLE_EQ(h->mean(), (0.5 + 2.0 + 9.0) / 3.0);
}

TEST(Metrics, JsonRoundTrip)
{
    MetricsRegistry m;
    m.inc("sim/cycles", 123456789);
    m.inc("sim/rule/alpha/commits", 7);
    m.set_gauge("sim/cycles_per_sec", 1.5e6);
    m.set_gauge("negative", -0.25);
    m.define_histogram("lat", {1, 10, 100});
    m.observe("lat", 3);
    m.observe("lat", 250);

    std::string text = m.to_json().dump();
    MetricsRegistry back = MetricsRegistry::from_json(Json::parse(text));
    // Round-trip is exact: dumping again yields the same document.
    EXPECT_EQ(back.to_json().dump(), text);
    EXPECT_EQ(back.counter("sim/cycles"), 123456789u);
    EXPECT_DOUBLE_EQ(back.gauge("sim/cycles_per_sec"), 1.5e6);
    const Histogram* h = back.histogram("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->total, 2u);
    EXPECT_DOUBLE_EQ(h->sum, 253.0);
}

TEST(Metrics, ToTextMentionsEveryMetric)
{
    MetricsRegistry m;
    m.inc("c1", 2);
    m.set_gauge("g1", 3);
    m.observe("h1", 1);
    std::string text = m.to_text();
    EXPECT_NE(text.find("c1"), std::string::npos);
    EXPECT_NE(text.find("g1"), std::string::npos);
    EXPECT_NE(text.find("h1"), std::string::npos);
}

// -- SimStats ---------------------------------------------------------------

TEST(Metrics, ArtifactShape)
{
    MetricsRegistry m;
    m.inc("fault/trials", 54);
    m.set_gauge("fault/wall", 1.5);
    Json a = metrics_artifact("collatz", "T5", m);
    EXPECT_EQ(a.find("schema")->as_string(), kMetricsSchema);
    EXPECT_EQ(a.find("design")->as_string(), "collatz");
    EXPECT_EQ(a.find("engine")->as_string(), "T5");
    const Json* counters = a.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("fault/trials")->as_u64(), 54u);
    // Design/engine may be empty (e.g. --list) but must be present.
    Json b = metrics_artifact("", "", m);
    ASSERT_NE(b.find("design"), nullptr);
    EXPECT_EQ(b.find("design")->as_string(), "");
}

TEST(SimStatsTest, JsonRoundTrip)
{
    SimStats s;
    s.label = "test/run";
    s.design = "collatz";
    s.engine = "T5";
    s.cycles = 1000;
    s.wall_seconds = 0.5;
    RuleStats r;
    r.name = "step";
    r.commits = 600;
    r.aborts = 400;
    r.has_reasons = true;
    r.guard_aborts = 100;
    r.read_conflict_aborts = 120;
    r.write_conflict_aborts = 180;
    s.rules.push_back(r);
    s.extra["events_per_cycle"] = 2.25;

    SimStats back = SimStats::from_json(
        Json::parse(s.to_json().dump()));
    EXPECT_EQ(back.to_json().dump(), s.to_json().dump());
    ASSERT_EQ(back.rules.size(), 1u);
    EXPECT_EQ(back.rules[0].reason(AbortReason::kReadConflict), 120u);
    EXPECT_DOUBLE_EQ(back.extra["events_per_cycle"], 2.25);
}

// -- Abort-reason attribution across tiers ----------------------------------

TEST(AbortReasons, GuardFailureIsAttributedToGuard)
{
    // "inc" only runs while x < 3; afterwards its guard aborts forever.
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    d.add_rule("inc",
               b.seq({b.guard(b.ltu(b.read0(x), b.k(8, 3))),
                      b.write0(x, b.add(b.read0(x), b.k(8, 1)))}));
    d.schedule("inc");
    typecheck(d);
    for (Tier t : kAllTiers) {
        auto e = make_engine(d, t);
        for (int c = 0; c < 10; ++c)
            e->cycle();
        SimStats s = collect_stats(*e);
        ASSERT_EQ(s.rules.size(), 1u);
        EXPECT_EQ(s.rules[0].commits, 3u) << sim::tier_name(t);
        EXPECT_EQ(s.rules[0].aborts, 7u) << sim::tier_name(t);
        EXPECT_EQ(s.rules[0].guard_aborts, 7u) << sim::tier_name(t);
        EXPECT_EQ(s.rules[0].read_conflict_aborts, 0u);
        EXPECT_EQ(s.rules[0].write_conflict_aborts, 0u);
    }
}

TEST(AbortReasons, ExplicitAbortIsAttributedToGuard)
{
    Design d("t");
    Builder b(d);
    b.reg("x", 8, 0);
    d.add_rule("never", b.abort());
    d.schedule("never");
    typecheck(d);
    expect_reasons_all_tiers(d, 25, {AbortReason::kGuard}, {true});
}

TEST(AbortReasons, ReadAfterWriteIsAReadConflict)
{
    // "writer" commits wr0(x) first in the schedule; "reader"'s rd0(x)
    // then conflicts with the committed write every cycle.
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    int y = b.reg("y", 8, 0);
    d.add_rule("writer", b.write0(x, b.add(b.read0(x), b.k(8, 1))));
    d.add_rule("reader", b.write0(y, b.read0(x)));
    d.schedule("writer");
    d.schedule("reader");
    typecheck(d);
    expect_reasons_all_tiers(
        d, 25, {AbortReason::kGuard, AbortReason::kReadConflict},
        {false, true});
}

TEST(AbortReasons, DoubleWriteIsAWriteConflict)
{
    // Both rules wr0 the same register; the second aborts at the write.
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    d.add_rule("first", b.write0(x, b.k(8, 1)));
    d.add_rule("second", b.write0(x, b.k(8, 2)));
    d.schedule("first");
    d.schedule("second");
    typecheck(d);
    expect_reasons_all_tiers(
        d, 25, {AbortReason::kGuard, AbortReason::kWriteConflict},
        {false, true});
}

// -- TraceWriter ------------------------------------------------------------

TEST(Trace, OutputIsValidChromeTraceJson)
{
    Design d("t");
    Builder b(d);
    int x = b.reg("x", 8, 0);
    d.add_rule("inc",
               b.seq({b.guard(b.ltu(b.read0(x), b.k(8, 2))),
                      b.write0(x, b.add(b.read0(x), b.k(8, 1)))}));
    d.add_rule("never", b.abort());
    d.schedule("inc");
    d.schedule("never");
    typecheck(d);

    std::ostringstream out;
    {
        auto e = make_engine(d, Tier::kT5StaticAnalysis);
        std::vector<std::string> names;
        for (size_t r = 0; r < e->num_rules(); ++r)
            names.push_back(e->rule_name((int)r));
        TraceWriter tw(out, names, "t");
        for (int c = 0; c < 5; ++c) {
            e->cycle();
            tw.sample(*e);
        }
        EXPECT_EQ(tw.cycles_recorded(), 5u);
        tw.finish();
        tw.finish(); // idempotent
    }

    Json doc = Json::parse(out.str());
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    size_t commits = 0, aborts = 0, meta = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json* ph_field = events->at(i).find("ph");
        ASSERT_NE(ph_field, nullptr);
        const std::string& ph = ph_field->as_string();
        if (ph == "M")
            ++meta;
        else if (ph == "X")
            ++commits;
        else if (ph == "i")
            ++aborts;
    }
    EXPECT_GE(meta, 3u);     // process_name + one thread_name per rule
    EXPECT_EQ(commits, 2u);  // "inc" fires in cycles 1 and 2 only
    EXPECT_EQ(aborts, 8u);   // inc x3 (guard) + never x5
}

TEST(Trace, RecordCycleExplicitPath)
{
    std::ostringstream out;
    TraceWriter tw(out, {"a", "b"});
    tw.record_cycle({true, false}, {nullptr, "guard"});
    tw.record_cycle({false, false}, {nullptr, nullptr});
    tw.finish();
    Json doc = Json::parse(out.str());
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->is_array());
    EXPECT_EQ(tw.cycles_recorded(), 2u);
}

TEST(Trace, EmptyRuleSetStillEmitsValidJson)
{
    // A design with no rules (or a trace closed before any cycle) must
    // still produce a parseable document with the process metadata.
    std::ostringstream out;
    {
        TraceWriter tw(out, {}, "empty");
        tw.record_cycle({}, {});
        tw.finish();
    }
    Json doc = Json::parse(out.str());
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    bool saw_process = false;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json* ph = events->at(i).find("ph");
        ASSERT_NE(ph, nullptr);
        // Only metadata can exist without rules.
        EXPECT_EQ(ph->as_string(), "M");
        saw_process = true;
    }
    EXPECT_TRUE(saw_process);
}

TEST(Trace, RuleNamesAreJsonEscaped)
{
    // Rule names are user-controlled strings; quotes, backslashes, and
    // control characters must round-trip through the emitted JSON.
    std::ostringstream out;
    {
        TraceWriter tw(out, {"we\"ird\\rule\tname"}, "esc\"proc");
        tw.record_cycle({true}, {nullptr});
        tw.record_cycle({false}, {"gu\"ard"});
        tw.finish();
    }
    Json doc = Json::parse(out.str()); // throws on malformed output
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool found_slice = false, found_lane = false, found_reason = false;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json& e = events->at(i);
        const Json* name = e.find("name");
        if (name != nullptr && name->kind() == Json::Kind::kString &&
            name->as_string() == "we\"ird\\rule\tname")
            found_slice = true; // the commit slice carries the raw name
        const Json* args = e.find("args");
        if (args == nullptr)
            continue;
        const Json* aname = args->find("name");
        if (aname != nullptr &&
            aname->as_string() == "rule we\"ird\\rule\tname")
            found_lane = true; // the lane metadata prefixes "rule "
        const Json* reason = args->find("reason");
        if (reason != nullptr && reason->as_string() == "gu\"ard")
            found_reason = true;
    }
    EXPECT_TRUE(found_slice)
        << "escaped rule name did not survive the JSON round-trip";
    EXPECT_TRUE(found_lane);
    EXPECT_TRUE(found_reason);
}

TEST(Trace, StreamsInConstantMemory)
{
    // The writer must stream: events of early cycles land in the output
    // before finish(), and the document only becomes valid at finish().
    std::ostringstream out;
    TraceWriter tw(out, {"r"});
    tw.record_cycle({true}, {nullptr});
    size_t after_one = out.str().size();
    EXPECT_GT(after_one, 0u) << "nothing streamed before finish()";
    for (int c = 0; c < 999; ++c)
        tw.record_cycle({true}, {nullptr});
    // Monotone growth cycle by cycle — the buffered-until-finish
    // anti-pattern would keep the stream empty until the end.
    EXPECT_GT(out.str().size(), after_one);
    tw.finish();
    Json doc = Json::parse(out.str());
    const Json* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    size_t slices = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json* ph = events->at(i).find("ph");
        if (ph != nullptr && ph->as_string() == "X")
            ++slices;
    }
    EXPECT_EQ(slices, 1000u);
    EXPECT_EQ(tw.cycles_recorded(), 1000u);
}
