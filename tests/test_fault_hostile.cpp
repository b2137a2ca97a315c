// Hostile in-process fault campaigns: every register x every bit x
// three injection cycles x every fault kind, on the reference
// interpreter, the T5 tier and the dlopened compiled model, for rv32i
// and msi. This is the evidence that one process survives any
// single-bit corruption of architectural state without a supervisor:
// every trial is classified, the run does not abort, and the records
// are byte-identical at jobs=1 and jobs=4. Under -DKOIKA_SANITIZE=ON the
// compiled model is built with the same sanitizer flags, so a memory or
// UB bug on corrupted state in any engine fails the run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <ostream>

#include "designs/designs.hpp"
#include "designs/targets.hpp"
#include "fault/fault.hpp"

using namespace koika;
using namespace koika::fault;

namespace {

/** Short enough that the sanitizer build finishes every case inside
 *  its ctest TIMEOUT; long enough that a mid-horizon fault has cycles
 *  left to propagate and be detected. */
constexpr uint64_t kHorizon = 12;

/** Every (register, bit, cycle, kind) with cycle in {0, mid, last}.
 *  Stuck-at faults stay forced until the horizon. */
std::vector<FaultSpec>
exhaustive_faults(const Design& d)
{
    const uint64_t cycles[] = {0, kHorizon / 2, kHorizon - 1};
    const FaultKind kinds[] = {FaultKind::kBitFlip, FaultKind::kStuckAt0,
                               FaultKind::kStuckAt1};
    std::vector<FaultSpec> faults;
    for (size_t r = 0; r < d.num_registers(); ++r)
        for (uint32_t bit = 0; bit < d.reg((int)r).type->width; ++bit)
            for (uint64_t cycle : cycles)
                for (FaultKind kind : kinds)
                    faults.push_back({.cycle = cycle,
                                      .reg = (int)r,
                                      .bit = bit,
                                      .kind = kind,
                                      .stuck_cycles = kHorizon - cycle});
    return faults;
}

struct HostileCase
{
    const char* design;
    const char* engine;
};

/** gtest names the discovered ctest after this; the default would dump
 *  the struct's pointer bytes, which change from build to build. */
void
PrintTo(const HostileCase& hc, std::ostream* os)
{
    *os << hc.design << "/" << hc.engine;
}

class HostileCampaign : public ::testing::TestWithParam<HostileCase>
{
};

} // namespace

TEST_P(HostileCampaign, EveryTrialClassifiedAndJobsIndependent)
{
    const HostileCase& hc = GetParam();
    auto d = designs::build_design(hc.design);
    TargetFactory factory = designs::make_target_factory(*d, hc.engine);
    std::vector<FaultSpec> faults = exhaustive_faults(*d);
    ASSERT_FALSE(faults.empty());

    auto run = [&](int jobs, std::vector<InjectionRecord>& records) {
        records.assign(faults.size(), InjectionRecord{});
        auto t0 = std::chrono::steady_clock::now();
        bool complete =
            run_injection_range(*d, factory, faults, 0, faults.size(),
                                kHorizon, jobs, 1, records.data());
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        std::printf("hostile %s/%s: %zu trials, jobs=%d, %.2f s\n",
                    hc.design, hc.engine, faults.size(), jobs,
                    wall.count());
        return complete;
    };
    std::vector<InjectionRecord> serial, sharded;
    ASSERT_TRUE(run(1, serial));
    ASSERT_TRUE(run(4, sharded));

    uint64_t tally[3] = {0, 0, 0};
    for (size_t i = 0; i < faults.size(); ++i) {
        const InjectionRecord& rec = serial[i];
        // A slot the dispatch never wrote keeps an empty register name.
        ASSERT_EQ(rec.reg_name, d->reg(faults[i].reg).name) << i;
        Outcome want = rec.detected ? Outcome::kDetected
                       : rec.final_state_matches
                           ? Outcome::kMasked
                           : Outcome::kSilentDataCorruption;
        ASSERT_EQ(rec.outcome, want) << i;
        ++tally[(int)rec.outcome];
        ASSERT_EQ(injection_to_json(i, rec).dump(),
                  injection_to_json(i, sharded[i]).dump())
            << hc.design << "/" << hc.engine << " trial " << i;
    }
    std::printf("hostile %s/%s: masked %llu, sdc %llu, detected %llu\n",
                hc.design, hc.engine, (unsigned long long)tally[0],
                (unsigned long long)tally[1],
                (unsigned long long)tally[2]);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, HostileCampaign,
    ::testing::Values(HostileCase{"rv32i", "ref"}, HostileCase{"rv32i", "T5"},
                      HostileCase{"rv32i", "compiled"},
                      HostileCase{"msi", "ref"}, HostileCase{"msi", "T5"},
                      HostileCase{"msi", "compiled"}),
    [](const ::testing::TestParamInfo<HostileCase>& info) {
        return std::string(info.param.design) + "_" + info.param.engine;
    });
