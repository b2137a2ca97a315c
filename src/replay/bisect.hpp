/**
 * @file
 * Automatic first-divergence bisection between two engines.
 *
 * Case study 3's workflow, automated: when two engines (or one engine
 * and a perturbed copy) disagree somewhere inside a long run, finding
 * the first divergent cycle by comparing every cycle costs a full-state
 * compare per cycle. This module does what rr's reverse execution does
 * over committed state instead: run both engines in lockstep taking
 * periodic checkpoints and comparing only at checkpoint boundaries,
 * then binary-search inside the first disagreeing interval by restoring
 * from the last agreeing checkpoint and replaying to the midpoint.
 * Because engines are deterministic functions of committed state (the
 * paper's cycle-accuracy contract) and checkpoints capture peripheral
 * state too, every replay reproduces the original run exactly, and the
 * search converges on the precise cycle, register, and firing sets of
 * the first disagreement.
 */
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "koika/design.hpp"
#include "obs/json.hpp"
#include "replay/checkpoint.hpp"
#include "sim/model.hpp"

namespace koika::replay {

struct BisectConfig
{
    /** Lockstep horizon, in cycles. */
    uint64_t horizon = 1000;
    /**
     * Checkpoint/compare stride for the scan phase; 0 picks
     * max(1, horizon/16). Full-state compares happen only at stride
     * boundaries until the bracket is found.
     */
    uint64_t stride = 0;
    /**
     * Optional deterministic perturbation of subject B, applied at
     * every cycle boundary after the stimulus; receives the number of
     * committed cycles (1-based). Must be a pure function of that
     * count, so replays from a checkpoint reproduce it.
     */
    std::function<void(sim::Model&, uint64_t)> perturb_b;
};

struct DivergenceReport
{
    bool diverged = false;
    /** First cycle (1-based committed-cycle count) whose post-boundary
     *  committed state differs. */
    uint64_t cycle = 0;
    /** First divergent register (design order) and its name. */
    int reg = -1;
    std::string reg_name;
    /** The disagreeing values, rendered. */
    std::string value_a, value_b;
    /** Rules that committed during the divergent cycle, per engine. */
    std::vector<std::string> fired_a, fired_b;

    /** Engine labels, filled by the caller for reporting. */
    std::string engine_a, engine_b;

    // -- Search effort (how much work bisection saved/spent). ---------
    uint64_t checkpoints = 0;
    uint64_t replayed_cycles = 0;
    uint64_t state_compares = 0;

    obs::Json to_json() const;
    std::string to_text() const;
};

/**
 * Find the first divergent cycle between two subjects over `horizon`
 * cycles. Checkpoint-and-replay: O(horizon) forward work, O(log stride)
 * replays inside the bracket, full-state compares only at boundaries
 * and probe points.
 */
DivergenceReport bisect_divergence(const Design& design,
                                   const SubjectFactory& make_a,
                                   const SubjectFactory& make_b,
                                   const BisectConfig& config);

} // namespace koika::replay
