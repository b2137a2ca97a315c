/**
 * @file
 * The reference interpreter: Kôika's specification semantics.
 *
 * Implements the naive model of §3.1 directly: a beginning-of-cycle state,
 * a cycle log, and a rule log, where each log entry stores the read/write
 * set (rd0/rd1/wr0/wr1) and the data written at each port. Every other
 * execution engine in this repository (the Cuttlesim tiers, the generated
 * C++ models, the RTL simulators) is differential-tested against this
 * interpreter's committed register trace.
 *
 * Port semantics (paper §3.1):
 *  - rd0: forbidden if the cycle log has a write at either port; returns
 *    the beginning-of-cycle value.
 *  - rd1: forbidden if the cycle log has a wr1; returns the latest wr0
 *    data (rule log, then cycle log), else the beginning-of-cycle value.
 *  - wr0: forbidden if either log has rd1, wr0, or wr1.
 *  - wr1: forbidden if either log has wr1.
 *
 * A forbidden access aborts the rule: evaluation returns false up the
 * call chain (an early exit, as in the Cuttlesim tiers) and the rule log
 * is discarded. The logs are dense per-register arrays, but the
 * interpreter remembers which entries a rule and a cycle touched, so
 * resets, merges and the commit cost what the rule did rather than the
 * size of the design.
 */
#pragma once

#include <vector>

#include "koika/design.hpp"

namespace koika {

/** Read/write set plus port data for one register in one log. */
struct LogEntry
{
    bool rd0 = false;
    bool rd1 = false;
    bool wr0 = false;
    bool wr1 = false;
    Bits data0;
    Bits data1;

    bool empty() const { return !(rd0 || rd1 || wr0 || wr1); }
};

class ReferenceSim
{
  public:
    explicit ReferenceSim(const Design& design);

    /** Run one cycle using the design's scheduler. */
    void cycle();

    /**
     * Run one cycle with an explicit rule order (case study 2:
     * scheduler randomization).
     */
    void cycle_with_order(const std::vector<int>& order);

    /** Committed architectural state (valid between cycles). */
    const std::vector<Bits>& state() const { return state_; }
    const Bits& reg(int i) const { return state_[(size_t)i]; }
    /** Poke a register between cycles (peripherals, test setup). */
    void set_reg(int i, Bits v);

    /** Which rules committed during the most recent cycle. */
    const std::vector<bool>& fired() const { return fired_; }

    uint64_t cycles_run() const { return cycles_; }

    const Design& design() const { return d_; }

    /**
     * Enable Gcov-style execution counting: every AST node's evaluation
     * count is recorded (case study 4 gathers architectural statistics
     * this way — see harness/coverage.hpp for the annotated report).
     */
    void enable_coverage();
    /** Per-node execution counts (indexed by Action::id). */
    const std::vector<uint64_t>& coverage() const { return coverage_; }
    /** Per-node branch outcomes (meaningful at `if`/`guard` nodes):
     *  condition truthy / guard passed. Empty until enable_coverage. */
    const std::vector<uint64_t>& branch_taken() const { return taken_; }
    /** Else arm taken / guard failed. */
    const std::vector<uint64_t>& branch_not_taken() const
    {
        return not_taken_;
    }

    /** Checkpoint restore: overwrite the cycle counter and last fired
     *  set (sizes must already match the design). */
    void
    restore_progress(uint64_t cycles, std::vector<bool> fired)
    {
        cycles_ = cycles;
        fired_ = std::move(fired);
    }
    /** Checkpoint restore: overwrite the per-node counters; implies
     *  enable_coverage. */
    void
    restore_coverage(std::vector<uint64_t> stmt,
                     std::vector<uint64_t> taken,
                     std::vector<uint64_t> not_taken)
    {
        enable_coverage();
        coverage_ = std::move(stmt);
        taken_ = std::move(taken);
        not_taken_ = std::move(not_taken);
    }

  private:
    /** Run one rule; returns true if it committed. */
    bool run_rule(int rule_index);
    /** Evaluate `a` into `out`; false means the rule aborted. */
    bool eval(const Action* a, Bits& out);
    bool do_read(const Action* a, Bits& out);
    bool do_write(const Action* a, Bits& value);
    /** Enter a rule or call: the pooled frame at the next depth. */
    std::vector<Bits>& push_frame(size_t nslots);
    /** The innermost active frame (rule or call). */
    std::vector<Bits>& frame() { return frames_[depth_ - 1]; }

    const Design& d_;
    std::vector<Bits> state_;
    std::vector<LogEntry> cycle_log_;
    std::vector<LogEntry> rule_log_;
    /** Registers whose entry in rule_log_ / cycle_log_ is not empty:
     *  resets, merges and the commit walk only these. */
    std::vector<int> rule_touched_;
    std::vector<int> cycle_touched_;
    /** Evaluation frames indexed by depth (rule frame, then one per
     *  active call), reused across rules and cycles. */
    std::vector<std::vector<Bits>> frames_;
    size_t depth_ = 0;
    /** Evaluated call arguments waiting for their callee's frame. */
    std::vector<Bits> args_;
    std::vector<bool> fired_;
    uint64_t cycles_ = 0;
    bool coverage_enabled_ = false;
    std::vector<uint64_t> coverage_;
    std::vector<uint64_t> taken_, not_taken_;
};

} // namespace koika
