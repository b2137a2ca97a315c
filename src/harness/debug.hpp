/**
 * @file
 * Interactive-style debugging utilities over any engine (case studies
 * 1 and 3).
 *
 * The paper's debugging experience comes from running Cuttlesim models
 * under gdb/rr: breakpoints on FAIL(), watchpoints on read-write sets,
 * reverse execution to find a previous write, symbolic printing of enums
 * and structs. This harness reproduces the same moves programmatically
 * on top of the committed-state interface, so the examples can script
 * the case studies end to end:
 *
 *  - Debugger::step() advances one cycle and records a snapshot ring
 *    buffer (rr's reverse execution over committed state);
 *  - break_on_abort acts like `break FAIL` for a chosen rule;
 *  - last_change acts like a hardware watchpoint run backwards ("which
 *    cycle last wrote this register, and what did the write change?");
 *  - reg_str prints registers with enum members and struct fields
 *    resolved symbolically, like gdb on the generated C++ types.
 *
 * The debugger drives any sim::Model. Optional capabilities are
 * discovered by dynamic_cast, the same way the observability layer
 * does: rule breakpoints and fired-set history need RuleStatsModel,
 * mid-cycle stepping needs a TierModel (check can_step_rules() or call
 * tier_model()). History beyond the ring is durable when spilling is
 * enabled: evicted frames are appended to a cuttlesim-ckpt-v1 spill
 * stream (replay/checkpoint.hpp), so reverse watchpoints keep working
 * past the ring capacity instead of silently losing the answer.
 */
#pragma once

#include <deque>
#include <fstream>
#include <functional>
#include <typeinfo>

#include "base/io.hpp"
#include "koika/print.hpp"
#include "replay/checkpoint.hpp"
#include "sim/tiers.hpp"

namespace koika::harness {

/**
 * Result of a reverse watchpoint. The old int convention (ago, or -1
 * for "no change") conflated "this register genuinely never changed"
 * with "the change fell off the history ring"; rr would never do that,
 * and case study 3 needs the distinction.
 */
struct LastChange
{
    enum Status {
        /** Change located: new value first appeared `ago` frames back. */
        kFound,
        /** Complete recorded history, and the value never changed. */
        kNeverChanged,
        /** Frames were dropped without a spill stream: unknowable. */
        kTruncated,
    };

    Status status = kTruncated;
    /** Recorded cycles back (0 = changed into the most recent frame).
     *  Meaningful only when status == kFound. */
    uint64_t ago = 0;

    bool found() const { return status == kFound; }
};

class Debugger
{
  public:
    Debugger(const Design& design, sim::Model& model,
             size_t history = 256)
        : d_(design), m_(model),
          stats_(dynamic_cast<sim::RuleStatsModel*>(&model)),
          tier_(dynamic_cast<sim::TierModel*>(&model)),
          capacity_(history)
    {
    }

    /**
     * Spill evicted frames to `path` (truncated now, appended to as
     * the ring wraps) instead of dropping them. With a spill stream,
     * last_change never reports kTruncated.
     */
    void
    enable_spill(const std::string& path)
    {
        spill_path_ = path;
        spill_fp_ = d_.fingerprint();
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot open debugger spill file '%s'", path.c_str());
    }

    /** Advance one cycle, recording history. */
    void
    step()
    {
        m_.cycle();
        Frame frame;
        frame.cycle = m_.cycles_run();
        frame.state.reserve(d_.num_registers());
        for (size_t r = 0; r < d_.num_registers(); ++r)
            frame.state.push_back(m_.get_reg((int)r));
        if (stats_ != nullptr)
            frame.fired = stats_->fired();
        history_.push_back(std::move(frame));
        if (history_.size() > capacity_) {
            if (!spill_path_.empty())
                spill(history_.front());
            history_.pop_front();
            ++dropped_;
        }
    }

    /** Run until `pred` holds (checked after each cycle) or budget. */
    uint64_t
    run_until(const std::function<bool()>& pred, uint64_t max_cycles)
    {
        for (uint64_t c = 0; c < max_cycles; ++c) {
            step();
            if (pred())
                return c + 1;
        }
        return max_cycles;
    }

    /** `break FAIL` for one rule: run until it aborts. */
    uint64_t
    break_on_abort(const std::string& rule_name, uint64_t max_cycles)
    {
        sim::RuleStatsModel& rs = require_stats();
        int rule = d_.rule_index(rule_name);
        KOIKA_CHECK(rule >= 0);
        uint64_t before = rs.rule_abort_counts()[(size_t)rule];
        return run_until(
            [&] {
                return rs.rule_abort_counts()[(size_t)rule] > before;
            },
            max_cycles);
    }

    /** Run until a rule commits. */
    uint64_t
    break_on_commit(const std::string& rule_name, uint64_t max_cycles)
    {
        sim::RuleStatsModel& rs = require_stats();
        int rule = d_.rule_index(rule_name);
        KOIKA_CHECK(rule >= 0);
        uint64_t before = rs.rule_commit_counts()[(size_t)rule];
        return run_until(
            [&] {
                return rs.rule_commit_counts()[(size_t)rule] > before;
            },
            max_cycles);
    }

    /** Committed register value, printed symbolically. */
    std::string
    reg_str(const std::string& name) const
    {
        int reg = d_.reg_index(name);
        KOIKA_CHECK(reg >= 0);
        return format_value(d_.reg(reg).type, m_.get_reg(reg));
    }

    /**
     * Reverse watchpoint: how many recorded cycles ago did this
     * register last change? ago == 0 means the new value first
     * appeared in the most recent recorded frame; that frame itself
     * only supplies the reference value compared against older frames.
     * Searches the ring first, then the spill stream when one is
     * enabled. kNeverChanged is only claimed when the recorded history
     * is complete back to the first step() of this debugger.
     */
    LastChange
    last_change(const std::string& name) const
    {
        int reg = d_.reg_index(name);
        KOIKA_CHECK(reg >= 0);
        LastChange lc;
        if (history_.empty())
            return lc; // nothing recorded: kTruncated
        const Bits& current = history_.back().state[(size_t)reg];
        for (size_t i = history_.size(); i-- > 1;) {
            if (history_[i - 1].state[(size_t)reg] != current) {
                lc.status = LastChange::kFound;
                lc.ago = history_.size() - 1 - i;
                return lc;
            }
        }
        if (dropped_ == 0) {
            lc.status = LastChange::kNeverChanged;
            return lc;
        }
        if (spill_path_.empty())
            return lc; // frames lost, no spill: kTruncated
        // Spilled frames are consecutive cycles ending right before the
        // oldest ring frame; walk them newest-first.
        std::vector<replay::Checkpoint> spilled = replay::
            parse_spill_stream(read_file(spill_path_));
        uint64_t back = history_.back().cycle;
        for (size_t i = spilled.size(); i-- > 0;) {
            if (spilled[i].regs[(size_t)reg] != current) {
                lc.status = LastChange::kFound;
                lc.ago = back - (spilled[i].cycle + 1);
                return lc;
            }
        }
        lc.status = LastChange::kNeverChanged;
        return lc;
    }

    /** Register value as of `ago` recorded cycles back. */
    std::string
    reg_str_ago(const std::string& name, size_t ago) const
    {
        int reg = d_.reg_index(name);
        KOIKA_CHECK(reg >= 0 && ago < history_.size());
        const Bits& v =
            history_[history_.size() - 1 - ago].state[(size_t)reg];
        return format_value(d_.reg(reg).type, v);
    }

    /** Which rules committed, `ago` recorded cycles back. */
    std::vector<std::string>
    fired_rules_ago(size_t ago) const
    {
        KOIKA_CHECK(ago < history_.size());
        const Frame& f = history_[history_.size() - 1 - ago];
        std::vector<std::string> names;
        for (size_t r = 0; r < f.fired.size(); ++r)
            if (f.fired[r])
                names.push_back(d_.rule((int)r).name);
        return names;
    }

    sim::Model& model() { return m_; }

    /** True when the engine supports mid-cycle rule stepping. */
    bool can_step_rules() const { return tier_ != nullptr; }

    /** The TierModel interface (begin_step_cycle/step_rule/...);
     *  FatalError when this engine cannot step mid-cycle. */
    sim::TierModel&
    tier_model()
    {
        if (tier_ == nullptr)
            fatal("this engine does not support mid-cycle stepping "
                  "(needs an interpreter tier, not '%s')",
                  typeid(m_).name());
        return *tier_;
    }

    const Design& design() const { return d_; }
    size_t recorded() const { return history_.size(); }
    /** Frames evicted from the ring so far (spilled or lost). */
    uint64_t dropped() const { return dropped_; }

  private:
    struct Frame
    {
        uint64_t cycle;
        std::vector<Bits> state;
        std::vector<bool> fired;
    };

    sim::RuleStatsModel&
    require_stats()
    {
        if (stats_ == nullptr)
            fatal("this engine does not expose rule statistics "
                  "(RuleStatsModel), so rule breakpoints are "
                  "unavailable");
        return *stats_;
    }

    void
    spill(const Frame& frame)
    {
        replay::Checkpoint ck;
        ck.design = d_.name();
        ck.fingerprint = spill_fp_;
        ck.cycle = frame.cycle;
        for (size_t r = 0; r < frame.state.size(); ++r) {
            ck.widths.push_back(d_.reg((int)r).type->width);
            ck.regs.push_back(frame.state[r]);
        }
        sim::StateWriter w;
        w.put_bool_vec(frame.fired);
        ck.set_section("fired", w.take());
        std::string record;
        replay::append_spill_record(record, ck);
        std::ofstream out(spill_path_,
                          std::ios::binary | std::ios::app);
        if (!out || !out.write(record.data(),
                               (std::streamsize)record.size()))
            fatal("cannot append to debugger spill file '%s'",
                  spill_path_.c_str());
    }

    const Design& d_;
    sim::Model& m_;
    sim::RuleStatsModel* stats_;
    sim::TierModel* tier_;
    size_t capacity_;
    std::deque<Frame> history_;
    uint64_t dropped_ = 0;
    std::string spill_path_;
    std::string spill_fp_;
};

} // namespace koika::harness
