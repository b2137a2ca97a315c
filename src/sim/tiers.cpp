#include "sim/tiers.hpp"

#include <cstring>

#include "analysis/analysis.hpp"
#include "base/error.hpp"
#include "sim/state.hpp"

namespace koika::sim {

const char*
tier_name(Tier tier)
{
    switch (tier) {
      case Tier::kT0Naive: return "T0-naive";
      case Tier::kT1SplitSets: return "T1-split-sets";
      case Tier::kT2Accumulate: return "T2-accumulate";
      case Tier::kT3ResetOnFail: return "T3-reset-on-fail";
      case Tier::kT4MergedData: return "T4-merged-data";
      case Tier::kT5StaticAnalysis: return "T5-static-analysis";
    }
    return "?";
}

namespace {

// Read-write set bits (one byte per register in the split-set tiers).
constexpr uint8_t kRd0 = 1;
constexpr uint8_t kRd1 = 2;
constexpr uint8_t kWr0 = 4;
constexpr uint8_t kWr1 = 8;
constexpr uint8_t kWrAny = kWr0 | kWr1;

// ---------------------------------------------------------------------------
// T0: the naive model of §3.1. Read-write sets interleaved with data in
// one structure per register; separate beginning-of-cycle state.
// ---------------------------------------------------------------------------
class PolicyT0
{
  public:
    static constexpr bool kScheduleSpecialized = false;

    explicit PolicyT0(const Design& d)
        : state_(d.initial_state()), cycle_(d.num_registers()),
          rule_(d.num_registers())
    {
    }

    void
    begin_cycle()
    {
        // Clearing interleaved logs walks every entry (the cost this
        // representation pays; §3.2 "Separate read-write sets and data").
        for (Entry& e : cycle_)
            e.clear_flags();
    }

    void
    begin_rule(int)
    {
        for (Entry& e : rule_)
            e.clear_flags();
    }

    bool
    read(const Action* a, Bits& out)
    {
        Entry& cl = cycle_[(size_t)a->reg];
        Entry& rl = rule_[(size_t)a->reg];
        if (a->port == Port::p0) {
            if (cl.wr0 || cl.wr1)
                return false;
            rl.rd0 = true;
            out = state_[(size_t)a->reg];
        } else {
            if (cl.wr1)
                return false;
            rl.rd1 = true;
            out = rl.wr0 ? rl.data0
                         : cl.wr0 ? cl.data0 : state_[(size_t)a->reg];
        }
        return true;
    }

    bool
    write(const Action* a, const Bits& v)
    {
        Entry& cl = cycle_[(size_t)a->reg];
        Entry& rl = rule_[(size_t)a->reg];
        if (a->port == Port::p0) {
            if (cl.rd1 || cl.wr0 || cl.wr1 || rl.rd1 || rl.wr0 || rl.wr1)
                return false;
            rl.wr0 = true;
            rl.data0 = v;
        } else {
            if (cl.wr1 || rl.wr1)
                return false;
            rl.wr1 = true;
            rl.data1 = v;
        }
        return true;
    }

    void
    commit_rule(int)
    {
        for (size_t i = 0; i < cycle_.size(); ++i) {
            Entry& cl = cycle_[i];
            const Entry& rl = rule_[i];
            cl.rd0 |= rl.rd0;
            cl.rd1 |= rl.rd1;
            if (rl.wr0) {
                cl.wr0 = true;
                cl.data0 = rl.data0;
            }
            if (rl.wr1) {
                cl.wr1 = true;
                cl.data1 = rl.data1;
            }
        }
    }

    void
    fail_rule(int, const Action*)
    {
    }

    void
    end_cycle()
    {
        for (size_t i = 0; i < cycle_.size(); ++i) {
            if (cycle_[i].wr1)
                state_[i] = cycle_[i].data1;
            else if (cycle_[i].wr0)
                state_[i] = cycle_[i].data0;
        }
    }

    Bits get_committed(int r) const { return state_[(size_t)r]; }
    void set_committed(int r, const Bits& v) { state_[(size_t)r] = v; }

    Bits
    get_intermediate(int r) const
    {
        const Entry& e = cycle_[(size_t)r];
        return e.wr1 ? e.data1 : e.wr0 ? e.data0 : state_[(size_t)r];
    }

  private:
    struct Entry
    {
        bool rd0 = false, rd1 = false, wr0 = false, wr1 = false;
        Bits data0, data1;

        void
        clear_flags()
        {
            rd0 = rd1 = wr0 = wr1 = false;
        }
    };

    std::vector<Bits> state_;
    std::vector<Entry> cycle_, rule_;
};

// ---------------------------------------------------------------------------
// T1: split read-write sets from data; resets become bulk zeroing.
// ---------------------------------------------------------------------------
class PolicyT1
{
  public:
    static constexpr bool kScheduleSpecialized = false;

    explicit PolicyT1(const Design& d)
        : state_(d.initial_state()), n_(d.num_registers()),
          cycle_flags_(n_, 0), rule_flags_(n_, 0), cycle_data0_(n_),
          cycle_data1_(n_), rule_data0_(n_), rule_data1_(n_)
    {
    }

    void
    begin_cycle()
    {
        std::memset(cycle_flags_.data(), 0, n_);
    }

    void
    begin_rule(int)
    {
        std::memset(rule_flags_.data(), 0, n_);
    }

    bool
    read(const Action* a, Bits& out)
    {
        size_t r = (size_t)a->reg;
        if (a->port == Port::p0) {
            if (cycle_flags_[r] & kWrAny)
                return false;
            rule_flags_[r] |= kRd0;
            out = state_[r];
        } else {
            if (cycle_flags_[r] & kWr1)
                return false;
            rule_flags_[r] |= kRd1;
            out = (rule_flags_[r] & kWr0)
                      ? rule_data0_[r]
                      : (cycle_flags_[r] & kWr0) ? cycle_data0_[r]
                                                 : state_[r];
        }
        return true;
    }

    bool
    write(const Action* a, const Bits& v)
    {
        size_t r = (size_t)a->reg;
        if (a->port == Port::p0) {
            if ((cycle_flags_[r] | rule_flags_[r]) & (kRd1 | kWr0 | kWr1))
                return false;
            rule_flags_[r] |= kWr0;
            rule_data0_[r] = v;
        } else {
            if ((cycle_flags_[r] | rule_flags_[r]) & kWr1)
                return false;
            rule_flags_[r] |= kWr1;
            rule_data1_[r] = v;
        }
        return true;
    }

    void
    commit_rule(int)
    {
        for (size_t r = 0; r < n_; ++r) {
            uint8_t rf = rule_flags_[r];
            cycle_flags_[r] |= rf;
            if (rf & kWr0)
                cycle_data0_[r] = rule_data0_[r];
            if (rf & kWr1)
                cycle_data1_[r] = rule_data1_[r];
        }
    }

    void
    fail_rule(int, const Action*)
    {
    }

    void
    end_cycle()
    {
        for (size_t r = 0; r < n_; ++r) {
            if (cycle_flags_[r] & kWr1)
                state_[r] = cycle_data1_[r];
            else if (cycle_flags_[r] & kWr0)
                state_[r] = cycle_data0_[r];
        }
    }

    Bits get_committed(int r) const { return state_[(size_t)r]; }
    void set_committed(int r, const Bits& v) { state_[(size_t)r] = v; }

    Bits
    get_intermediate(int r) const
    {
        uint8_t f = cycle_flags_[(size_t)r];
        return (f & kWr1) ? cycle_data1_[(size_t)r]
               : (f & kWr0) ? cycle_data0_[(size_t)r]
                            : state_[(size_t)r];
    }

  private:
    std::vector<Bits> state_;
    size_t n_;
    std::vector<uint8_t> cycle_flags_, rule_flags_;
    std::vector<Bits> cycle_data0_, cycle_data1_, rule_data0_, rule_data1_;
};

// ---------------------------------------------------------------------------
// T2/T3: accumulated rule log L ++ l. Writes check a single log; rule
// commits are plain copies. T2 resets the accumulated log on every rule
// entry; T3 maintains the invariant acc == cycle at rule boundaries and
// only restores on failure (§3.2 "Reset on failure, not on entry").
// ---------------------------------------------------------------------------
template <bool kResetOnFail>
class PolicyT23
{
  public:
    static constexpr bool kScheduleSpecialized = false;

    explicit PolicyT23(const Design& d)
        : state_(d.initial_state()), n_(d.num_registers()),
          cycle_flags_(n_, 0), acc_flags_(n_, 0), cycle_data0_(n_),
          cycle_data1_(n_), acc_data0_(n_), acc_data1_(n_)
    {
    }

    void
    begin_cycle()
    {
        std::memset(cycle_flags_.data(), 0, n_);
        if (kResetOnFail)
            std::memset(acc_flags_.data(), 0, n_);
    }

    void
    begin_rule(int)
    {
        if (!kResetOnFail)
            restore_acc();
    }

    bool
    read(const Action* a, Bits& out)
    {
        size_t r = (size_t)a->reg;
        if (a->port == Port::p0) {
            // rd0 still checks the *cycle* log only (an intra-rule wr0
            // does not forbid rd0; cf. the Goldbergian example).
            if (cycle_flags_[r] & kWrAny)
                return false;
            acc_flags_[r] |= kRd0;
            out = state_[r];
        } else {
            if (cycle_flags_[r] & kWr1)
                return false;
            acc_flags_[r] |= kRd1;
            out = (acc_flags_[r] & kWr0) ? acc_data0_[r] : state_[r];
        }
        return true;
    }

    bool
    write(const Action* a, const Bits& v)
    {
        size_t r = (size_t)a->reg;
        if (a->port == Port::p0) {
            // Single-log check: acc already contains the cycle log.
            if (acc_flags_[r] & (kRd1 | kWr0 | kWr1))
                return false;
            acc_flags_[r] |= kWr0;
            acc_data0_[r] = v;
        } else {
            if (acc_flags_[r] & kWr1)
                return false;
            acc_flags_[r] |= kWr1;
            acc_data1_[r] = v;
        }
        return true;
    }

    void
    commit_rule(int)
    {
        cycle_flags_ = acc_flags_;
        cycle_data0_ = acc_data0_;
        cycle_data1_ = acc_data1_;
    }

    void
    fail_rule(int, const Action*)
    {
        if (kResetOnFail)
            restore_acc();
    }

    void
    end_cycle()
    {
        for (size_t r = 0; r < n_; ++r) {
            if (cycle_flags_[r] & kWr1)
                state_[r] = cycle_data1_[r];
            else if (cycle_flags_[r] & kWr0)
                state_[r] = cycle_data0_[r];
        }
    }

    Bits get_committed(int r) const { return state_[(size_t)r]; }
    void set_committed(int r, const Bits& v) { state_[(size_t)r] = v; }

    Bits
    get_intermediate(int r) const
    {
        uint8_t f = cycle_flags_[(size_t)r];
        return (f & kWr1) ? cycle_data1_[(size_t)r]
               : (f & kWr0) ? cycle_data0_[(size_t)r]
                            : state_[(size_t)r];
    }

  private:
    void
    restore_acc()
    {
        acc_flags_ = cycle_flags_;
        acc_data0_ = cycle_data0_;
        acc_data1_ = cycle_data1_;
    }

    std::vector<Bits> state_;
    size_t n_;
    std::vector<uint8_t> cycle_flags_, acc_flags_;
    std::vector<Bits> cycle_data0_, cycle_data1_, acc_data0_, acc_data1_;
};

// ---------------------------------------------------------------------------
// T4: merged data0/data1 and no separate beginning-of-cycle state. The
// cycle log's data doubles as the architectural state; the accumulated
// log's data is always valid for rd1.
// ---------------------------------------------------------------------------
class PolicyT4
{
  public:
    static constexpr bool kScheduleSpecialized = false;

    explicit PolicyT4(const Design& d)
        : n_(d.num_registers()), cycle_flags_(n_, 0), acc_flags_(n_, 0),
          cycle_data_(d.initial_state()), acc_data_(d.initial_state())
    {
    }

    void
    begin_cycle()
    {
        std::memset(cycle_flags_.data(), 0, n_);
        std::memset(acc_flags_.data(), 0, n_);
    }

    void begin_rule(int) {}

    bool
    read(const Action* a, Bits& out)
    {
        size_t r = (size_t)a->reg;
        if (a->port == Port::p0) {
            // Legal rd0 implies no committed write yet, so the cycle
            // log's data still holds the beginning-of-cycle value.
            if (cycle_flags_[r] & kWrAny)
                return false;
            acc_flags_[r] |= kRd0;
            out = cycle_data_[r];
        } else {
            if (cycle_flags_[r] & kWr1)
                return false;
            acc_flags_[r] |= kRd1;
            out = acc_data_[r];
        }
        return true;
    }

    bool
    write(const Action* a, const Bits& v)
    {
        size_t r = (size_t)a->reg;
        if (a->port == Port::p0) {
            if (acc_flags_[r] & (kRd1 | kWr0 | kWr1))
                return false;
            acc_flags_[r] |= kWr0;
        } else {
            if (acc_flags_[r] & kWr1)
                return false;
            acc_flags_[r] |= kWr1;
        }
        acc_data_[r] = v;
        return true;
    }

    void
    commit_rule(int)
    {
        cycle_flags_ = acc_flags_;
        cycle_data_ = acc_data_;
    }

    void
    fail_rule(int, const Action*)
    {
        acc_flags_ = cycle_flags_;
        acc_data_ = cycle_data_;
    }

    void
    end_cycle()
    {
        // Nothing: the cycle log's data *is* the committed state.
    }

    Bits get_committed(int r) const { return cycle_data_[(size_t)r]; }

    void
    set_committed(int r, const Bits& v)
    {
        cycle_data_[(size_t)r] = v;
        acc_data_[(size_t)r] = v;
    }

    // Merged data + no separate state: mid-cycle snapshots are free
    // (§3.2) — the cycle log's data is the intermediate state.
    Bits get_intermediate(int r) const { return cycle_data_[(size_t)r]; }

  private:
    size_t n_;
    std::vector<uint8_t> cycle_flags_, acc_flags_;
    std::vector<Bits> cycle_data_, acc_data_;
};

// ---------------------------------------------------------------------------
// T5: T4 plus every design-specific optimization of §3.3 - checks elided
// where the abstract interpretation proves them redundant, no tracking
// for safe registers, footprint-restricted commit/rollback (falling back
// to whole-log copies for wide rules), and rollback-free early failures.
// ---------------------------------------------------------------------------
class PolicyT5
{
  public:
    static constexpr bool kScheduleSpecialized = true;

    PolicyT5(const Design& d, analysis::DesignAnalysis an)
        : an_(std::move(an)), n_(d.num_registers()), cycle_flags_(n_, 0),
          acc_flags_(n_, 0), cycle_data_(d.initial_state()),
          acc_data_(d.initial_state())
    {
        for (size_t r = 0; r < n_; ++r)
            if (!an_.reg_safe[r])
                tracked_.push_back((int)r);
        // Per-rule commit/rollback plans.
        size_t nrules = d.num_rules();
        fp_flags_.resize(nrules);
        fp_data_.resize(nrules);
        full_copy_.resize(nrules, false);
        for (size_t ru = 0; ru < nrules; ++ru) {
            const auto& summary = an_.rules[ru];
            for (int r : summary.footprint_tracked)
                if (!an_.reg_safe[(size_t)r])
                    fp_flags_[ru].push_back(r);
            fp_data_[ru] = summary.footprint_writes;
            // §3.3: if a rule touches most of the registers, one bulk
            // copy beats many field copies.
            full_copy_[ru] = fp_data_[ru].size() * 2 > n_;
        }
    }

    void
    begin_cycle()
    {
        for (int r : tracked_) {
            cycle_flags_[(size_t)r] = 0;
            acc_flags_[(size_t)r] = 0;
        }
    }

    void begin_rule(int) {}

    bool
    read(const Action* a, Bits& out)
    {
        size_t r = (size_t)a->reg;
        const analysis::OpInfo& op = an_.ops[(size_t)a->id];
        if (a->port == Port::p0) {
            if (op.may_fail && (cycle_flags_[r] & kWrAny))
                return false;
            // rd0 marks are never consulted: tracking removed (§3.3
            // "Minimize read-write sets").
            out = cycle_data_[r];
        } else {
            if (op.may_fail && (cycle_flags_[r] & kWr1))
                return false;
            if (!an_.reg_safe[r])
                acc_flags_[r] |= kRd1;
            out = acc_data_[r];
        }
        return true;
    }

    bool
    write(const Action* a, const Bits& v)
    {
        size_t r = (size_t)a->reg;
        const analysis::OpInfo& op = an_.ops[(size_t)a->id];
        if (a->port == Port::p0) {
            if (op.may_fail && (acc_flags_[r] & (kRd1 | kWr0 | kWr1)))
                return false;
            if (!an_.reg_safe[r])
                acc_flags_[r] |= kWr0;
        } else {
            if (op.may_fail && (acc_flags_[r] & kWr1))
                return false;
            if (!an_.reg_safe[r])
                acc_flags_[r] |= kWr1;
        }
        acc_data_[r] = v;
        return true;
    }

    void
    commit_rule(int rule)
    {
        if (full_copy_[(size_t)rule]) {
            cycle_flags_ = acc_flags_;
            cycle_data_ = acc_data_;
            return;
        }
        for (int r : fp_flags_[(size_t)rule])
            cycle_flags_[(size_t)r] = acc_flags_[(size_t)r];
        for (int r : fp_data_[(size_t)rule])
            cycle_data_[(size_t)r] = acc_data_[(size_t)r];
    }

    void
    fail_rule(int rule, const Action* fail_point)
    {
        // Early failures with a pristine log exit without rollback.
        if (fail_point != nullptr &&
            an_.ops[(size_t)fail_point->id].clean_at_fail)
            return;
        if (full_copy_[(size_t)rule]) {
            acc_flags_ = cycle_flags_;
            acc_data_ = cycle_data_;
            return;
        }
        for (int r : fp_flags_[(size_t)rule])
            acc_flags_[(size_t)r] = cycle_flags_[(size_t)r];
        for (int r : fp_data_[(size_t)rule])
            acc_data_[(size_t)r] = cycle_data_[(size_t)r];
    }

    void end_cycle() {}

    Bits get_committed(int r) const { return cycle_data_[(size_t)r]; }

    void
    set_committed(int r, const Bits& v)
    {
        cycle_data_[(size_t)r] = v;
        acc_data_[(size_t)r] = v;
    }

    Bits get_intermediate(int r) const { return cycle_data_[(size_t)r]; }

  private:
    analysis::DesignAnalysis an_;
    size_t n_;
    std::vector<uint8_t> cycle_flags_, acc_flags_;
    std::vector<Bits> cycle_data_, acc_data_;
    std::vector<int> tracked_;
    std::vector<std::vector<int>> fp_flags_, fp_data_;
    std::vector<bool> full_copy_;
};

// ---------------------------------------------------------------------------
// The shared expression evaluator, templated on the transaction policy.
// ---------------------------------------------------------------------------
template <typename Policy>
class TierEngine final : public TierModel, public CheckpointableModel
{
  public:
    TierEngine(const Design& d, Policy policy)
        : d_(d), p_(std::move(policy)), fired_(d.num_rules(), false),
          commits_(d.num_rules(), 0), aborts_(d.num_rules(), 0),
          reasons_(d.num_rules() * (size_t)kNumAbortReasons, 0)
    {
        KOIKA_CHECK(d.typechecked);
    }

    void
    cycle() override
    {
        run(d_.schedule_order());
    }

    void
    cycle_with_order(const std::vector<int>& order) override
    {
        if (Policy::kScheduleSpecialized)
            fatal("this engine tier is specialized to the design's "
                  "schedule and cannot run custom rule orders");
        run(order);
    }

    Bits get_reg(int r) const override { return p_.get_committed(r); }

    void
    set_reg(int r, const Bits& v) override
    {
        KOIKA_CHECK(v.width() == d_.reg(r).type->width);
        p_.set_committed(r, v);
    }

    uint64_t cycles_run() const override { return cycles_; }
    size_t num_regs() const override { return d_.num_registers(); }
    size_t num_rules() const override { return d_.num_rules(); }
    std::string rule_name(int r) const override { return d_.rule(r).name; }
    const std::vector<bool>& fired() const override { return fired_; }

    const std::vector<uint64_t>&
    rule_commit_counts() const override
    {
        return commits_;
    }

    const std::vector<uint64_t>&
    rule_abort_counts() const override
    {
        return aborts_;
    }

    const std::vector<uint64_t>&
    rule_abort_reason_counts() const override
    {
        return reasons_;
    }

    void
    begin_step_cycle() override
    {
        p_.begin_cycle();
        fired_.assign(fired_.size(), false);
    }

    bool
    step_rule(int rule) override
    {
        return run_one_rule(rule);
    }

    void
    end_step_cycle() override
    {
        p_.end_cycle();
        ++cycles_;
    }

    Bits get_mid_reg(int reg) const override
    {
        return p_.get_intermediate(reg);
    }

    // -- CoverageModel. The evaluator counts every node it visits (the
    // cheapest uniform rule); consumers mask the counts down to the
    // classified statement/branch points (analysis::coverage_points),
    // where all engines agree.
    void
    enable_coverage() override
    {
        if (cov_on_)
            return;
        cov_on_ = true;
        cov_stmt_.assign(d_.num_nodes(), 0);
        cov_taken_.assign(d_.num_nodes(), 0);
        cov_not_taken_.assign(d_.num_nodes(), 0);
    }

    size_t num_nodes() const override { return d_.num_nodes(); }

    const std::vector<uint64_t>& stmt_counts() const override
    {
        return cov_stmt_;
    }

    const std::vector<uint64_t>& branch_taken_counts() const override
    {
        return cov_taken_;
    }

    const std::vector<uint64_t>& branch_not_taken_counts() const override
    {
        return cov_not_taken_;
    }

    // -- CheckpointableModel. Every tier keeps the same auxiliary
    // state (the policies differ only in transaction mechanics, which
    // is transient within a cycle), so checkpoints move freely between
    // tiers: a T5 checkpoint resumes byte-identically on T0.
    std::string state_key() const override { return "tier-v1"; }

    void
    save_extra_state(StateWriter& w) const override
    {
        w.put_u64(cycles_);
        w.put_bool_vec(fired_);
        w.put_u64_vec(commits_);
        w.put_u64_vec(aborts_);
        w.put_u64_vec(reasons_);
        w.put_u64(cov_on_ ? 1 : 0);
        if (cov_on_) {
            w.put_u64_vec(cov_stmt_);
            w.put_u64_vec(cov_taken_);
            w.put_u64_vec(cov_not_taken_);
        }
    }

    void
    load_extra_state(StateReader& r) override
    {
        cycles_ = r.get_u64();
        std::vector<bool> fired = r.get_bool_vec();
        std::vector<uint64_t> commits = r.get_u64_vec();
        std::vector<uint64_t> aborts = r.get_u64_vec();
        std::vector<uint64_t> reasons = r.get_u64_vec();
        if (fired.size() != fired_.size() ||
            commits.size() != commits_.size() ||
            aborts.size() != aborts_.size() ||
            reasons.size() != reasons_.size())
            fatal("checkpoint engine state does not match this "
                  "design's rule count");
        fired_ = std::move(fired);
        commits_ = std::move(commits);
        aborts_ = std::move(aborts);
        reasons_ = std::move(reasons);
        if (r.get_u64() != 0) {
            enable_coverage();
            std::vector<uint64_t> stmt = r.get_u64_vec();
            std::vector<uint64_t> taken = r.get_u64_vec();
            std::vector<uint64_t> not_taken = r.get_u64_vec();
            if (stmt.size() != cov_stmt_.size() ||
                taken.size() != cov_taken_.size() ||
                not_taken.size() != cov_not_taken_.size())
                fatal("checkpoint coverage state does not match this "
                      "design's node count");
            cov_stmt_ = std::move(stmt);
            cov_taken_ = std::move(taken);
            cov_not_taken_ = std::move(not_taken);
        } else if (cov_on_) {
            // Full-overwrite contract: the snapshot predates coverage
            // being enabled on this instance, so restoring it clears
            // whatever was counted since. Without this, a model reused
            // across fault trials (TrialContext restore) leaks counts
            // from earlier trials into later databases.
            cov_stmt_.assign(cov_stmt_.size(), 0);
            cov_taken_.assign(cov_taken_.size(), 0);
            cov_not_taken_.assign(cov_not_taken_.size(), 0);
        }
    }

  private:
    void
    run(const std::vector<int>& order)
    {
        begin_step_cycle();
        for (int r : order)
            run_one_rule(r);
        end_step_cycle();
    }

    bool
    run_one_rule(int r)
    {
        p_.begin_rule(r);
        depth_ = 0;
        args_.clear();
        push_frame((size_t)d_.rule(r).nslots);
        fail_point_ = nullptr;
        Bits scratch;
        bool ok = eval(d_.rule(r).body, scratch);
        if (ok) {
            p_.commit_rule(r);
            fired_[(size_t)r] = true;
            ++commits_[(size_t)r];
        } else {
            p_.fail_rule(r, fail_point_);
            ++aborts_[(size_t)r];
            AbortReason reason = AbortReason::kGuard;
            if (fail_point_ != nullptr) {
                if (fail_point_->kind == ActionKind::kRead)
                    reason = AbortReason::kReadConflict;
                else if (fail_point_->kind == ActionKind::kWrite)
                    reason = AbortReason::kWriteConflict;
            }
            ++reasons_[(size_t)r * kNumAbortReasons + (size_t)reason];
        }
        pop_frame();
        return ok;
    }

    std::vector<Bits>&
    push_frame(size_t n)
    {
        if (depth_ == frame_pool_.size())
            frame_pool_.emplace_back();
        std::vector<Bits>& f = frame_pool_[depth_++];
        if (f.size() < n)
            f.resize(n);
        return f;
    }

    void pop_frame() { --depth_; }

    std::vector<Bits>& frame() { return frame_pool_[depth_ - 1]; }

    /** Evaluate an action; false means the rule aborted. */
    bool
    eval(const Action* a, Bits& out)
    {
        if (cov_on_)
            ++cov_stmt_[(size_t)a->id];
        switch (a->kind) {
          case ActionKind::kConst:
            out = a->value;
            return true;

          case ActionKind::kVar:
            out = frame()[(size_t)a->slot];
            return true;

          case ActionKind::kLet: {
            Bits v;
            if (!eval(a->a0, v))
                return false;
            frame()[(size_t)a->slot] = std::move(v);
            return eval(a->a1, out);
          }

          case ActionKind::kAssign: {
            Bits v;
            if (!eval(a->a0, v))
                return false;
            frame()[(size_t)a->slot] = std::move(v);
            out = Bits();
            return true;
          }

          case ActionKind::kSeq: {
            Bits scratch;
            if (!eval(a->a0, scratch))
                return false;
            return eval(a->a1, out);
          }

          case ActionKind::kIf: {
            Bits c;
            if (!eval(a->a0, c))
                return false;
            bool taken = c.truthy();
            if (cov_on_)
                ++(taken ? cov_taken_ : cov_not_taken_)[(size_t)a->id];
            return eval(taken ? a->a1 : a->a2, out);
          }

          case ActionKind::kRead:
            if (!p_.read(a, out)) {
                fail_point_ = a;
                return false;
            }
            return true;

          case ActionKind::kWrite: {
            Bits v;
            if (!eval(a->a0, v))
                return false;
            if (!p_.write(a, v)) {
                fail_point_ = a;
                return false;
            }
            out = Bits();
            return true;
          }

          case ActionKind::kGuard: {
            Bits c;
            if (!eval(a->a0, c))
                return false;
            bool pass = c.truthy();
            if (cov_on_)
                ++(pass ? cov_taken_ : cov_not_taken_)[(size_t)a->id];
            if (!pass) {
                fail_point_ = a;
                return false;
            }
            out = Bits();
            return true;
          }

          case ActionKind::kUnop: {
            Bits v;
            if (!eval(a->a0, v))
                return false;
            switch (a->op) {
              case Op::kNot: out = v.bnot(); break;
              case Op::kNeg: out = v.neg(); break;
              case Op::kZExtL: out = v.zextl(a->imm0); break;
              case Op::kSExtL: out = v.sextl(a->imm0); break;
              case Op::kSlice: out = v.slice(a->imm0, a->imm1); break;
              default: panic("bad unop");
            }
            return true;
          }

          case ActionKind::kBinop: {
            Bits x, y;
            if (!eval(a->a0, x) || !eval(a->a1, y))
                return false;
            switch (a->op) {
              case Op::kAnd: out = x.band(y); break;
              case Op::kOr: out = x.bor(y); break;
              case Op::kXor: out = x.bxor(y); break;
              case Op::kAdd: out = x.add(y); break;
              case Op::kSub: out = x.sub(y); break;
              case Op::kMul: out = x.mul(y); break;
              case Op::kEq: out = x.eq(y); break;
              case Op::kNe: out = x.ne(y); break;
              case Op::kLtu: out = x.ltu(y); break;
              case Op::kLeu: out = x.leu(y); break;
              case Op::kGtu: out = x.gtu(y); break;
              case Op::kGeu: out = x.geu(y); break;
              case Op::kLts: out = x.lts(y); break;
              case Op::kLes: out = x.les(y); break;
              case Op::kGts: out = x.gts(y); break;
              case Op::kGes: out = x.ges(y); break;
              case Op::kLsl: out = x.shl(y); break;
              case Op::kLsr: out = x.shr(y); break;
              case Op::kAsr: out = x.asr(y); break;
              case Op::kConcat: out = x.concat(y); break;
              default: panic("bad binop");
            }
            return true;
          }

          case ActionKind::kGetField: {
            Bits v;
            if (!eval(a->a0, v))
                return false;
            const Field& f = a->a0->type->fields[(size_t)a->field_index];
            out = v.slice(f.offset, f.type->width);
            return true;
          }

          case ActionKind::kSubstField: {
            Bits s, v;
            if (!eval(a->a0, s) || !eval(a->a1, v))
                return false;
            const Field& f = a->a0->type->fields[(size_t)a->field_index];
            Bits mask = Bits::ones(f.type->width)
                            .zextl(s.width())
                            .shl_by(f.offset)
                            .bnot();
            out = s.band(mask).bor(v.zextl(s.width()).shl_by(f.offset));
            return true;
          }

          case ActionKind::kCall: {
            // Arguments are pure and evaluate in the caller frame. They
            // wait on args_ rather than in the callee's pooled frame,
            // which a call nested inside a later argument would reuse.
            size_t base = args_.size();
            for (const Action* arg : a->args) {
                Bits v;
                if (!eval(arg, v))
                    return false;
                args_.push_back(std::move(v));
            }
            std::vector<Bits>& callee = push_frame((size_t)a->fn->nslots);
            for (size_t i = 0; i < a->args.size(); ++i)
                callee[i] = std::move(args_[base + i]);
            args_.resize(base);
            bool ok = eval(a->fn->body, out);
            pop_frame();
            return ok;
          }
        }
        panic("unreachable");
    }

    const Design& d_;
    Policy p_;
    std::vector<std::vector<Bits>> frame_pool_;
    size_t depth_ = 0;
    /** Evaluated call arguments waiting for their callee's frame. */
    std::vector<Bits> args_;
    const Action* fail_point_ = nullptr;
    std::vector<bool> fired_;
    std::vector<uint64_t> commits_, aborts_;
    std::vector<uint64_t> reasons_; // [rule * kNumAbortReasons + reason]
    uint64_t cycles_ = 0;
    bool cov_on_ = false;
    std::vector<uint64_t> cov_stmt_, cov_taken_, cov_not_taken_;
};

} // namespace

std::unique_ptr<TierModel>
make_engine(const Design& design, Tier tier)
{
    switch (tier) {
      case Tier::kT0Naive:
        return std::make_unique<TierEngine<PolicyT0>>(design,
                                                      PolicyT0(design));
      case Tier::kT1SplitSets:
        return std::make_unique<TierEngine<PolicyT1>>(design,
                                                      PolicyT1(design));
      case Tier::kT2Accumulate:
        return std::make_unique<TierEngine<PolicyT23<false>>>(
            design, PolicyT23<false>(design));
      case Tier::kT3ResetOnFail:
        return std::make_unique<TierEngine<PolicyT23<true>>>(
            design, PolicyT23<true>(design));
      case Tier::kT4MergedData:
        return std::make_unique<TierEngine<PolicyT4>>(design,
                                                      PolicyT4(design));
      case Tier::kT5StaticAnalysis:
        return std::make_unique<TierEngine<PolicyT5>>(
            design, PolicyT5(design, analysis::analyze(design)));
    }
    panic("unknown tier");
}

} // namespace koika::sim
