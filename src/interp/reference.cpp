#include "interp/reference.hpp"

namespace koika {

ReferenceSim::ReferenceSim(const Design& design) : d_(design)
{
    KOIKA_CHECK(d_.typechecked);
    state_ = d_.initial_state();
    cycle_log_.resize(d_.num_registers());
    rule_log_.resize(d_.num_registers());
    fired_.resize(d_.num_rules(), false);
}

void
ReferenceSim::set_reg(int i, Bits v)
{
    KOIKA_CHECK(v.width() == d_.reg(i).type->width);
    state_[(size_t)i] = std::move(v);
}

void
ReferenceSim::cycle()
{
    cycle_with_order(d_.schedule_order());
}

void
ReferenceSim::cycle_with_order(const std::vector<int>& order)
{
    // A cycle starts with an empty cycle log.
    for (int i : cycle_touched_)
        cycle_log_[(size_t)i] = LogEntry{};
    cycle_touched_.clear();
    fired_.assign(d_.num_rules(), false);

    for (int r : order)
        fired_[(size_t)r] = run_rule(r);

    // Commit: wr1 beats wr0 beats the old value.
    for (int i : cycle_touched_) {
        const LogEntry& cl = cycle_log_[(size_t)i];
        if (cl.wr1)
            state_[(size_t)i] = cl.data1;
        else if (cl.wr0)
            state_[(size_t)i] = cl.data0;
    }
    ++cycles_;
}

bool
ReferenceSim::run_rule(int rule_index)
{
    const Rule& rule = d_.rule(rule_index);
    // Entering a rule resets the rule log, and with it whatever an
    // aborted predecessor left in its frames and pending arguments.
    for (int i : rule_touched_)
        rule_log_[(size_t)i] = LogEntry{};
    rule_touched_.clear();
    depth_ = 0;
    args_.clear();
    push_frame((size_t)rule.nslots);

    Bits scratch;
    if (!eval(rule.body, scratch))
        return false; // Rule log is discarded.

    // Success: append the rule log to the cycle log.
    for (int i : rule_touched_) {
        LogEntry& cl = cycle_log_[(size_t)i];
        const LogEntry& rl = rule_log_[(size_t)i];
        if (cl.empty())
            cycle_touched_.push_back(i);
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
    return true;
}

std::vector<Bits>&
ReferenceSim::push_frame(size_t nslots)
{
    if (depth_ == frames_.size())
        frames_.emplace_back();
    std::vector<Bits>& f = frames_[depth_++];
    if (f.size() < nslots)
        f.resize(nslots);
    return f;
}

bool
ReferenceSim::do_read(const Action* a, Bits& out)
{
    LogEntry& cl = cycle_log_[(size_t)a->reg];
    LogEntry& rl = rule_log_[(size_t)a->reg];
    if (a->port == Port::p0) {
        // rd0 observes the beginning-of-cycle value; it conflicts with any
        // previously-committed write in this cycle.
        if (cl.wr0 || cl.wr1)
            return false;
        if (rl.empty())
            rule_touched_.push_back(a->reg);
        rl.rd0 = true;
        out = state_[(size_t)a->reg];
        return true;
    }
    // rd1 observes the latest wr0; it conflicts with a committed wr1.
    if (cl.wr1)
        return false;
    if (rl.empty())
        rule_touched_.push_back(a->reg);
    rl.rd1 = true;
    if (rl.wr0)
        out = rl.data0;
    else if (cl.wr0)
        out = cl.data0;
    else
        out = state_[(size_t)a->reg];
    return true;
}

bool
ReferenceSim::do_write(const Action* a, Bits& value)
{
    LogEntry& cl = cycle_log_[(size_t)a->reg];
    LogEntry& rl = rule_log_[(size_t)a->reg];
    if (a->port == Port::p0) {
        // wr0 must precede every rd1/wr0/wr1 in the cycle.
        if (cl.rd1 || cl.wr0 || cl.wr1 || rl.rd1 || rl.wr0 || rl.wr1)
            return false;
        if (rl.empty())
            rule_touched_.push_back(a->reg);
        rl.wr0 = true;
        rl.data0 = std::move(value);
    } else {
        // At most one wr1 per register per cycle.
        if (cl.wr1 || rl.wr1)
            return false;
        if (rl.empty())
            rule_touched_.push_back(a->reg);
        rl.wr1 = true;
        rl.data1 = std::move(value);
    }
    return true;
}

void
ReferenceSim::enable_coverage()
{
    if (coverage_enabled_)
        return;
    coverage_enabled_ = true;
    coverage_.assign(d_.num_nodes(), 0);
    taken_.assign(d_.num_nodes(), 0);
    not_taken_.assign(d_.num_nodes(), 0);
}

bool
ReferenceSim::eval(const Action* a, Bits& out)
{
    if (coverage_enabled_)
        ++coverage_[(size_t)a->id];
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
        bool t = c.truthy();
        if (coverage_enabled_)
            ++(t ? taken_ : not_taken_)[(size_t)a->id];
        return eval(t ? a->a1 : a->a2, out);
      }

      case ActionKind::kRead:
        return do_read(a, out);

      case ActionKind::kWrite: {
        Bits v;
        if (!eval(a->a0, v) || !do_write(a, v))
            return false;
        out = Bits();
        return true;
      }

      case ActionKind::kGuard: {
        Bits c;
        if (!eval(a->a0, c))
            return false;
        bool pass = c.truthy();
        if (coverage_enabled_)
            ++(pass ? taken_ : not_taken_)[(size_t)a->id];
        if (!pass)
            return false;
        out = Bits();
        return true;
      }

      case ActionKind::kUnop: {
        Bits v;
        if (!eval(a->a0, v))
            return false;
        switch (a->op) {
          case Op::kNot: out = v.bnot(); return true;
          case Op::kNeg: out = v.neg(); return true;
          case Op::kZExtL: out = v.zextl(a->imm0); return true;
          case Op::kSExtL: out = v.sextl(a->imm0); return true;
          case Op::kSlice: out = v.slice(a->imm0, a->imm1); return true;
          default: panic("bad unop");
        }
      }

      case ActionKind::kBinop: {
        Bits x, y;
        if (!eval(a->a0, x) || !eval(a->a1, y))
            return false;
        switch (a->op) {
          case Op::kAnd: out = x.band(y); return true;
          case Op::kOr: out = x.bor(y); return true;
          case Op::kXor: out = x.bxor(y); return true;
          case Op::kAdd: out = x.add(y); return true;
          case Op::kSub: out = x.sub(y); return true;
          case Op::kMul: out = x.mul(y); return true;
          case Op::kEq: out = x.eq(y); return true;
          case Op::kNe: out = x.ne(y); return true;
          case Op::kLtu: out = x.ltu(y); return true;
          case Op::kLeu: out = x.leu(y); return true;
          case Op::kGtu: out = x.gtu(y); return true;
          case Op::kGeu: out = x.geu(y); return true;
          case Op::kLts: out = x.lts(y); return true;
          case Op::kLes: out = x.les(y); return true;
          case Op::kGts: out = x.gts(y); return true;
          case Op::kGes: out = x.ges(y); return true;
          case Op::kLsl: out = x.shl(y); return true;
          case Op::kLsr: out = x.shr(y); return true;
          case Op::kAsr: out = x.asr(y); return true;
          case Op::kConcat: out = x.concat(y); return true;
          default: break;
        }
        panic("bad binop");
      }

      case ActionKind::kGetField: {
        Bits v;
        if (!eval(a->a0, v))
            return false;
        const Field& f =
            a->a0->type->fields[(size_t)a->field_index];
        out = v.slice(f.offset, f.type->width);
        return true;
      }

      case ActionKind::kSubstField: {
        Bits s, v;
        if (!eval(a->a0, s) || !eval(a->a1, v))
            return false;
        const Field& f =
            a->a0->type->fields[(size_t)a->field_index];
        uint32_t w = s.width();
        // Clear the field, then or in the new value.
        Bits mask =
            Bits::ones(f.type->width).zextl(w).shl_by(f.offset).bnot();
        out = s.band(mask).bor(v.zextl(w).shl_by(f.offset));
        return true;
      }

      case ActionKind::kCall: {
        // Arguments evaluate in the caller's frame. They wait on args_
        // rather than in the callee's pooled frame, which a call nested
        // inside a later argument would reuse.
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
        if (!eval(a->fn->body, out))
            return false;
        --depth_;
        return true;
      }
    }
    panic("unreachable");
}

} // namespace koika
