#include "koika/design.hpp"

#include "base/sha256.hpp"
#include "koika/print.hpp"

namespace koika {

const char*
op_name(Op op)
{
    switch (op) {
      case Op::kNot: return "!";
      case Op::kNeg: return "-";
      case Op::kZExtL: return "zextl";
      case Op::kSExtL: return "sextl";
      case Op::kSlice: return "slice";
      case Op::kAnd: return "&";
      case Op::kOr: return "|";
      case Op::kXor: return "^";
      case Op::kAdd: return "+";
      case Op::kSub: return "-";
      case Op::kMul: return "*";
      case Op::kEq: return "==";
      case Op::kNe: return "!=";
      case Op::kLtu: return "<";
      case Op::kLeu: return "<=";
      case Op::kGtu: return ">";
      case Op::kGeu: return ">=";
      case Op::kLts: return "<s";
      case Op::kLes: return "<=s";
      case Op::kGts: return ">s";
      case Op::kGes: return ">=s";
      case Op::kLsl: return "<<";
      case Op::kLsr: return ">>";
      case Op::kAsr: return ">>>";
      case Op::kConcat: return "++";
    }
    return "?";
}

const char*
action_kind_name(ActionKind kind)
{
    switch (kind) {
      case ActionKind::kConst: return "const";
      case ActionKind::kVar: return "var";
      case ActionKind::kLet: return "let";
      case ActionKind::kAssign: return "set";
      case ActionKind::kSeq: return "seq";
      case ActionKind::kIf: return "if";
      case ActionKind::kRead: return "read";
      case ActionKind::kWrite: return "write";
      case ActionKind::kGuard: return "guard";
      case ActionKind::kUnop: return "unop";
      case ActionKind::kBinop: return "binop";
      case ActionKind::kGetField: return "getfield";
      case ActionKind::kSubstField: return "substfield";
      case ActionKind::kCall: return "call";
    }
    return "?";
}

const std::string&
Design::fingerprint() const
{
    std::call_once(fingerprint_once_, [this] {
        frozen_.store(true);
        fingerprint_ = sha256_hex(print_design(*this));
    });
    return fingerprint_;
}

void
Design::check_mutable(const char* what) const
{
    if (!frozen_.load())
        return;
    Diagnostic diag;
    diag.phase = "design";
    diag.design = name_;
    fatal_diag(std::move(diag),
               "cannot %s design '%s' after its fingerprint was taken",
               what, name_.c_str());
}

int
Design::add_register(const std::string& name, TypePtr type, Bits init)
{
    check_mutable("add a register to");
    if (reg_by_name_.count(name))
        fatal("duplicate register '%s'", name.c_str());
    if (init.width() != type->width)
        fatal("register '%s': init width %u does not match type %s",
              name.c_str(), init.width(), type->str().c_str());
    int idx = (int)regs_.size();
    regs_.push_back({name, std::move(type), std::move(init)});
    reg_by_name_[name] = idx;
    return idx;
}

int
Design::add_rule(const std::string& name, Action* body)
{
    check_mutable("add a rule to");
    if (rule_by_name_.count(name))
        fatal("duplicate rule '%s'", name.c_str());
    int idx = (int)rules_.size();
    rules_.push_back({name, body, 0});
    rule_by_name_[name] = idx;
    return idx;
}

void
Design::schedule(int rule_index)
{
    check_mutable("schedule a rule of");
    KOIKA_CHECK(rule_index >= 0 && (size_t)rule_index < rules_.size());
    schedule_.push_back(rule_index);
}

void
Design::schedule(const std::string& rule_name)
{
    int idx = rule_index(rule_name);
    if (idx < 0)
        fatal("cannot schedule unknown rule '%s'", rule_name.c_str());
    schedule(idx);
}

Action*
Design::alloc(ActionKind kind)
{
    check_mutable("allocate a node in");
    auto node = std::make_unique<Action>();
    node->kind = kind;
    node->id = (int)arena_.size();
    Action* p = node.get();
    arena_.push_back(std::move(node));
    return p;
}

FunctionDef*
Design::alloc_function()
{
    check_mutable("allocate a function in");
    functions_.push_back(std::make_unique<FunctionDef>());
    return functions_.back().get();
}

int
Design::reg_index(const std::string& name) const
{
    auto it = reg_by_name_.find(name);
    return it == reg_by_name_.end() ? -1 : it->second;
}

int
Design::rule_index(const std::string& name) const
{
    auto it = rule_by_name_.find(name);
    return it == rule_by_name_.end() ? -1 : it->second;
}

std::vector<Bits>
Design::initial_state() const
{
    std::vector<Bits> state;
    state.reserve(regs_.size());
    for (const auto& r : regs_)
        state.push_back(r.init);
    return state;
}

} // namespace koika
