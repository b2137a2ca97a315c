/**
 * @file
 * A Design: the unit of compilation and simulation.
 *
 * A design owns its registers (the architectural state), its rules, its
 * scheduler (a linear order in which rules appear to execute, §2.1), and
 * the arena of AST nodes and function definitions that the rules use.
 */
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "koika/ast.hpp"

namespace koika {

/** A hardware state element. */
struct RegInfo
{
    std::string name;
    TypePtr type;
    /** Reset value (width matches type->width). */
    Bits init;
};

/** A named atomic rule. */
struct Rule
{
    std::string name;
    Action* body = nullptr;
    /** Evaluation frame size (typechecker). */
    int nslots = 0;
};

class Design
{
  public:
    explicit Design(std::string name) : name_(std::move(name)) {}

    Design(const Design&) = delete;
    Design& operator=(const Design&) = delete;

    const std::string& name() const { return name_; }

    /** Declare a register; returns its index. */
    int add_register(const std::string& name, TypePtr type, Bits init);
    /** Declare a rule; returns its index. Not yet scheduled. */
    int add_rule(const std::string& name, Action* body);
    /** Append a rule to the linear schedule. */
    void schedule(int rule_index);
    /** Append a rule to the schedule by name. */
    void schedule(const std::string& rule_name);

    /** Allocate an AST node in the design's arena. */
    Action* alloc(ActionKind kind);
    /** Allocate a function definition. */
    FunctionDef* alloc_function();

    size_t num_registers() const { return regs_.size(); }
    size_t num_rules() const { return rules_.size(); }
    size_t num_nodes() const { return arena_.size(); }

    const RegInfo& reg(int i) const { return regs_[(size_t)i]; }
    const Rule& rule(int i) const { return rules_[(size_t)i]; }
    Rule&
    rule_mut(int i)
    {
        check_mutable("modify a rule of");
        return rules_[(size_t)i];
    }
    const std::vector<int>& schedule_order() const { return schedule_; }
    const std::vector<std::unique_ptr<FunctionDef>>& functions() const
    {
        return functions_;
    }

    /** Register index by name, or -1. */
    int reg_index(const std::string& name) const;
    /** Rule index by name, or -1. */
    int rule_index(const std::string& name) const;

    /** Reset values of all registers, in index order. */
    std::vector<Bits> initial_state() const;

    /** Set by the typechecker once the whole design checks. */
    bool typechecked = false;

    /**
     * SHA-256 of the printed design (names, widths, rules, schedule),
     * computed on first use and kept; safe to call from any thread.
     * Taking it freezes the design: a mutator called afterwards is a
     * diagnosed error, since the kept fingerprint would go stale.
     */
    const std::string& fingerprint() const;

  private:
    /** Fatal error if the fingerprint has been taken. */
    void check_mutable(const char* what) const;

    std::string name_;
    std::vector<RegInfo> regs_;
    std::vector<Rule> rules_;
    std::vector<int> schedule_;
    std::map<std::string, int> reg_by_name_;
    std::map<std::string, int> rule_by_name_;
    std::vector<std::unique_ptr<Action>> arena_;
    std::vector<std::unique_ptr<FunctionDef>> functions_;
    mutable std::once_flag fingerprint_once_;
    mutable std::string fingerprint_;
    mutable std::atomic<bool> frozen_{false};
};

} // namespace koika
