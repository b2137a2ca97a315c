/**
 * @file
 * Persistent checkpoints of simulation state (cuttlesim-ckpt-v1).
 *
 * The paper's headline debugging story (§4, case studies 1 and 3) is
 * rr-style time travel over committed state: a Cuttlesim model is a
 * plain sequential program, so a snapshot of its committed registers
 * *is* the simulation state, and saving/restoring one is cheap and
 * engine-agnostic. This module makes those snapshots durable:
 *
 *   - Checkpoint::capture() snapshots any sim::Model (reference
 *     interpreter, tiers T0-T5, GeneratedModel wrappers) between
 *     cycles: committed registers through the Model interface, plus the
 *     engine's auxiliary state (cycle counter, rule commit/abort
 *     tallies, coverage arrays) when the engine implements
 *     sim::CheckpointableModel.
 *   - The system-level overloads snapshot a whole Subject: the model
 *     plus its peripherals' RAM and pending responses (section "env").
 *     They are the one capture/restore path of the repository: fault
 *     trial restores, batch lane forks, bisect replays and cuttlec's
 *     --checkpoint/--restore all go through them.
 *   - Named sections carry whatever else a byte-identical resume
 *     needs: coverage collector toggles ("coverage"), a metrics
 *     registry ("metrics").
 *   - save()/load() persist the cuttlesim-ckpt-v1 binary format:
 *     a "CKPT" magic and format version, a JSON descriptor (design
 *     name, SHA-256 design fingerprint, cycle count, register widths,
 *     section directory), the packed register payload, the section
 *     payloads, and a trailing SHA-256 over everything before it.
 *     load() validates all of that — magic, version, checksum, shape —
 *     and restore_into() additionally proves the checkpoint belongs to
 *     the design being restored (fingerprint match), so a stale or
 *     tampered checkpoint is rejected instead of silently corrupting a
 *     run. tools/check_ckpt_schema.py is the out-of-process validator
 *     for the same format.
 *
 * Writes are atomic (temp file + rename, base/io.hpp): a crash while
 * checkpointing never leaves a truncated file under the final name,
 * which is what makes long campaigns resumable.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/bits.hpp"
#include "koika/design.hpp"
#include "sim/model.hpp"
#include "sim/state.hpp"

namespace koika::replay {

/**
 * One system under test: the model plus the external environment
 * driving it. `stimulus` (may be null) runs after every cycle (0-based
 * cycle index, the lockstep/fault convention). `save_env`/`load_env`
 * serialize peripheral state (RAM contents, pending responses) so a
 * restored system replays byte-identically; both are null for closed
 * designs, and load_env runs on a freshly built system, so save and
 * load must agree on peripheral order and layout. `context` keeps the
 * peripherals alive for the model's lifetime.
 */
struct Subject
{
    std::unique_ptr<sim::Model> model;
    std::function<void(sim::Model&, uint64_t)> stimulus;
    std::function<void(sim::StateWriter&)> save_env;
    std::function<void(sim::StateReader&)> load_env;
    std::shared_ptr<void> context;
};

/** Builds a fresh, identically-initialized subject per call. */
using SubjectFactory = std::function<Subject()>;

class Checkpoint
{
  public:
    /** The on-disk schema tag ("cuttlesim-ckpt-v1"). */
    static const char* schema();

    std::string design;
    std::string fingerprint;
    /** Committed cycles at capture time (model.cycles_run()). */
    uint64_t cycle = 0;
    /** Register widths, design order (shape validation on restore). */
    std::vector<uint32_t> widths;
    /** Committed register values, design order. */
    std::vector<Bits> regs;

    /** Named auxiliary payloads (engine counters, peripherals, ...). */
    struct Section
    {
        std::string name;
        std::string bytes;
    };
    std::vector<Section> sections;

    /**
     * Snapshot `model` between cycles. Captures committed registers
     * and, when the engine implements sim::CheckpointableModel, its
     * auxiliary state under section "engine:<state_key>".
     */
    static Checkpoint capture(const Design& design,
                              const sim::Model& model);
    /** capture(design, *system.model) plus the peripherals' state
     *  (save_env) under section "env". */
    static Checkpoint capture(const Design& design,
                              const Subject& system);

    /**
     * Restore into `model`: validates that the checkpoint was taken
     * from this exact design (name, fingerprint, register shape),
     * writes every committed register back, and replays the engine
     * section when its state key matches. Returns true when the
     * engine's auxiliary state (cycle counter, rule/coverage counters)
     * was replayed; false means only registers were restored (the
     * engine family differs from the one that captured) and counters
     * restart from zero. FatalError on any mismatch with the design.
     */
    bool restore_into(const Design& design, sim::Model& model) const;
    /**
     * restore_into(design, *system.model) plus the "env" section
     * through load_env. FatalError (phase "checkpoint"), before any
     * state is touched, when the checkpoint carries an env section the
     * system cannot load, or the system has peripherals (load_env) but
     * the checkpoint carries no env: either way the resumed run would
     * not be the captured one.
     */
    bool restore_into(const Design& design, Subject& system) const;

    /** Section payload by name; nullptr when absent. */
    const std::string* section(const std::string& name) const;
    /** Add or replace a section. */
    void set_section(const std::string& name, std::string bytes);

    /** The cuttlesim-ckpt-v1 byte string. */
    std::string serialize() const;
    /**
     * Parse and fully validate a byte string: magic, version, trailing
     * checksum, descriptor shape, payload sizes, unique section names.
     * FatalError with a
     * Diagnostic (phase "checkpoint") on any corruption.
     */
    static Checkpoint deserialize(const std::string& bytes);

    /** serialize() + atomic write (temp file + rename). */
    void save(const std::string& path) const;
    /** read + deserialize(); FatalError on IO or validation failure. */
    static Checkpoint load(const std::string& path);
};

/**
 * Append one length-prefixed checkpoint record to a spill stream (the
 * harness::Debugger ring-spill format: a file of consecutive
 * [u64 length][cuttlesim-ckpt-v1 record] entries, newest last).
 */
void append_spill_record(std::string& stream, const Checkpoint& ckpt);

/** Parse a spill stream back into records (oldest first). */
std::vector<Checkpoint> parse_spill_stream(const std::string& stream);

} // namespace koika::replay
