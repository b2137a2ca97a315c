/**
 * @file
 * Engine construction and fresh-system factories for registry designs.
 *
 * Everything that runs a design — cuttlec's simulate/fault/bisect
 * paths, tests, benches — needs the same two ingredients: "build me
 * the model for engine E" and "build me a complete,
 * identically-initialized system (model + stimulus + peripherals) for
 * design D".
 *
 * Engine names follow the CLI convention: "T0".."T5" interpreter
 * tiers, "ref" the reference interpreter, and "compiled" the generated
 * C++ model built by the system compiler and dlopened into the process
 * (codegen/dlmodel.hpp) — fully instrumented, so it is a drop-in for
 * the tiers everywhere, fault campaigns included.
 */
#pragma once

#include <memory>
#include <string>

#include "codegen/dlmodel.hpp"
#include "replay/checkpoint.hpp"
#include "koika/design.hpp"
#include "sim/model.hpp"
#include "sim/tiers.hpp"

namespace koika::designs {

/** Parse "T0".."T5" into a tier. False for anything else. */
bool parse_tier(const std::string& engine, sim::Tier* tier);

/**
 * Build an in-process model for an engine name: an interpreter tier
 * (T0..T5), the reference interpreter ("ref"), or the dlopened
 * generated model ("compiled"; `dlopts` picks its flags and cache, and
 * only the first build per thread pays the compile pipeline).
 * FatalError on an unknown name.
 */
std::unique_ptr<sim::Model>
make_model(const Design& design, const std::string& engine,
           const codegen::DlModelOptions& dlopts = {});

/** Display label for an in-process engine (stats/report "engine"). */
std::string engine_label(const std::string& engine);

/**
 * A fresh-system factory for fault campaigns, golden runs, and plain
 * simulation. RISC-V designs get per-instance magic memories preloaded
 * with a small primes program (the design is meaningless without a
 * stimulus); every other registry design is closed and needs none.
 * RISC-V targets carry save_env/load_env hooks serializing the
 * memories and ports, so checkpoints capture the whole system.
 *
 * Deterministic by construction: two factories built from the same
 * (design, engine) produce targets that simulate byte-identically, so
 * every pool worker's TrialContext starts from the same state.
 */
replay::SubjectFactory
make_target_factory(const Design& design, const std::string& engine,
                    const codegen::DlModelOptions& dlopts = {});

} // namespace koika::designs
