#include "designs/targets.hpp"

#include "designs/rv32.hpp"
#include "harness/memory.hpp"
#include "interp/reference_model.hpp"
#include "obs/prof.hpp"
#include "riscv/programs.hpp"

namespace koika::designs {

bool
parse_tier(const std::string& engine, sim::Tier* tier)
{
    if (engine.size() == 2 && engine[0] == 'T' && engine[1] >= '0' &&
        engine[1] <= '5') {
        *tier = (sim::Tier)(engine[1] - '0');
        return true;
    }
    return false;
}

std::unique_ptr<sim::Model>
make_model(const Design& design, const std::string& engine,
           const codegen::DlModelOptions& dlopts)
{
    if (engine == "ref")
        return std::make_unique<ReferenceModel>(design);
    if (engine == "compiled")
        return codegen::load_compiled_model(design, dlopts);
    sim::Tier tier;
    if (!parse_tier(engine, &tier))
        fatal("unknown in-process engine '%s' (expected T0..T5, 'ref', "
              "or 'compiled')",
              engine.c_str());
    return sim::make_engine(design, tier);
}

std::string
engine_label(const std::string& engine)
{
    if (engine == "ref")
        return "reference";
    if (engine == "compiled")
        return "cuttlesim";
    sim::Tier tier;
    if (parse_tier(engine, &tier))
        return sim::tier_name(tier);
    return engine;
}

replay::SubjectFactory
make_target_factory(const Design& design, const std::string& engine,
                    const codegen::DlModelOptions& dlopts)
{
    if (design.name().rfind("rv32", 0) != 0)
        return [&design, engine, dlopts]() {
            // Engine construction is the suspected per-trial cost in
            // parallel campaigns (ROADMAP item 2) — give it its own
            // phase so the profile can prove or refute that.
            obs::ProfScope span("engine/build");
            replay::Subject t;
            t.model = make_model(design, engine, dlopts);
            return t;
        };

    int cores = design.name().find("-mc") != std::string::npos ? 2 : 1;
    auto program = std::make_shared<riscv::Program>(
        riscv::build_program(riscv::primes_source(20)));
    auto ports = std::make_shared<std::vector<Rv32CorePorts>>();
    for (int core = 0; core < cores; ++core)
        ports->push_back(rv32_ports(design, core, cores));

    return [&design, engine, dlopts, program, ports]() {
        struct Ctx
        {
            std::vector<std::unique_ptr<harness::MemoryDevice>> mems;
            std::vector<std::unique_ptr<harness::MemPort>> mem_ports;
        };
        obs::ProfScope span("engine/build");
        auto ctx = std::make_shared<Ctx>();
        for (const Rv32CorePorts& p : *ports) {
            auto mem = std::make_unique<harness::MemoryDevice>();
            mem->load_words(program->words, program->base);
            ctx->mem_ports.push_back(
                std::make_unique<harness::MemPort>(*mem, p.imem));
            ctx->mem_ports.push_back(
                std::make_unique<harness::MemPort>(*mem, p.dmem));
            ctx->mems.push_back(std::move(mem));
        }
        replay::Subject t;
        t.model = make_model(design, engine, dlopts);
        t.stimulus = [ctx](sim::Model& m, uint64_t) {
            for (auto& port : ctx->mem_ports)
                port->tick(m);
        };
        // Fixed serialization order: every memory, then every port.
        t.save_env = [ctx](sim::StateWriter& w) {
            for (auto& mem : ctx->mems)
                mem->save_state(w);
            for (auto& port : ctx->mem_ports)
                port->save_state(w);
        };
        t.load_env = [ctx](sim::StateReader& r) {
            for (auto& mem : ctx->mems)
                mem->load_state(r);
            for (auto& port : ctx->mem_ports)
                port->load_state(r);
        };
        t.context = ctx;
        return t;
    };
}

} // namespace koika::designs
