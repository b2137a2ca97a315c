/**
 * @file
 * perfbench_driver: one process running one workload once.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --cache DIR --work DIR --threads T [--corrupt ORACLE]
 *
 * Prints one JSON object (the Result) on stdout. run.py starts it, with
 * a fresh empty cache directory each time, and aggregates several
 * processes into the benchmark's metrics.
 */
#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "bench.hpp"
#include "codegen/compile.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "trace.hpp"

namespace perfbench {

void
set_tracing(bool on)
{
    koika::obs::Profiler& prof = koika::obs::Profiler::instance();
    if (on && !prof.enabled())
        prof.enable();
    else if (!on && prof.enabled())
        prof.disable();
}

LayerTimes&
LayerTimes::get()
{
    static LayerTimes times;
    return times;
}

void
LayerTimes::skip()
{
    koika::obs::Profiler::instance().drain_since(cursors_);
}

namespace {

/** The layer a span belongs to: "<layer>:<call>" for the benchmark's
 *  own spans; the program's phases by the module that records them. */
std::string
layer_of(const std::string& phase)
{
    size_t colon = phase.find(':');
    if (colon != std::string::npos)
        return phase.substr(0, colon);
    static const std::map<std::string, std::string> owner = {
        {"trial", "fault"},    {"batch", "fault"},   {"campaign", "fault"},
        {"compile", "codegen"}, {"binary", "codegen"}, {"pool", "harness"},
        {"engine", "designs"}};
    std::string area = phase.substr(0, phase.find('/'));
    auto it = owner.find(area);
    return it == owner.end() ? area : it->second;
}

} // namespace

void
LayerTimes::collect()
{
    for (auto& lane : koika::obs::Profiler::instance().drain_since(cursors_)) {
        // The client's operations run on the main thread; pool workers'
        // phases have per-layer metrics of their own.
        if (lane.thread != "main")
            continue;
        std::vector<koika::obs::ProfSpan>& spans = lane.spans;
        // Spans are recorded as they close; put parents first.
        std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
            return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                            : a.depth < b.depth;
        });
        std::vector<uint64_t> child_ns(spans.size(), 0);
        std::vector<size_t> open;
        for (size_t i = 0; i < spans.size(); ++i) {
            open.resize(std::min<size_t>(open.size(), spans[i].depth));
            if (!open.empty())
                child_ns[open.back()] += spans[i].dur_ns;
            open.push_back(i);
        }
        for (size_t i = 0; i < spans.size(); ++i)
            self_s_[layer_of(spans[i].phase)] +=
                (double)(spans[i].dur_ns - std::min(spans[i].dur_ns,
                                                    child_ns[i])) *
                1e-9;
    }
}

void
LayerTimes::leaf(const char* layer, const char* from, uint64_t ns)
{
    self_s_[layer] += (double)ns * 1e-9;
    self_s_[from] -= (double)ns * 1e-9;
}

void
measure(const Options& opt, Result& res, uint64_t min_ops,
        const std::function<OpTime(uint64_t)>& op)
{
    // Operation 0 warms the process up (first-touch page faults, lazily
    // loaded code); it is checked but not timed.
    set_tracing(false);
    op(0);
    LayerTimes::get().skip();
    uint64_t start = now_ns();
    for (uint64_t i = 1; i < min_ops || seconds_since(start) < opt.seconds;
         ++i) {
        // The traced run interleaves traced and untraced pairs of
        // operations, so both see the same warm-up and machine load.
        const bool traced = opt.trace && (i / 2) % 2 == 1;
        set_tracing(traced);
        OpTime t = op(i);
        if (traced)
            LayerTimes::get().collect();
        res.traced_ops += traced ? 1 : 0;
        (traced ? res.traced_work : res.work) += t.work;
        (traced ? res.traced_work_s : res.work_s) += t.work_s;
        if (!traced)
            res.ops.push_back(t);
    }
    set_tracing(opt.trace);
}

void
count_codegen(Result& res, const char* span,
              const std::function<void()>& build)
{
    auto counter = [](const char* name) {
        return (double)koika::codegen::compile_metrics().counter(name);
    };
    struct Mark
    {
        double emit, compile, dlopen, external, hits;
    };
    auto mark = [&] {
        return Mark{prof_seconds("compile/emit"),
                    prof_seconds("compile/external"),
                    prof_seconds("compile/dlopen"),
                    counter("compile.external_compiles"),
                    counter("compile.cache_hits")};
    };
    Mark before = mark();
    {
        ProfScope scope(span);
        build();
    }
    Mark after = mark();
    res.layers["codegen.emit_s"] += after.emit - before.emit;
    res.layers["codegen.compile_s"] += after.compile - before.compile;
    res.layers["codegen.dlopen_s"] += after.dlopen - before.dlopen;
    res.layers["codegen.external_compiles"] +=
        after.external - before.external;
    res.layers["codegen.cache_hits"] += after.hits - before.hits;
}

double
prof_seconds(const std::string& phase)
{
    return koika::obs::Profiler::instance().phase_total_seconds(phase);
}

void
flip_state_bit(koika::sim::Model& model)
{
    for (size_t r = 0; r < model.num_regs(); ++r) {
        koika::Bits v = model.get_reg((int)r);
        if (v.width() > 0) {
            model.set_reg((int)r, v.with_bit(0, !v.bit(0)));
            return;
        }
    }
}

double
emitted_bytes(const std::string& dir)
{
    double total = 0;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr)
        return 0;
    while (const dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        std::string path = dir + "/" + name;
        struct stat st{};
        if (::stat(path.c_str(), &st) != 0)
            continue;
        const std::string suffix = ".model.hpp";
        if (S_ISDIR(st.st_mode))
            total += emitted_bytes(path);
        else if (name.size() > suffix.size() &&
                 name.compare(name.size() - suffix.size(), suffix.size(),
                              suffix) == 0)
            total += (double)st.st_size;
    }
    ::closedir(d);
    return total;
}

} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N "
                 "--seconds S --trace 0|1 --cache DIR --work DIR "
                 "--threads T [--corrupt ORACLE]\n");
    return 2;
}

koika::obs::Json
to_json(const perfbench::Options& opt, const perfbench::Result& res)
{
    using koika::obs::Json;
    Json j = Json::object();
    j["workload"] = opt.workload;
    j["seed"] = opt.seed;
    j["threads"] = (int64_t)opt.threads;
    j["compiler"] = koika::codegen::compiler_identity_line();
    j["setup_s"] = res.setup_s;
    j["rebuild_s"] = res.rebuild_s;
    // [input, work, work_s, latency_ms] per operation.
    Json ops = Json::array();
    for (const perfbench::OpTime& t : res.ops) {
        Json op = Json::array();
        op.push_back(t.input);
        op.push_back(t.work);
        op.push_back(t.work_s);
        op.push_back(t.latency_s >= 0 ? t.latency_s * 1e3 : -1.0);
        ops.push_back(std::move(op));
    }
    j["ops"] = std::move(ops);
    j["work"] = res.work;
    j["work_s"] = res.work_s;
    j["traced_work"] = res.traced_work;
    j["traced_work_s"] = res.traced_work_s;
    j["attempted"] = res.attempted;
    j["failed"] = res.failed;
    Json failures = Json::array();
    for (const std::string& f : res.failures)
        failures.push_back(f);
    j["failures"] = std::move(failures);
    Json layers = Json::object();
    for (const auto& [name, value] : res.layers)
        layers[name] = value;
    j["layers"] = std::move(layers);
    return j;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--cache")
            opt.cache_dir = val;
        else if (key == "--work")
            opt.work_dir = val;
        else if (key == "--threads")
            opt.threads = std::max(1, std::atoi(val.c_str()));
        else if (key == "--corrupt")
            opt.corrupt = val;
        else
            return usage();
    }
    if (argc % 2 != 1 || opt.cache_dir.empty() || opt.work_dir.empty() ||
        opt.seconds <= 0)
        return usage();

    perfbench::Result res;
    try {
        koika::obs::Profiler::instance().set_thread_name("main");
        perfbench::set_tracing(opt.trace);
        if (opt.workload == "fault-rv32i")
            perfbench::run_fault_rv32i(opt, res);
        else if (opt.workload == "verify-msi")
            perfbench::run_verify_msi(opt, res);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    if (opt.trace && res.traced_ops > 0) {
        // Self time per traced operation; set-up and rebuild have their
        // own per-layer metrics.
        for (const auto& [layer, s] :
             perfbench::LayerTimes::get().self_seconds())
            res.layers[layer + ".self_s"] = s / res.traced_ops;
    }
    std::cout << to_json(opt, res).dump() << "\n";
    return 0;
}
