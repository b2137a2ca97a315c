#include "codegen/compile.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "base/sha256.hpp"
#include "codegen/cpp_emit.hpp"
#include "obs/prof.hpp"

#ifndef CUTTLESIM_RUNTIME_DIR
#error "CUTTLESIM_RUNTIME_DIR must be defined by the build system"
#endif
#ifndef CUTTLESIM_CXX
#define CUTTLESIM_CXX "c++"
#endif

namespace koika::codegen {

namespace {

void
write_file(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s", path.c_str());
    out << text;
}

void
sleep_seconds(double seconds)
{
    if (seconds <= 0)
        return;
    struct timespec ts;
    ts.tv_sec = (time_t)seconds;
    ts.tv_nsec = (long)((seconds - (double)ts.tv_sec) * 1e9);
    while (nanosleep(&ts, &ts) == -1 && errno == EINTR)
        continue;
}

/**
 * One attempt: fork, exec `sh -c command` in a fresh process group with
 * stdout+stderr on a pipe, read under a deadline, SIGKILL the whole
 * group when the deadline passes, and decode the wait status.
 */
RunResult
run_once(const std::string& command, double timeout_seconds)
{
    RunResult result;

    int fds[2];
    if (pipe(fds) != 0)
        fatal("pipe failed: %s", std::strerror(errno));

    auto start = std::chrono::steady_clock::now();
    pid_t pid = fork();
    if (pid < 0)
        fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: own process group so the watchdog can kill the shell
        // together with anything it spawned (cc1plus, the binary, ...).
        setpgid(0, 0);
        dup2(fds[1], STDOUT_FILENO);
        dup2(fds[1], STDERR_FILENO);
        close(fds[0]);
        close(fds[1]);
        int devnull = open("/dev/null", O_RDONLY);
        if (devnull >= 0)
            dup2(devnull, STDIN_FILENO);
        execl("/bin/sh", "sh", "-c", command.c_str(), (char*)nullptr);
        _exit(127);
    }
    // Both sides race to setpgid so the group exists before any kill.
    setpgid(pid, pid);
    close(fds[1]);

    auto deadline =
        start + std::chrono::duration<double>(timeout_seconds);
    bool killed = false;
    char buf[4096];
    struct pollfd pfd = {fds[0], POLLIN, 0};
    for (;;) {
        int wait_ms = 50;
        if (!killed) {
            auto remaining = std::chrono::duration<double>(
                                 deadline - std::chrono::steady_clock::now())
                                 .count();
            if (remaining <= 0) {
                // Watchdog: kill the whole group, then drain the pipe
                // until every writer is gone.
                kill(-pid, SIGKILL);
                kill(pid, SIGKILL);
                killed = true;
            } else {
                wait_ms = (int)(remaining * 1000) + 1;
                if (wait_ms > 200)
                    wait_ms = 200;
            }
        }
        int rv = poll(&pfd, 1, wait_ms);
        if (rv < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rv == 0)
            continue;
        ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0) {
            result.output.append(buf, (size_t)n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break; // EOF: every process holding the write end has exited.
    }
    close(fds[0]);

    int status = 0;
    while (waitpid(pid, &status, 0) == -1 && errno == EINTR)
        continue;
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (killed) {
        result.timed_out = true;
    } else if (WIFSIGNALED(status)) {
        result.term_signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
        result.exit_code = WEXITSTATUS(status);
    } else {
        // Neither exited nor signaled (stopped?): report as a signal
        // death so it is never mistaken for a clean exit.
        result.term_signal = SIGKILL;
    }
    return result;
}

std::string
compile_command(const std::string& workdir, const std::string& main_file,
                const std::string& binary, const std::string& flags)
{
    std::ostringstream cmd;
    cmd << CUTTLESIM_CXX << " -std=c++20 " << flags << " -I "
        << CUTTLESIM_RUNTIME_DIR << " -I " << workdir << " -o " << binary
        << " " << workdir << "/" << main_file;
    return cmd.str();
}

// -- Compiled-model cache ----------------------------------------------------

/** Serializes compile_metrics() updates and cache bookkeeping. */
std::mutex&
cache_mutex()
{
    static std::mutex* m = new std::mutex();
    return *m;
}

void
cache_count(const char* name, uint64_t delta = 1)
{
    std::lock_guard<std::mutex> lock(cache_mutex());
    compile_metrics().inc(name, delta);
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Compiler identity for the cache key: absolute path plus the first
 * line of `--version` (so upgrading the toolchain in place invalidates
 * entries). Computed once per process.
 */
const std::string&
compiler_id()
{
    static const std::string* id = [] {
        std::string banner;
        RunOptions opts;
        opts.timeout_seconds = 20;
        RunResult r =
            run_command(std::string(CUTTLESIM_CXX) + " --version", opts);
        if (r.ok()) {
            size_t eol = r.output.find('\n');
            banner = r.output.substr(0, eol);
        }
        return new std::string(std::string(CUTTLESIM_CXX) + "\n" +
                               banner);
    }();
    return *id;
}

/**
 * The cache key: a SHA-256 over every input that determines the binary
 * — compiler identity, flags, the runtime header the -I path exposes,
 * and each (name, contents) source pair. Field separators are length
 * prefixes, so concatenation ambiguity cannot alias two keys.
 */
std::string
cache_key_for(const std::vector<std::pair<std::string, std::string>>& files,
              const std::string& main_file, const std::string& flags)
{
    Sha256 h;
    auto field = [&h](const std::string& s) {
        uint64_t len = s.size();
        h.update(&len, sizeof len);
        h.update(s);
    };
    field(compiler_id());
    field(flags);
    field(main_file);
    field(read_file(std::string(CUTTLESIM_RUNTIME_DIR) +
                    "/cuttlesim.hpp"));
    for (const auto& [name, contents] : files) {
        field(name);
        field(contents);
    }
    return h.hex_digest();
}

/** Copy `src` to `dst` byte-for-byte, executable. False on any error. */
bool
copy_binary(const std::string& src, const std::string& dst)
{
    std::string data = read_file(src);
    if (data.empty())
        return false;
    static std::atomic<uint64_t> counter{0};
    std::string tmp = dst + ".tmp." + std::to_string(getpid()) + "." +
                      std::to_string(counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << data;
        if (!out)
            return false;
    }
    if (chmod(tmp.c_str(), 0755) != 0 ||
        rename(tmp.c_str(), dst.c_str()) != 0) {
        unlink(tmp.c_str());
        return false;
    }
    return true;
}

/**
 * A store temp is stale once it is older than this: no healthy
 * copy_binary keeps one alive for more than seconds, so an hour-old
 * temp can only be the leavings of a killed process.
 */
constexpr time_t kStaleTempSeconds = 3600;

/**
 * Enforce the size cap: delete the oldest entries (mtime order; hits
 * re-touch their entry) until the directory fits. Racing invocations
 * may both try to delete the same entry; unlink of a missing file is
 * harmless. The same scan sweeps stale `*.tmp.*` files orphaned by
 * processes killed mid-store, so crashes cannot leak disk here.
 */
void
cache_evict(const CacheConfig& cache)
{
    struct Entry
    {
        std::string path;
        uint64_t bytes;
        time_t mtime;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    time_t now = time(nullptr);
    DIR* dir = opendir(cache.dir.c_str());
    if (dir == nullptr)
        return;
    while (struct dirent* ent = readdir(dir)) {
        std::string name = ent->d_name;
        std::string path = cache.dir + "/" + name;
        if (name.find(".tmp.") != std::string::npos) {
            struct stat st;
            if (stat(path.c_str(), &st) == 0 &&
                now - st.st_mtime > kStaleTempSeconds &&
                unlink(path.c_str()) == 0)
                cache_count("compile.cache_stale_temps_swept");
            continue;
        }
        if (name.size() < 5 ||
            name.compare(name.size() - 4, 4, ".bin") != 0)
            continue;
        struct stat st;
        if (stat(path.c_str(), &st) != 0)
            continue;
        entries.push_back({path, (uint64_t)st.st_size, st.st_mtime});
        total += (uint64_t)st.st_size;
    }
    closedir(dir);
    if (cache.max_bytes == 0 || total <= cache.max_bytes)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    for (const Entry& e : entries) {
        if (total <= cache.max_bytes)
            break;
        if (unlink(e.path.c_str()) == 0)
            cache_count("compile.cache_evictions");
        total -= e.bytes;
    }
}

std::string
cache_entry_path(const CacheConfig& cache, const std::string& key)
{
    return cache.dir + "/" + key + ".bin";
}

/** Try to satisfy the compile from the cache. True on a hit, with the
 *  cached binary copied to `binary`. */
bool
cache_lookup(const CacheConfig& cache, const std::string& key,
             const std::string& binary)
{
    std::string entry = cache_entry_path(cache, key);
    struct stat st;
    if (stat(entry.c_str(), &st) != 0)
        return false;
    if (!copy_binary(entry, binary))
        return false;
    // Touch the entry so eviction treats it as recently used.
    utimensat(AT_FDCWD, entry.c_str(), nullptr, 0);
    return true;
}

/** mkdir -p: create `path` and any missing parents. */
void
mkdir_p(const std::string& path)
{
    for (size_t i = 1; i <= path.size(); ++i)
        if (i == path.size() || path[i] == '/')
            ::mkdir(path.substr(0, i).c_str(), 0755);
}

/** Publish a freshly compiled binary: temp file + atomic rename. */
void
cache_store(const CacheConfig& cache, const std::string& key,
            const std::string& binary)
{
    mkdir_p(cache.dir);
    if (copy_binary(binary, cache_entry_path(cache, key))) {
        cache_count("compile.cache_stores");
        cache_evict(cache);
    }
}

} // namespace

std::string
default_cache_dir()
{
    if (const char* dir = std::getenv("CUTTLESIM_CACHE_DIR"))
        return dir;
    if (const char* xdg = std::getenv("XDG_CACHE_HOME"))
        return std::string(xdg) + "/cuttlesim";
    if (const char* home = std::getenv("HOME"))
        return std::string(home) + "/.cache/cuttlesim";
    return "";
}

obs::MetricsRegistry&
compile_metrics()
{
    static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
    return *registry;
}

const std::string&
compiler_identity()
{
    return compiler_id();
}

const std::string&
compiler_identity_line()
{
    static const std::string* line = [] {
        std::string* s = new std::string(compiler_identity());
        for (char& c : *s)
            if (c == '\n')
                c = ' ';
        return s;
    }();
    return *line;
}

std::string
RunResult::describe() const
{
    std::ostringstream os;
    if (timed_out) {
        os << "timed out after " << seconds << "s (killed by watchdog)";
    } else if (term_signal != 0) {
        os << "killed by signal " << term_signal;
        const char* name = strsignal(term_signal);
        if (name != nullptr)
            os << " (" << name << ")";
    } else {
        os << "exit code " << exit_code;
    }
    if (attempts > 1)
        os << " after " << attempts << " attempts";
    return os.str();
}

RunResult
run_command(const std::string& command, const RunOptions& opts)
{
    double backoff = opts.backoff_seconds;
    RunResult result;
    for (int attempt = 0;; ++attempt) {
        result = run_once(command, opts.timeout_seconds);
        result.attempts = attempt + 1;
        if (result.ok() || attempt >= opts.retries)
            return result;
        // Only signal deaths and watchdog kills are plausibly transient
        // (OOM killer, flaky box); a nonzero exit is deterministic.
        bool transient = result.timed_out || result.term_signal != 0;
        if (!transient)
            return result;
        cache_count("compile.transient_retries");
        // Jitter [0.5, 1.5)x so a herd of retriers (parallel campaign
        // workers all OOM-killed by the same spike) de-synchronizes
        // instead of re-colliding in lockstep.
        static thread_local std::mt19937_64 rng(
            std::random_device{}() ^
            ((uint64_t)getpid() << 17) ^
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
        double jitter =
            0.5 + (double)(rng() >> 11) / (double)(1ull << 53);
        sleep_seconds(backoff * jitter);
        backoff *= 2;
    }
}

CompileResult
compile_cpp(const std::string& workdir,
            const std::vector<std::pair<std::string, std::string>>& files,
            const std::string& main_file, const std::string& flags,
            const CompileOptions& opts)
{
    ::mkdir(workdir.c_str(), 0755);
    for (const auto& [name, contents] : files)
        write_file(workdir + "/" + name, contents);
    std::string binary = workdir + "/" + main_file + ".bin";

    CompileResult result;
    result.binary = binary;
    bool caching = !opts.cache.dir.empty();
    if (caching) {
        obs::ProfScope probe("compile/cache-probe");
        result.cache_key = cache_key_for(files, main_file, flags);
        if (cache_lookup(opts.cache, result.cache_key, binary)) {
            cache_count("compile.cache_hits");
            result.cache_hit = true;
            return result;
        }
        cache_count("compile.cache_misses");
    }

    std::string cmd = compile_command(workdir, main_file, binary, flags);
    RunOptions run_opts;
    run_opts.timeout_seconds = opts.timeout_seconds;
    run_opts.retries = opts.retries;
    run_opts.backoff_seconds = opts.backoff_seconds;
    obs::ProfScope fork_span("compile/external");
    RunResult run = run_command(cmd, run_opts);
    fork_span.close();
    cache_count("compile.external_compiles");
    if (!run.ok())
        fatal_diag(Diagnostic{.phase = "compile",
                              .design = opts.design.empty() ? main_file
                                                            : opts.design,
                              .command = cmd,
                              .detail = run.output},
                   "compiling generated model failed (%s)",
                   run.describe().c_str());

    result.compile_seconds = run.seconds;
    result.attempts = run.attempts;
    if (caching) {
        obs::ProfScope store_span("compile/cache-store");
        cache_store(opts.cache, result.cache_key, binary);
    }
    return result;
}

CompileResult
compile_model_driver(const Design& design, const std::string& workdir,
                     const std::string& driver_cpp,
                     const std::string& flags, const CompileOptions& opts)
{
    std::string cls = model_class_name(design);
    CompileOptions with_design = opts;
    if (with_design.design.empty())
        with_design.design = design.name();
    EmitOptions eopts = opts.emit;
    eopts.class_name.clear(); // the file is named after the design
    obs::ProfScope emit_span("compile/emit");
    std::string model = emit_model(design, eopts);
    emit_span.close();
    return compile_cpp(workdir,
                       {{cls + ".model.hpp", std::move(model)},
                        {cls + ".driver.cpp", driver_cpp}},
                       cls + ".driver.cpp", flags, with_design);
}

std::string
reg_dump_driver(const Design& design)
{
    std::string cls = model_class_name(design);
    std::ostringstream os;
    os << "#include <cstdio>\n#include <cstdlib>\n";
    os << "#include \"" << cls << ".model.hpp\"\n";
    os << "int main(int argc, char** argv) {\n";
    os << "    unsigned long cycles = argc > 1 ? strtoul(argv[1], "
          "nullptr, 10) : 10;\n";
    os << "    cuttlesim::models::" << cls << " m;\n";
    os << "    for (unsigned long c = 0; c < cycles; ++c) {\n";
    os << "        m.cycle();\n";
    os << "        for (size_t r = 0; r < m.kNumRegs; ++r) {\n";
    os << "            uint64_t w[8];\n";
    os << "            m.get_reg_words(r, w);\n";
    os << "            std::printf(\"%lu %zu %llx %llx %llx %llx %llx "
          "%llx %llx %llx\\n\", c, r,\n";
    os << "                (unsigned long long)w[0], (unsigned long "
          "long)w[1], (unsigned long long)w[2],\n";
    os << "                (unsigned long long)w[3], (unsigned long "
          "long)w[4], (unsigned long long)w[5],\n";
    os << "                (unsigned long long)w[6], (unsigned long "
          "long)w[7]);\n";
    os << "        }\n";
    os << "    }\n";
    os << "    return 0;\n";
    os << "}\n";
    return os.str();
}

std::string
run_binary(const std::string& binary, const std::string& args,
           const RunOptions& opts)
{
    // exec, so the shell is replaced by the binary and a crash is
    // decoded as the binary's own signal death, not as the shell's
    // 128+N exit-code convention.
    std::string cmd = "exec " + binary + " " + args;
    obs::ProfScope span("binary/run");
    RunResult run = run_command(cmd, opts);
    span.close();
    if (!run.ok())
        fatal_diag(Diagnostic{.phase = "run",
                              .command = cmd,
                              .detail = run.output},
                   "binary %s failed (%s)", binary.c_str(),
                   run.describe().c_str());
    return run.output;
}

double
time_binary(const std::string& binary, const std::string& args,
            const RunOptions& opts)
{
    std::string cmd = "exec " + binary + " " + args + " > /dev/null";
    obs::ProfScope span("binary/run");
    RunResult run = run_command(cmd, opts);
    span.close();
    if (!run.ok())
        fatal_diag(Diagnostic{.phase = "run",
                              .command = cmd,
                              .detail = run.output},
                   "binary %s failed (%s)", binary.c_str(),
                   run.describe().c_str());
    return run.seconds;
}

std::vector<std::vector<Bits>>
parse_reg_dump(const Design& design, const std::string& output)
{
    std::vector<std::vector<Bits>> cycles;
    std::istringstream is(output);
    std::string line;
    while (std::getline(is, line)) {
        unsigned long c, r;
        unsigned long long w[8];
        if (std::sscanf(line.c_str(),
                        "%lu %lu %llx %llx %llx %llx %llx %llx %llx %llx",
                        &c, &r, &w[0], &w[1], &w[2], &w[3], &w[4], &w[5],
                        &w[6], &w[7]) != 10)
            continue;
        if (cycles.size() <= c)
            cycles.resize(c + 1,
                          std::vector<Bits>(design.num_registers()));
        uint64_t words[8];
        for (int i = 0; i < 8; ++i)
            words[i] = w[i];
        cycles[c][r] =
            Bits::of_words(design.reg((int)r).type->width, words, 8);
    }
    return cycles;
}

} // namespace koika::codegen
