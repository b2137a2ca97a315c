#include "base/io.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "base/error.hpp"

namespace koika {

namespace {

Diagnostic
io_diag(const char* phase, const std::string& path)
{
    Diagnostic diag;
    diag.phase = phase;
    diag.command = path;
    diag.detail = std::strerror(errno);
    return diag;
}

} // namespace

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal_diag(io_diag("read-input", path), "cannot read %s",
                   path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        fatal_diag(io_diag("read-input", path), "error reading %s",
                   path.c_str());
    return buf.str();
}

void
write_file_atomic(const std::string& path, const std::string& bytes)
{
    static std::atomic<uint64_t> counter{0};
    std::string tmp = path + ".tmp." + std::to_string(getpid()) + "." +
                      std::to_string(counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            fatal_diag(io_diag("write-output", path),
                       "cannot write %s (temp file %s)", path.c_str(),
                       tmp.c_str());
        }
        out.write(bytes.data(), (std::streamsize)bytes.size());
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            fatal_diag(io_diag("write-output", path),
                       "error writing %s", path.c_str());
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        Diagnostic diag = io_diag("write-output", path);
        std::remove(tmp.c_str());
        fatal_diag(std::move(diag), "cannot publish %s", path.c_str());
    }
}

} // namespace koika
