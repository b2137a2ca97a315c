/**
 * @file
 * Durable file IO helpers shared by every tool that writes artifacts.
 *
 * All user-visible outputs (stats/coverage/fault-report JSON, checkpoint
 * files, merged databases) go through write_file_atomic: the bytes land
 * in a temp file next to the destination and are published with a single
 * rename(2), exactly like the compiled-model cache publishes binaries.
 * A failed or interrupted write therefore never leaves a truncated
 * artifact under the final name — readers either see the old file or the
 * complete new one. Failures raise FatalError with a structured
 * Diagnostic (phase "write-output") so CLI drivers exit nonzero with an
 * attributable message instead of silently dropping data.
 */
#pragma once

#include <string>

namespace koika {

/** Read a whole file; FatalError (phase "read-input") when unreadable. */
std::string read_file(const std::string& path);

/**
 * Write `bytes` to `path` atomically: temp file in the same directory,
 * fsync-free rename publish. Throws FatalError with a Diagnostic naming
 * the path and the OS error on any failure, after removing the temp
 * file; the destination is never left partially written.
 */
void write_file_atomic(const std::string& path, const std::string& bytes);

} // namespace koika
