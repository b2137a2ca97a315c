/**
 * @file
 * Cooperative shutdown on SIGINT/SIGTERM.
 *
 * Long-running commands (fault campaigns, long simulations) must be
 * interruptible without corrupting their artifacts: every durable
 * file in this repo is published atomically (base/io.hpp), so the only
 * thing a signal handler has to do is *ask* the work loop to stop at
 * the next safe boundary. The handler sets one async-signal-safe flag;
 * loops poll shutdown_requested() between chunks, flush whatever
 * checkpoint/profile/metrics artifacts are in flight through the usual
 * atomic writers, and exit with kExitInterrupted so callers (and ctest)
 * can tell "interrupted but resumable" from success or failure.
 *
 * A second SIGINT/SIGTERM while the graceful path is still draining
 * force-exits with the conventional 128+signo code — the escape hatch
 * when the safe boundary is too far away.
 */
#pragma once

namespace koika {

/**
 * Exit code for "interrupted by SIGINT/SIGTERM after flushing
 * progress": BSD's EX_TEMPFAIL. Distinct from success (0), generic
 * failure (1) and usage (2), so scripts can retry/resume exactly the
 * interrupted case.
 */
constexpr int kExitInterrupted = 75;

/**
 * Install the SIGINT/SIGTERM handlers (idempotent). First signal sets
 * the shutdown flag; a second one _exits with 128+signo immediately.
 */
void install_shutdown_handlers();

/** True once a shutdown signal arrived. Safe from any thread. */
bool shutdown_requested();

/** The signal that requested shutdown (0 when none arrived). */
int shutdown_signal();

/**
 * Testing hook: arm or clear the shutdown flag as if a signal had
 * arrived. Lets unit tests drive the graceful-shutdown paths without
 * racing a real kill().
 */
void request_shutdown(int signo);

} // namespace koika
