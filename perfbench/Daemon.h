//===- Daemon.h - A matcoald child driven over its stdin/stdout -*- C++ -*-===//
//
// Part of matbench, the matcoal benchmark.
//
//===----------------------------------------------------------------------===//

#ifndef MATBENCH_DAEMON_H
#define MATBENCH_DAEMON_H

#include <string>
#include <vector>

namespace matbench {

/// One matcoald process speaking NDJSON on a pipe pair. The destructor
/// closes its stdin (the daemon's drain-and-exit signal) and waits for
/// it; a daemon that has not exited after a grace period is killed.
class Daemon {
public:
  /// Starts \p Binary with \p Args; \p Env entries ("K=V") are added to
  /// the inherited environment. Throws std::runtime_error on failure.
  Daemon(const std::string &Binary, const std::vector<std::string> &Args,
         const std::vector<std::string> &Env);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  int pid() const { return Pid; }
  /// Writes one request line (a newline is appended).
  void send(const std::string &Line);
  /// Reads every complete reply line that arrives within \p TimeoutMs.
  /// Returns false when the daemon closed its stdout.
  bool poll(int TimeoutMs, std::vector<std::string> &Lines);
  /// Closes stdin and waits for exit; returns the exit status (-1 when
  /// the daemon had to be killed). Idempotent.
  int stop();

private:
  int Pid = -1;
  int In = -1;  ///< Our end of the daemon's stdin.
  int Out = -1; ///< Our end of the daemon's stdout.
  std::string Partial;
  int Status = 0;
};

} // namespace matbench

#endif // MATBENCH_DAEMON_H
