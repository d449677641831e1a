//===- perfbench/Daemon.h - cvr_served child process ------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One `cvr_served` child of the benchmark: spawned on a relative socket
/// path inside the benchmark's work directory, connected to through
/// serve::Client, and always stopped and reaped before the benchmark
/// exits (the destructor kills and waits for a child still running).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include "serve/Client.h"
#include "support/Status.h"

#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace perfbench {

struct DaemonSpec {
  std::string Binary;  ///< Path of the cvr_served executable.
  std::string Socket;  ///< Unix socket path (relative: sun_path is short).
  std::string LogPath; ///< The daemon's stdout and stderr go here.
  int Workers = 1;
  std::vector<std::pair<std::string, std::string>> Blobs; ///< NAME, FILE.
};

class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon();

  /// Forks and execs the daemon (with OMP_NUM_THREADS=1, so no worker
  /// fans out beyond its single-chunk blobs).
  [[nodiscard]] cvr::Status start(const DaemonSpec &Spec);

  /// Connects to the daemon's socket, retrying while it loads its fleet.
  /// UNAVAILABLE when the daemon exits or does not listen within
  /// \p TimeoutSeconds.
  [[nodiscard]] cvr::StatusOr<cvr::serve::Client>
  connect(double TimeoutSeconds);

  /// Peak resident set (VmHWM) of the running daemon in MB; < 0 when it
  /// cannot be read.
  double peakRssMb() const;

  /// SIGTERM, then wait for exit (SIGKILL after \p GraceSeconds). Clients
  /// should be closed first so the drain has nothing to wait for.
  /// INTERNAL when the daemon did not exit cleanly with status 0.
  [[nodiscard]] cvr::Status stop(double GraceSeconds = 5.0);

private:
  pid_t Pid = -1;
  std::string Socket;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
