//===- perfbench/Daemon.cpp - cvr_served child process --------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

using cvr::Status;
using cvr::StatusOr;

namespace {

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point T0) {
  return std::chrono::duration<double>(SteadyClock::now() - T0).count();
}

} // namespace

Daemon::~Daemon() {
  if (Pid > 0) {
    (void)kill(Pid, SIGKILL);
    int WStatus = 0;
    (void)waitpid(Pid, &WStatus, 0);
  }
}

Status Daemon::start(const DaemonSpec &Spec) {
  if (Pid > 0)
    return Status::failedPrecondition("daemon already running");
  std::vector<std::string> Args = {
      Spec.Binary, "--socket=" + Spec.Socket,
      "--workers=" + std::to_string(Spec.Workers), "--drain-timeout=2"};
  for (const auto &[Name, File] : Spec.Blobs)
    Args.push_back("--blob=" + Name + "=" + File);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  // The environment is built before fork: the child may only make
  // async-signal-safe calls, and setenv allocates.
  std::vector<std::string> Env = {"OMP_NUM_THREADS=1"};
  for (char **E = environ; *E; ++E)
    if (std::string(*E).rfind("OMP_NUM_THREADS=", 0) != 0)
      Env.emplace_back(*E);
  std::vector<char *> Envp;
  for (std::string &E : Env)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);

  (void)unlink(Spec.Socket.c_str());
  int LogFd = open(Spec.LogPath.c_str(),
                   O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (LogFd < 0)
    return Status::unavailable("cannot open daemon log '" + Spec.LogPath +
                               "'");
  pid_t Parent = getpid();
  pid_t Child = fork();
  if (Child < 0) {
    (void)close(LogFd);
    return Status::unavailable("fork failed");
  }
  if (Child == 0) {
    // Die with the benchmark, even when it is killed outright.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != Parent)
      _exit(126);
    (void)dup2(LogFd, STDOUT_FILENO);
    (void)dup2(LogFd, STDERR_FILENO);
    execve(Argv[0], Argv.data(), Envp.data());
    _exit(127);
  }
  (void)close(LogFd);
  Pid = Child;
  Socket = Spec.Socket;
  return Status::okStatus();
}

StatusOr<cvr::serve::Client> Daemon::connect(double TimeoutSeconds) {
  SteadyClock::time_point T0 = SteadyClock::now();
  for (;;) {
    StatusOr<cvr::serve::Client> C = cvr::serve::Client::connect(Socket);
    if (C.ok())
      return C;
    int WStatus = 0;
    if (Pid <= 0 || waitpid(Pid, &WStatus, WNOHANG) == Pid) {
      Pid = -1;
      return Status::unavailable("daemon exited before listening on '" +
                                 Socket + "'");
    }
    if (secondsSince(T0) > TimeoutSeconds)
      return C.status().withContext("daemon did not listen in time");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

double Daemon::peakRssMb() const {
  if (Pid <= 0)
    return -1.0;
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream IS(Line.substr(6));
      double Kb = -1.0;
      IS >> Kb;
      return Kb < 0 ? -1.0 : Kb / 1024.0;
    }
  }
  return -1.0;
}

Status Daemon::stop(double GraceSeconds) {
  if (Pid <= 0)
    return Status::failedPrecondition("daemon not running");
  (void)kill(Pid, SIGTERM);
  SteadyClock::time_point T0 = SteadyClock::now();
  int WStatus = 0;
  pid_t Done = 0;
  while ((Done = waitpid(Pid, &WStatus, WNOHANG)) == 0 &&
         secondsSince(T0) < GraceSeconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool Killed = false;
  if (Done == 0) {
    (void)kill(Pid, SIGKILL);
    (void)waitpid(Pid, &WStatus, 0);
    Killed = true;
  }
  Pid = -1;
  (void)unlink(Socket.c_str());
  if (Killed)
    return Status::internal("daemon ignored SIGTERM; killed");
  if (!WIFEXITED(WStatus) || WEXITSTATUS(WStatus) != 0)
    return Status::internal("daemon exited with status " +
                            std::to_string(WStatus));
  return Status::okStatus();
}

} // namespace perfbench
