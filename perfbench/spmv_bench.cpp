//===- perfbench/spmv_bench.cpp - Served-SpMV benchmark program -----------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// One run of one workload against a spawned cvr_served:
//
//   spmv_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//              --served=PATH --work-dir=DIR
//
// The run generates its matrices from the seed, then starts the daemon
// several times. Each start converts the matrices to single-chunk Mapped
// blobs with the program's own conversion, spawns cvr_served on them, and
// waits for every matrix to answer one request (that span is setup_s).
// A closed-loop timed window follows, with every answer checked. The
// untraced run prints the end-to-end metrics. The traced run times the
// calls into each layer instead and prints the per-layer metrics. The last
// stdout line is the JSON result. Exit status 1 means some op failed or
// the run could not be set up. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "SpanLog.h"

#include "analysis/Roofline.h"
#include "core/CvrFormat.h"
#include "gen/Generators.h"
#include "matrix/Reference.h"
#include "serve/Fleet.h"
#include "serve/Protocol.h"
#include "serve/Service.h"
#include "solvers/Solvers.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sched.h>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cvr;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Daemon starts per run. The timed window is split evenly across them and
/// every end-to-end figure is a median over them, so neither one start's
/// tuning outcome nor a noisy second on the host carries a run.
constexpr int Starts = 20;
/// Seeded inputs per matrix (Multiply x vectors or Solve right-hand sides).
constexpr int InputsPerMatrix = 4;
constexpr double MultiplyRelTol = 1e-10;
constexpr double SolveTol = 1e-8;
constexpr int SolveMaxIterations = 1000;
/// A Solve's true residual ||b - A x|| / ||b||, recomputed with the
/// reference SpMV, may exceed the solver's recurrence residual by rounding
/// only; a larger gap means a wrong answer.
constexpr double SolveTrueResidualTol = 100 * SolveTol;
/// In-process repetitions behind each per-layer median: enough that a
/// median over a few milliseconds' calls is not one noisy moment.
constexpr int LayerReps = 101;
/// Back-to-back repetitions behind each prefetch distance's plan-check time.
constexpr int RetimeReps = 21;

struct WorkloadSpec {
  const char *Name;
  std::vector<std::string> Matrices;
  serve::Op Kind;
  int Connections; ///< Client connections == daemon workers.
};

/// The 27-point stencil solve_cg serves; the traced run's in-process CG runs
/// on it in every workload that serves it.
constexpr const char *SolveMatrix = "stencil27";

const std::vector<WorkloadSpec> &workloads() {
  static const std::vector<WorkloadSpec> W = {
      {"spmv_fleet", {"rmat", "hubcol", SolveMatrix, "circuit", "blocks"},
       serve::Op::Multiply, 1},
      {"spmv_hot", {"rmat"}, serve::Op::Multiply, 2},
      {"solve_cg", {SolveMatrix}, serve::Op::Solve, 1},
  };
  return W;
}

/// One matrix per structure class, each about 200K nonzeros: a 2.0-2.5 MB
/// single-chunk blob, about the size of a core's private L2, so the fleet's
/// whole rotation (about 12 MB) stays in the shared L3 (README finding 2).
/// Rows are kept at 4-8K, so an x or y vector (at most 64 KB) crosses the
/// socket in one buffer fill rather than a train of wakeups.
CsrMatrix generateMatrix(const std::string &Name, std::uint64_t Seed) {
  std::uint64_t S = SplitMix64(Seed ^ std::hash<std::string>{}(Name)).next();
  if (Name == "rmat")
    return genRmat(13, 30, S);
  if (Name == "hubcol")
    return genPowerLaw(8000, 8000, 25.0, 0.8, S);
  if (Name == SolveMatrix)
    return genStencil27(20, 20, 20); // SPD; CG's iteration count is exact.
  if (Name == "circuit")
    return genCircuit(8000, 24.0, 8, S);
  if (Name == "blocks")
    return genDenseBlocks(40, 100, 0.5, S);
  std::fprintf(stderr, "error: unknown matrix '%s'\n", Name.c_str());
  std::exit(2);
}

struct ServedMatrix {
  std::string Name;
  CsrMatrix A;
  std::vector<serve::Request> Requests; ///< One per seeded input.
  std::vector<std::vector<double>> Ref; ///< Reference products (Multiply).
  std::string BlobPath;
  std::uintmax_t BlobBytes = 0;
  /// Served variant of each daemon start, from its first response.
  std::vector<std::string> Variants;
};

//===----------------------------------------------------------------------===//
// Answer checks
//===----------------------------------------------------------------------===//

double maxAbs(const std::vector<double> &V) {
  double M = 0.0;
  for (double X : V)
    M = std::max(M, std::fabs(X));
  return M;
}

double norm2(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X * X;
  return std::sqrt(S);
}

/// Empty when \p Resp answers input \p In of \p M correctly; otherwise why
/// not.
std::string checkAnswer(const ServedMatrix &M, int In,
                        const serve::Response &Resp) {
  if (Resp.Code != StatusCode::Ok)
    return "code " + std::string(statusCodeName(Resp.Code)) + ": " +
           Resp.Message;
  const serve::Request &Req = M.Requests[In];
  if (Req.Kind == serve::Op::Multiply) {
    const std::vector<double> &Ref = M.Ref[In];
    if (Resp.Y.size() != Ref.size())
      return "multiply: wrong result length";
    double Diff = 0.0;
    for (std::size_t I = 0; I < Ref.size(); ++I)
      Diff = std::max(Diff, std::fabs(Resp.Y[I] - Ref[I]));
    if (!(Diff <= MultiplyRelTol * std::max(1.0, maxAbs(Ref))))
      return "multiply: max |y - ref| = " + std::to_string(Diff);
    return "";
  }
  if (!Resp.Converged || !(Resp.Residual <= Req.Tolerance))
    return "solve: converged=" + std::to_string(Resp.Converged) +
           " residual=" + std::to_string(Resp.Residual);
  if (Resp.Y.size() != Req.X.size())
    return "solve: wrong solution length";
  std::vector<double> Ax = referenceSpmv(M.A, Resp.Y);
  for (std::size_t I = 0; I < Ax.size(); ++I)
    Ax[I] = Req.X[I] - Ax[I];
  double True = norm2(Ax) / norm2(Req.X);
  if (!(True <= SolveTrueResidualTol))
    return "solve: true residual " + std::to_string(True);
  return "";
}

struct Tally {
  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;
  std::string FirstFailure;

  void record(const std::string &Why) {
    ++Attempted;
    if (!Why.empty()) {
      ++Failed;
      if (FirstFailure.empty())
        FirstFailure = Why;
    }
  }
  void merge(const Tally &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
    if (FirstFailure.empty())
      FirstFailure = O.FirstFailure;
  }
};

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point T0) {
  return std::chrono::duration<double>(SteadyClock::now() - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile, \p P in (0, 100].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  auto Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<std::size_t>(Rank, 1, V.size()) - 1];
}

/// Median over daemon starts of each start's \p P-th percentile.
double medianOverStarts(const std::vector<std::vector<double>> &ByStart,
                        double P) {
  std::vector<double> PerStart;
  for (const std::vector<double> &V : ByStart)
    if (!V.empty())
      PerStart.push_back(percentile(V, P));
  return median(PerStart);
}

double mean(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

/// Median seconds of \p Reps calls to \p F, after one warm-up call.
template <typename Fn> double medianSeconds(int Reps, Fn &&F) {
  F();
  std::vector<double> T;
  for (int R = 0; R < Reps; ++R) {
    SteadyClock::time_point T0 = SteadyClock::now();
    F();
    T.push_back(secondsSince(T0));
  }
  return median(T);
}

/// The number following "\"Key\":" at or after \p From in \p Json; 0 when
/// absent (a telemetry counter not bumped yet is not in the snapshot).
double jsonNumber(const std::string &Json, const std::string &Key,
                  std::size_t From = 0) {
  std::string Needle = "\"" + Key + "\":";
  std::size_t P = Json.find(Needle, From);
  if (P == std::string::npos)
    return 0.0;
  return std::strtod(Json.c_str() + P + Needle.size(), nullptr);
}

/// CPU steal and total jiffies from the aggregate /proc/stat line.
std::pair<double, double> readStealJiffies() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  double Total = 0.0, Steal = 0.0, V = 0.0;
  for (int Field = 0; Field < 8 && (In >> V); ++Field) {
    Total += V;
    if (Field == 7)
      Steal = V;
  }
  return {Steal, Total};
}

std::string readSysfs(const std::string &Path) {
  std::ifstream In(Path);
  std::string S;
  std::getline(In, S);
  return S;
}

/// "L2=2048K L3=307200K" from cpu0's cache indices.
std::string cacheSizes() {
  std::string Out;
  for (int I = 0; I < 8; ++I) {
    std::string Dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(I) + "/";
    std::string Level = readSysfs(Dir + "level");
    if (Level.empty())
      break;
    if (Level == "2" || Level == "3")
      Out += (Out.empty() ? "L" : " L") + Level + "=" +
             readSysfs(Dir + "size");
  }
  return Out.empty() ? "unknown" : Out;
}

/// Prefetch distance named by a served variant ("CVR[view+pf2]" -> 2).
int variantPrefetch(const std::string &Variant) {
  std::size_t P = Variant.find("+pf");
  return P == std::string::npos ? 0 : std::atoi(Variant.c_str() + P + 3);
}

/// Pins the run, and through inheritance every daemon it spawns, to the \p N
/// highest-numbered CPUs it may use, so a caller and the worker it waits on
/// share a CPU that stays busy while a request is in flight (README finding
/// 5). Returns the CPUs as "2,3"; empty when the affinity cannot be set.
std::string pinToCpus(int N) {
  cpu_set_t Allowed, Pin;
  CPU_ZERO(&Allowed);
  CPU_ZERO(&Pin);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return "";
  std::string Cpus;
  for (int C = CPU_SETSIZE - 1; C >= 0 && N > 0; --C)
    if (CPU_ISSET(C, &Allowed)) {
      CPU_SET(C, &Pin);
      --N;
      Cpus = std::to_string(C) + (Cpus.empty() ? "" : "," + Cpus);
    }
  if (Cpus.empty() || sched_setaffinity(0, sizeof(Pin), &Pin) != 0)
    return "";
  return Cpus;
}

//===----------------------------------------------------------------------===//
// The client loop
//===----------------------------------------------------------------------===//

/// Client::call, or in a traced window the same exchange spelled out so
/// encode and decode get spans of their own.
Status timedCall(serve::Client &C, SpanLog *Log, std::int64_t Rid,
                 const serve::Request &R, serve::Response &Out) {
  if (!Log)
    return C.call(R, Out);
  ScopedSpan Call(Log, "client.call", Rid);
  std::string Body;
  {
    ScopedSpan E(Log, "protocol.encode", Rid);
    Body = serve::encodeRequest(R);
  }
  if (Status S = serve::writeFrame(C.fd(), Body); !S.ok())
    return S;
  std::string Reply;
  if (Status S = serve::readFrame(C.fd(), Reply); !S.ok())
    return S;
  ScopedSpan D(Log, "protocol.decode", Rid);
  return serve::decodeResponse(Reply.data(), Reply.size(), Out);
}

struct Sample {
  double Micros;
  int Matrix;
  int Start;
  bool Traced;
};

struct LoopResult {
  std::vector<Sample> Samples;
  Tally Ops;
  std::int64_t Iterations = 0; ///< Summed over Solve responses.
  std::int64_t Solves = 0;
};

/// Closed loop on one connection until \p End: one outstanding request,
/// every answer checked. Matrices come in seeded random order, shuffled
/// per round of one request each, so every matrix gets the same share of
/// requests and a pooled percentile does not move with the mix.
void clientLoop(serve::Client &C, const std::vector<ServedMatrix> &Ms,
                int Start, std::uint64_t Seed, SteadyClock::time_point End,
                SpanLog *Log, std::int64_t &NextRid, LoopResult &Out) {
  Xoshiro256 Rng(Seed);
  std::vector<int> Round(Ms.size());
  std::size_t Next = Round.size();
  while (SteadyClock::now() < End) {
    if (Next == Round.size()) {
      for (std::size_t I = 0; I < Round.size(); ++I)
        Round[I] = static_cast<int>(I);
      for (std::size_t I = Round.size(); I > 1; --I)
        std::swap(Round[I - 1], Round[Rng.nextBounded(I)]);
      Next = 0;
    }
    int Mi = Round[Next++];
    int In = static_cast<int>(Rng.nextBounded(InputsPerMatrix));
    const ServedMatrix &M = Ms[Mi];
    serve::Response Resp;
    SteadyClock::time_point T0 = SteadyClock::now();
    Status S = timedCall(C, Log, NextRid++, M.Requests[In], Resp);
    double Us = secondsSince(T0) * 1e6;
    Out.Ops.record(S.ok() ? checkAnswer(M, In, Resp) : S.toString());
    Out.Samples.push_back({Us, Mi, Start, Log != nullptr});
    if (!S.ok())
      return; // The connection is gone; the failure is counted.
    if (M.Requests[In].Kind == serve::Op::Solve) {
      Out.Iterations += Resp.Iterations;
      ++Out.Solves;
    }
  }
}

//===----------------------------------------------------------------------===//
// One daemon start
//===----------------------------------------------------------------------===//

/// Counters read through the Stats op around a timed window.
struct StatsCounters {
  double Runs = 0, CacheHits = 0, CacheMisses = 0, Shed = 0, Degraded = 0,
         DeadlineExceeded = 0, SolverIterations = 0;

  static StatsCounters parse(const std::string &J) {
    StatsCounters C;
    std::size_t Cache = J.find("\"kernel_cache\"");
    std::size_t Metrics = J.find("\"metrics\"");
    if (Cache == std::string::npos || Metrics == std::string::npos)
      return C;
    C.CacheHits = jsonNumber(J, "hits", Cache);
    C.CacheMisses = jsonNumber(J, "misses", Cache);
    C.Runs = jsonNumber(J, "spmv.cvr.runs", Metrics);
    C.Shed = jsonNumber(J, "serve.shed", Metrics);
    C.Degraded = jsonNumber(J, "serve.degraded", Metrics);
    C.DeadlineExceeded = jsonNumber(J, "serve.deadline_exceeded", Metrics);
    C.SolverIterations = jsonNumber(J, "solver.iterations", Metrics);
    return C;
  }
  void addDelta(const StatsCounters &After, const StatsCounters &Before) {
    Runs += After.Runs - Before.Runs;
    CacheHits += After.CacheHits - Before.CacheHits;
    CacheMisses += After.CacheMisses - Before.CacheMisses;
    Shed += After.Shed - Before.Shed;
    Degraded += After.Degraded - Before.Degraded;
    DeadlineExceeded += After.DeadlineExceeded - Before.DeadlineExceeded;
    SolverIterations += After.SolverIterations - Before.SolverIterations;
  }
};

StatusOr<StatsCounters> readStats(serve::Client &C) {
  serve::Request R;
  R.Kind = serve::Op::Stats;
  serve::Response Resp;
  if (Status S = C.call(R, Resp); !S.ok())
    return S;
  if (Resp.Code != StatusCode::Ok)
    return Status(Resp.Code, "stats: " + Resp.Message);
  return StatsCounters::parse(Resp.Text);
}

struct RunConfig {
  const WorkloadSpec *W = nullptr;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Served;
  std::string WorkDir;
};

/// Everything the run accumulates over its daemon starts.
struct RunTotals {
  std::vector<double> SetupS, ConvertMs, RssMb;
  std::vector<double> StartOpsPerS; ///< Untraced throughput of each start.
  LoopResult Loop;       ///< Samples from every start and connection.
  StatsCounters Stats;   ///< Deltas over the timed windows.
  std::int64_t StatsOps = 0;
  double StealJiffies = 0.0, TotalJiffies = 0.0;
  Tally Ops;             ///< Every checked op, set-up ones included.
  std::vector<SpanLog> Logs; ///< Traced windows, one log per connection.
  SpanLog Local{0};          ///< Conversion and in-process layer calls.
};

Status writeBlob(ServedMatrix &M, const CvrMatrix &Cvr) {
  (void)unlink(M.BlobPath.c_str()); // Never rewrite a file in place.
  std::ofstream OS(M.BlobPath, std::ios::binary);
  if (Status S = Cvr.writeBlob(OS, BlobLayout::Mapped); !S.ok())
    return S;
  OS.close();
  if (!OS)
    return Status::unavailable("cannot write '" + M.BlobPath + "'");
  M.BlobBytes = fs::file_size(M.BlobPath);
  return Status::okStatus();
}

/// One daemon start: set-up (timed), then the timed window. In a traced
/// run the window is split into an untraced and a traced half, in an order
/// that alternates between starts.
Status runStart(const RunConfig &Cfg, int Start, std::vector<ServedMatrix> &Ms,
                RunTotals &T) {
  const WorkloadSpec &W = *Cfg.W;
  SteadyClock::time_point T0 = SteadyClock::now();
  double ConvertSeconds = 0.0;
  CvrOptions Opts;
  Opts.NumThreads = 1; // One chunk: the kernel runs on one thread.
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    ServedMatrix &M = Ms[I];
    SteadyClock::time_point C0 = SteadyClock::now();
    StatusOr<CvrMatrix> Cvr = [&] {
      ScopedSpan S(Cfg.Trace ? &T.Local : nullptr, "core.convert",
                   (std::int64_t(Start) << 40) | (std::int64_t(1) << 39) | I);
      return CvrMatrix::tryFromCsr(M.A, Opts);
    }();
    ConvertSeconds += secondsSince(C0);
    if (!Cvr.ok())
      return Cvr.status().withContext("converting " + M.Name);
    if (Status S = writeBlob(M, *Cvr); !S.ok())
      return S;
  }

  DaemonSpec Spec;
  Spec.Binary = Cfg.Served;
  Spec.Socket = Cfg.WorkDir + "/served.sock";
  Spec.LogPath = Cfg.WorkDir + "/served.log";
  Spec.Workers = W.Connections;
  for (const ServedMatrix &M : Ms)
    Spec.Blobs.emplace_back(M.Name, M.BlobPath);
  Daemon D;
  if (Status S = D.start(Spec); !S.ok())
    return S;
  std::vector<serve::Client> Clients;
  for (int I = 0; I < W.Connections; ++I) {
    StatusOr<serve::Client> C = D.connect(60.0);
    if (!C.ok())
      return C.status();
    Clients.push_back(std::move(*C));
  }
  for (ServedMatrix &M : Ms) {
    serve::Response Resp;
    Status S = Clients[0].call(M.Requests[0], Resp);
    T.Ops.record(S.ok() ? checkAnswer(M, 0, Resp) : S.toString());
    if (!S.ok())
      return S;
    M.Variants.push_back(Resp.Variant);
  }
  T.SetupS.push_back(secondsSince(T0));
  T.ConvertMs.push_back(ConvertSeconds * 1e3);

  StatusOr<StatsCounters> Before = readStats(Clients[0]);
  if (!Before.ok())
    return Before.status();
  std::pair<double, double> Steal0 = readStealJiffies();

  double Slice = Cfg.Seconds / Starts;
  std::vector<bool> Halves = {false};
  if (Cfg.Trace)
    Halves = Start % 2 ? std::vector<bool>{true, false}
                       : std::vector<bool>{false, true};
  for (bool Traced : Halves) {
    double Len = Slice / static_cast<double>(Halves.size());
    std::vector<LoopResult> Results(Clients.size());
    std::vector<std::int64_t> Rids(Clients.size());
    std::size_t FirstLog = T.Logs.size();
    if (Traced)
      for (std::size_t I = 0; I < Clients.size(); ++I) {
        T.Logs.emplace_back(static_cast<int>(I) + 1);
        Rids[I] = (static_cast<std::int64_t>(Start) << 40) |
                  (static_cast<std::int64_t>(I) << 32);
      }
    SteadyClock::time_point W0 = SteadyClock::now();
    SteadyClock::time_point End =
        W0 + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(Len));
    std::vector<std::thread> Threads;
    for (std::size_t I = 0; I < Clients.size(); ++I) {
      std::uint64_t LoopSeed =
          SplitMix64(Cfg.Seed * 1000003ULL + Start * 101ULL + I * 7ULL +
                     (Traced ? 1 : 0))
              .next();
      SpanLog *Log = Traced ? &T.Logs[FirstLog + I] : nullptr;
      Threads.emplace_back([&, I, LoopSeed, Log] {
        clientLoop(Clients[I], Ms, Start, LoopSeed, End, Log, Rids[I],
                   Results[I]);
      });
    }
    for (std::thread &Th : Threads)
      Th.join();
    double Elapsed = secondsSince(W0);
    std::int64_t Completed = 0;
    for (LoopResult &R : Results) {
      Completed += R.Ops.Attempted - R.Ops.Failed;
      T.StatsOps += R.Ops.Attempted;
      T.Ops.merge(R.Ops);
      T.Loop.Samples.insert(T.Loop.Samples.end(), R.Samples.begin(),
                            R.Samples.end());
      T.Loop.Iterations += R.Iterations;
      T.Loop.Solves += R.Solves;
    }
    if (!Traced)
      T.StartOpsPerS.push_back(static_cast<double>(Completed) / Elapsed);
  }

  std::pair<double, double> Steal1 = readStealJiffies();
  T.StealJiffies += Steal1.first - Steal0.first;
  T.TotalJiffies += Steal1.second - Steal0.second;
  StatusOr<StatsCounters> After = readStats(Clients[0]);
  if (!After.ok())
    return After.status();
  T.Stats.addDelta(*After, *Before);
  T.RssMb.push_back(D.peakRssMb());

  Clients.clear(); // Close first, so the drain has nothing to wait for.
  return D.stop();
}

//===----------------------------------------------------------------------===//
// In-process layer measurements (traced run)
//===----------------------------------------------------------------------===//

/// Forwards to a CVR view kernel, with a span around every kernel call, so
/// a solve's self time excludes the SpMVs it drives. The spans have a name
/// of their own: these run on the solve matrix, not the served rotation.
class SpannedKernel : public SpmvKernel {
public:
  SpannedKernel(const serve::CvrViewKernel &K, SpanLog &Log, std::int64_t Rid)
      : K(K), Log(Log), Rid(Rid) {}
  std::string name() const override { return K.name(); }
  void prepare(const CsrMatrix &) override {}
  void run(const double *X, double *Y) const override {
    ScopedSpan S(&Log, "core.spmv_in_solve", Rid);
    K.run(X, Y);
  }
  void runFused(const double *X, double *Y, FusedEpilogue &E) const override {
    ScopedSpan S(&Log, "core.spmv_in_solve", Rid);
    K.runFused(X, Y, E);
  }
  std::int64_t preparedRows() const override { return K.preparedRows(); }
  std::int64_t preparedCols() const override { return K.preparedCols(); }

private:
  const serve::CvrViewKernel &K;
  SpanLog &Log;
  std::int64_t Rid;
};

/// Per matrix of the workload.
struct MatrixLayers {
  double LoadMs = 0, TuneMs = 0, EncodeUs = 0, DecodeUs = 0, HandleUs = 0,
         SpmvUs = 0, Bytes = 0, FrameBytes = 0;
  std::int64_t Nnz = 0;
  bool Mapped = false;
  int ServedPf = 0;
  /// Back-to-back median per prefetch distance {0, 2, 4, 8}.
  std::vector<double> PfUs;
};

constexpr int PrefetchDistances[] = {0, 2, 4, 8};

/// The prefetch distance most of this run's daemon starts served.
int majorityPrefetch(const ServedMatrix &M) {
  std::map<int, int> Count;
  for (const std::string &V : M.Variants)
    ++Count[variantPrefetch(V)];
  int Best = 0, BestCount = -1;
  for (const auto &[Pf, N] : Count)
    if (N > BestCount) {
      Best = Pf;
      BestCount = N;
    }
  return Best;
}

/// Back-to-back medians of the bare kernel at each prefetch distance on the
/// served (mapped) matrix \p Cvr: the yardstick the served variants are
/// judged against.
void retimePrefetch(const CvrMatrix &Cvr, MatrixLayers &L) {
  std::vector<double> X(static_cast<std::size_t>(Cvr.numCols()), 1.0);
  std::vector<double> Y(static_cast<std::size_t>(Cvr.numRows()));
  for (int Pf : PrefetchDistances) {
    serve::CvrViewKernel K(Cvr, Pf);
    L.PfUs.push_back(
        medianSeconds(RetimeReps, [&] { K.run(X.data(), Y.data()); }) * 1e6);
  }
}

/// Back-to-back kernel microseconds at prefetch distance \p Pf.
double pfMicros(const MatrixLayers &L, int Pf) {
  for (std::size_t I = 0; I < L.PfUs.size(); ++I)
    if (PrefetchDistances[I] == Pf)
      return L.PfUs[I];
  return 0.0;
}

/// A served variant is a good plan when its warm time is within 5% of the
/// fastest prefetch distance's.
bool planOk(const MatrixLayers &L, int Pf) {
  double Best = *std::min_element(L.PfUs.begin(), L.PfUs.end());
  double Served = pfMicros(L, Pf);
  return Served > 0 && Served <= 1.05 * Best;
}

/// Loads the blobs into an in-process fleet and times each layer's calls
/// on the kernel the daemon served.
Status measureLayers(std::vector<ServedMatrix> &Ms,
                     std::vector<MatrixLayers> &Out, SpanLog &Log,
                     Tally &Ops) {
  serve::Fleet F;
  std::vector<std::shared_ptr<const serve::ServedMatrix>> Entries;
  std::int64_t Rid = std::int64_t(1) << 60;
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    ServedMatrix &M = Ms[I];
    MatrixLayers &L = Out[I];
    SteadyClock::time_point T0 = SteadyClock::now();
    {
      ScopedSpan S(&Log, "fleet.add_blob", Rid);
      if (Status St = F.addBlob(M.Name, M.BlobPath); !St.ok())
        return St;
    }
    L.LoadMs = secondsSince(T0) * 1e3;
    std::shared_ptr<const serve::ServedMatrix> E = F.find(M.Name);
    Entries.push_back(E);
    L.Mapped = E->Mode == serve::LoadMode::Mapped;
    serve::ExecPlan Plan;
    T0 = SteadyClock::now();
    {
      ScopedSpan S(&Log, "fleet.tune_exec", Rid);
      if (Status St = F.tuneExec(*E, Deadline::never(), Plan); !St.ok())
        return St;
    }
    L.TuneMs = secondsSince(T0) * 1e3;
    // Price the kernel the daemon served, not this process's own tuning
    // outcome: the cache gets the served plan, as a cache hit would.
    L.ServedPf = majorityPrefetch(M);
    F.kernelCache().insert(E->Fingerprint, serve::ExecPlan{L.ServedPf, 0.0});
    L.Nnz = M.A.numNonZeros();
    L.Bytes = analysis::predictCvr(E->M).TotalBytes;
    ++Rid;
  }

  // Rounds over the workload's matrices, in the order the served loop
  // rotates through them, so each call meets the caches a served request
  // meets: on a fleet the previous request streamed another matrix.
  serve::Service Svc(F);
  std::size_t N = Ms.size();
  std::vector<std::vector<double>> EncReq(N), DecReq(N), H(N), EncResp(N),
      DecResp(N), Spmv(N);
  auto Clock = [](auto &&Fn) {
    SteadyClock::time_point T0 = SteadyClock::now();
    Fn();
    return secondsSince(T0) * 1e6;
  };
  for (int R = 0; R <= LayerReps; ++R) {
    for (std::size_t I = 0; I < N; ++I, ++Rid) {
      ServedMatrix &M = Ms[I];
      int In = R % InputsPerMatrix;
      std::string ReqBody, RespBody;
      serve::Request Req;
      serve::Response Resp, Back;
      Status DecSt, BackSt;
      double Te = Clock([&] {
        ScopedSpan S(&Log, "protocol.encode", Rid);
        ReqBody = serve::encodeRequest(M.Requests[In]);
      });
      double Td = Clock([&] {
        ScopedSpan S(&Log, "protocol.decode", Rid);
        DecSt = serve::decodeRequest(ReqBody.data(), ReqBody.size(), Req);
      });
      double Th = Clock([&] {
        ScopedSpan S(&Log, "service.handle", Rid);
        Resp = Svc.handle(Req);
      });
      double Te2 = Clock([&] {
        ScopedSpan S(&Log, "protocol.encode", Rid);
        RespBody = serve::encodeResponse(Resp);
      });
      double Td2 = Clock([&] {
        ScopedSpan S(&Log, "protocol.decode", Rid);
        BackSt = serve::decodeResponse(RespBody.data(), RespBody.size(), Back);
      });
      Ops.record(!DecSt.ok()    ? DecSt.toString()
                 : !BackSt.ok() ? BackSt.toString()
                                : checkAnswer(M, In, Back));
      Out[I].FrameBytes =
          static_cast<double>(ReqBody.size() + RespBody.size() + 8);
      if (R == 0)
        continue; // Warm-up round.
      EncReq[I].push_back(Te);
      DecReq[I].push_back(Td);
      H[I].push_back(Th);
      EncResp[I].push_back(Te2);
      DecResp[I].push_back(Td2);
    }
  }
  std::vector<serve::CvrViewKernel> Kernels;
  std::vector<std::vector<double>> Xs, Ys;
  for (std::size_t I = 0; I < N; ++I) {
    const CvrMatrix &Cvr = Entries[I]->M; // The mapped matrix, as served.
    Kernels.emplace_back(Cvr, Out[I].ServedPf);
    Xs.emplace_back(static_cast<std::size_t>(Cvr.numCols()), 1.0);
    Ys.emplace_back(static_cast<std::size_t>(Cvr.numRows()));
  }
  for (int R = 0; R <= LayerReps; ++R) {
    for (std::size_t I = 0; I < N; ++I, ++Rid) {
      double Us = Clock([&] {
        ScopedSpan S(&Log, "core.spmv", Rid);
        Kernels[I].run(Xs[I].data(), Ys[I].data());
      });
      if (R > 0)
        Spmv[I].push_back(Us);
    }
  }
  for (std::size_t I = 0; I < N; ++I) {
    MatrixLayers &L = Out[I];
    L.EncodeUs = median(EncReq[I]) + median(EncResp[I]);
    L.DecodeUs = median(DecReq[I]) + median(DecResp[I]);
    L.HandleUs = median(H[I]);
    L.SpmvUs = median(Spmv[I]);
  }
  return Status::okStatus();
}

struct SolverLayers {
  double UsPerIter = 0, SpmvUs = 0;
  int Iterations = 0;
};

/// In-process CG on the served 27-point stencil \p Stencil (mapped matrix
/// \p Cvr) with the plan its daemons served, and spans around the solve
/// and each kernel call inside it.
void measureSolver(const ServedMatrix &Stencil, const CvrMatrix &Cvr,
                   std::uint64_t Seed, SolverLayers &Out, SpanLog &Log,
                   Tally &Ops) {
  serve::CvrViewKernel K(Cvr, majorityPrefetch(Stencil));
  std::vector<double> X(static_cast<std::size_t>(Cvr.numCols()), 1.0);
  std::vector<double> Y(static_cast<std::size_t>(Cvr.numRows()));
  Out.SpmvUs =
      medianSeconds(LayerReps, [&] { K.run(X.data(), Y.data()); }) * 1e6;

  Xoshiro256 Rng(Seed ^ 0xC6);
  std::vector<double> B(static_cast<std::size_t>(Stencil.A.numRows()));
  for (double &V : B)
    V = Rng.nextDouble(-1.0, 1.0);
  SolverOptions SOpts;
  SOpts.MaxIterations = SolveMaxIterations;
  SOpts.Tolerance = SolveTol;
  std::vector<double> PerIter;
  std::int64_t Rid = (std::int64_t(1) << 60) + (std::int64_t(1) << 50);
  for (int R = 0; R <= LayerReps / 3; ++R, ++Rid) {
    SpannedKernel SK(K, Log, Rid);
    std::vector<double> Sol(B.size(), 0.0);
    SteadyClock::time_point T0 = SteadyClock::now();
    SolveResult SR;
    {
      ScopedSpan S(&Log, "solvers.cg", Rid);
      SR = conjugateGradient(SK, B, Sol, SOpts);
    }
    double Secs = secondsSince(T0);
    Ops.record(SR.Converged && SR.Residual <= SolveTol
                   ? ""
                   : "in-process CG did not converge");
    Out.Iterations = SR.Iterations;
    if (R > 0 && SR.Iterations > 0)
      PerIter.push_back(Secs * 1e6 / SR.Iterations);
  }
  Out.UsPerIter = median(PerIter);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(const Tally &Ops, const std::vector<Metric> &Metrics) {
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"correct\": " << (Ops.Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << Ops.Attempted << ", \"failed\": " << Ops.Failed
     << ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    OS << (I ? ", " : "") << '"' << Metrics[I].Name << "\": {\"value\": " << V
       << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  }
  OS << "}}";
  std::printf("%s\n", OS.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: spmv_bench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --served=PATH --work-dir=DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  std::string Workload;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Key) -> const char * {
      std::size_t N = std::strlen(Key);
      return A.compare(0, N, Key) == 0 ? Argv[I] + N : nullptr;
    };
    if (const char *V = Value("--workload="))
      Workload = V;
    else if (const char *V = Value("--seed="))
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = Value("--seconds="))
      Cfg.Seconds = std::atof(V);
    else if (const char *V = Value("--trace="))
      Cfg.Trace = std::atoi(V) != 0;
    else if (const char *V = Value("--served="))
      Cfg.Served = V;
    else if (const char *V = Value("--work-dir="))
      Cfg.WorkDir = V;
    else
      return usage();
  }
  for (const WorkloadSpec &W : workloads())
    if (Workload == W.Name)
      Cfg.W = &W;
  if (!Cfg.W || Cfg.Served.empty() || Cfg.WorkDir.empty() ||
      !(Cfg.Seconds > 0))
    return usage();
  const WorkloadSpec &W = *Cfg.W;
  std::string PinnedCpus = pinToCpus(W.Connections);
  std::error_code Ec;
  fs::create_directories(Cfg.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create '%s'\n", Cfg.WorkDir.c_str());
    return 1;
  }

  // Inputs, all from the seed: matrices, Multiply x / Solve b vectors, and
  // the reference products every Multiply answer is checked against.
  std::vector<ServedMatrix> Ms;
  for (const std::string &Name : W.Matrices) {
    ServedMatrix M;
    M.Name = Name;
    M.A = generateMatrix(Name, Cfg.Seed);
    M.BlobPath = Cfg.WorkDir + "/" + Name + ".cvrblob";
    Xoshiro256 Rng(SplitMix64(Cfg.Seed ^ std::hash<std::string>{}(Name + "x"))
                       .next());
    for (int In = 0; In < InputsPerMatrix; ++In) {
      serve::Request R;
      R.Kind = W.Kind;
      R.Matrix = Name;
      R.X.resize(static_cast<std::size_t>(
          W.Kind == serve::Op::Solve ? M.A.numRows() : M.A.numCols()));
      for (double &V : R.X)
        V = Rng.nextDouble(-1.0, 1.0);
      if (W.Kind == serve::Op::Solve) {
        R.Solver = serve::SolverKind::Cg;
        R.MaxIterations = SolveMaxIterations;
        R.Tolerance = SolveTol;
      } else {
        M.Ref.push_back(referenceSpmv(M.A, R.X));
      }
      M.Requests.push_back(std::move(R));
    }
    Ms.push_back(std::move(M));
  }

  RunTotals T;
  for (int S = 0; S < Starts; ++S) {
    if (Status St = runStart(Cfg, S, Ms, T); !St.ok()) {
      std::fprintf(stderr, "error: daemon start %d: %s\n", S,
                   St.toString().c_str());
      return 1;
    }
  }

  // The last start's blobs, loaded as the daemon loads them: the plan
  // check, the metadata and the solver layer use the mapped matrices.
  serve::Fleet Served;
  std::vector<std::shared_ptr<const serve::ServedMatrix>> Views;
  std::vector<MatrixLayers> Layers(Ms.size());
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    if (Status St = Served.addBlob(Ms[I].Name, Ms[I].BlobPath); !St.ok()) {
      std::fprintf(stderr, "error: loading %s: %s\n", Ms[I].Name.c_str(),
                   St.toString().c_str());
      return 1;
    }
    Views.push_back(Served.find(Ms[I].Name));
    retimePrefetch(Views[I]->M, Layers[I]);
  }

  // Metadata and plan outcomes, in both runs.
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d starts=%d "
              "connections=%d\n",
              W.Name, static_cast<unsigned long long>(Cfg.Seed), Cfg.Seconds,
              Cfg.Trace ? 1 : 0, Starts, W.Connections);
#ifdef __AVX512F__
  const bool Avx512 = true;
#else
  const bool Avx512 = false;
#endif
  std::printf("# host nproc=%ld %s avx512_kernel=%d pinned_cpus=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cacheSizes().c_str(),
              Avx512 ? 1 : 0,
              PinnedCpus.empty() ? "none" : PinnedCpus.c_str());
  int PlanOk = 0, PlanTotal = 0;
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    const ServedMatrix &M = Ms[I];
    const CvrMatrix &Cvr = Views[I]->M;
    std::printf("# blob %s rows=%d nnz=%lld chunks=%d bytes=%llu mapped=%d\n",
                M.Name.c_str(), Cvr.numRows(),
                static_cast<long long>(Cvr.numNonZeros()), Cvr.numChunks(),
                static_cast<unsigned long long>(M.BlobBytes),
                Views[I]->Mode == serve::LoadMode::Mapped ? 1 : 0);
    std::map<std::string, int> Count;
    for (const std::string &V : M.Variants) {
      ++Count[V];
      ++PlanTotal;
      PlanOk += planOk(Layers[I], variantPrefetch(V)) ? 1 : 0;
    }
    std::printf("# plans %s:", M.Name.c_str());
    for (const auto &[V, N] : Count)
      std::printf(" %s x%d", V.c_str(), N);
    std::printf(" | warm us pf0/2/4/8:");
    for (double Us : Layers[I].PfUs)
      std::printf(" %.1f", Us);
    std::printf("\n");
  }
  double StealPct =
      T.TotalJiffies > 0 ? 100.0 * T.StealJiffies / T.TotalJiffies : 0.0;
  double PlanOkShare =
      PlanTotal ? static_cast<double>(PlanOk) / PlanTotal : 0.0;
  std::printf("# plan_ok=%d/%d steal_pct=%.2f\n", PlanOk, PlanTotal,
              StealPct);

  std::vector<std::vector<double>> UntracedByMatrix(Ms.size()),
      UntracedByStart(Starts), TracedByStart(Starts);
  for (const Sample &S : T.Loop.Samples) {
    (S.Traced ? TracedByStart : UntracedByStart)[S.Start].push_back(S.Micros);
    if (!S.Traced)
      UntracedByMatrix[S.Matrix].push_back(S.Micros);
  }
  std::size_t Samples = 0, MinPerStart = SIZE_MAX;
  for (const std::vector<double> &V : UntracedByStart) {
    Samples += V.size();
    MinPerStart = std::min(MinPerStart, V.size());
  }
  std::printf("# ops attempted=%lld failed=%lld latency_samples=%zu "
              "min_per_start=%zu%s%s\n",
              static_cast<long long>(T.Ops.Attempted),
              static_cast<long long>(T.Ops.Failed), Samples, MinPerStart,
              T.Ops.FirstFailure.empty() ? "" : " first_failure=",
              T.Ops.FirstFailure.c_str());
  for (std::size_t I = 0; I < Ms.size(); ++I)
    std::printf("# latency %s: p50_ms=%.3f p90_ms=%.3f samples=%zu\n",
                Ms[I].Name.c_str(), percentile(UntracedByMatrix[I], 50) / 1e3,
                percentile(UntracedByMatrix[I], 90) / 1e3,
                UntracedByMatrix[I].size());
  // The inputs of the medians below, so a slow start shows with the plan
  // it served.
  for (int S = 0; S < Starts; ++S) {
    const std::vector<double> &V = UntracedByStart[S];
    std::printf("# start %2d: ops_per_s=%.1f p50_ms=%.3f p90_ms=%.3f "
                "samples=%zu plans",
                S, T.StartOpsPerS[S], percentile(V, 50) / 1e3,
                percentile(V, 90) / 1e3, V.size());
    for (const ServedMatrix &M : Ms)
      std::printf(" %s=%s", M.Name.c_str(), M.Variants[S].c_str());
    std::printf("\n");
  }
  if (T.Loop.Solves)
    std::printf("# mean solve iterations %.2f\n",
                static_cast<double>(T.Loop.Iterations) / T.Loop.Solves);

  std::vector<Metric> Metrics;
  if (!Cfg.Trace) {
    Metrics = {
        {"setup_s", median(T.SetupS), "s"},
        {"ops_per_s", median(T.StartOpsPerS), "1/s"},
        {"p50_ms", medianOverStarts(UntracedByStart, 50) / 1e3, "ms"},
        {"p90_ms", medianOverStarts(UntracedByStart, 90) / 1e3, "ms"},
        {"rss_mb", median(T.RssMb), "MB"},
    };
  } else {
    if (Status St = measureLayers(Ms, Layers, T.Local, T.Ops); !St.ok()) {
      std::fprintf(stderr, "error: in-process layers: %s\n",
                   St.toString().c_str());
      return 1;
    }
    // The solver layer is measured on the workload's served stencil; a
    // workload without one (spmv_hot) reports no solver metrics.
    auto Stencil =
        std::find_if(Ms.begin(), Ms.end(), [](const ServedMatrix &M) {
          return M.Name == SolveMatrix;
        });
    bool HasSolve = Stencil != Ms.end();
    SolverLayers Sol;
    if (HasSolve)
      measureSolver(*Stencil, Views[Stencil - Ms.begin()]->M, Cfg.Seed, Sol,
                    T.Local, T.Ops);
    std::vector<double> SpmvUs, RepeatUs, Gflops, Share, Transport, HandleUs, EncUs,
        DecUs, FrameBytes, LoadMs, TuneMs, Overhead;
    double Bytes = 0.0, Nnz = 0.0;
    int Mapped = 0;
    double RunsPerOp = T.StatsOps ? T.Stats.Runs / T.StatsOps : 0.0;
    for (std::size_t I = 0; I < Ms.size(); ++I) {
      const MatrixLayers &L = Layers[I];
      double P50 = percentile(UntracedByMatrix[I], 50);
      std::printf("# layers %s: client_p50_us=%.1f handle_us=%.1f "
                  "spmv_us=%.1f spmv_repeat_us=%.1f encode_us=%.1f "
                  "decode_us=%.1f\n",
                  Ms[I].Name.c_str(), P50, L.HandleUs, L.SpmvUs,
                  pfMicros(L, L.ServedPf), L.EncodeUs, L.DecodeUs);
      SpmvUs.push_back(L.SpmvUs);
      RepeatUs.push_back(pfMicros(L, L.ServedPf));
      Gflops.push_back(2.0 * L.Nnz / (L.SpmvUs * 1e3));
      Share.push_back(RunsPerOp * L.SpmvUs / P50);
      Transport.push_back(P50 - L.EncodeUs - L.DecodeUs - L.HandleUs);
      HandleUs.push_back(L.HandleUs);
      Overhead.push_back(L.HandleUs / (RunsPerOp * L.SpmvUs));
      EncUs.push_back(L.EncodeUs);
      DecUs.push_back(L.DecodeUs);
      FrameBytes.push_back(L.FrameBytes);
      LoadMs.push_back(L.LoadMs);
      TuneMs.push_back(L.TuneMs);
      Bytes += L.Bytes;
      Nnz += static_cast<double>(L.Nnz);
      Mapped += L.Mapped ? 1 : 0;
    }
    double Lookups = T.Stats.CacheHits + T.Stats.CacheMisses;
    double Iterations =
        T.Loop.Solves ? static_cast<double>(T.Loop.Iterations) / T.Loop.Solves
                      : Sol.Iterations;
    T.Logs.push_back(T.Local);
    std::map<std::string, SelfTime> Self = selfTimes(T.Logs);
    auto SelfUs = [&](const char *Name) {
      const SelfTime &S = Self[Name];
      return S.Count ? S.Micros / static_cast<double>(S.Count) : 0.0;
    };
    if (!writeSpans(T.Logs, Cfg.WorkDir + "/spans.json"))
      std::fprintf(stderr, "warning: cannot write spans.json\n");
    Metrics = {
        {"core.convert_ms", median(T.ConvertMs), "ms"},
        {"core.spmv_us", mean(SpmvUs), "us"},
        {"core.spmv_repeat_us", mean(RepeatUs), "us"},
        {"core.gflops", mean(Gflops), "GFlop/s"},
        {"core.bytes_per_nnz", Bytes / Nnz, "B/nnz"},
        {"core.gbps", Bytes / Ms.size() / (mean(SpmvUs) * 1e3), "GB/s"},
        {"core.request_share", mean(Share), "ratio"},
        {"core.runs_per_op", RunsPerOp, "count"},
        {"fleet.load_ms", mean(LoadMs), "ms"},
        {"fleet.mapped", static_cast<double>(Mapped), "count"},
        {"fleet.tune_ms", mean(TuneMs), "ms"},
        {"fleet.cache_hit_ratio",
         Lookups > 0 ? T.Stats.CacheHits / Lookups : 0.0, "ratio"},
        {"fleet.cache_misses", T.Stats.CacheMisses, "count"},
        {"fleet.plan_ok_share", PlanOkShare, "ratio"},
        {"protocol.encode_us", mean(EncUs), "us"},
        {"protocol.decode_us", mean(DecUs), "us"},
        {"protocol.bytes_per_op", mean(FrameBytes), "B"},
        {"service.handle_us", mean(HandleUs), "us"},
        {"service.overhead_ratio", mean(Overhead), "ratio"},
        {"service.shed", T.Stats.Shed, "count"},
        {"service.degraded", T.Stats.Degraded, "count"},
        {"service.deadline_exceeded", T.Stats.DeadlineExceeded, "count"},
        {"transport.overhead_us", mean(Transport), "us"},
        {"solver.iterations", Iterations, "count"},
        {"solver.stats_iterations_per_solve",
         T.Loop.Solves ? T.Stats.SolverIterations / T.StatsOps : 0.0,
         "count"},
        {"solver.us_per_iter", Sol.UsPerIter, "us"},
        {"solver.overhead_ratio", Sol.UsPerIter / Sol.SpmvUs, "ratio"},
        {"host.steal_pct", StealPct, "%"},
        {"trace.overhead_us",
         medianOverStarts(TracedByStart, 50) -
             medianOverStarts(UntracedByStart, 50),
         "us"},
        {"self.client.call_us", SelfUs("client.call"), "us"},
        {"self.protocol.encode_us", SelfUs("protocol.encode"), "us"},
        {"self.protocol.decode_us", SelfUs("protocol.decode"), "us"},
        {"self.service.handle_us", SelfUs("service.handle"), "us"},
        {"self.core.spmv_us", SelfUs("core.spmv"), "us"},
        {"self.core.spmv_in_solve_us", SelfUs("core.spmv_in_solve"), "us"},
        {"self.solvers.cg_us", SelfUs("solvers.cg"), "us"},
        {"self.fleet.add_blob_us", SelfUs("fleet.add_blob"), "us"},
        {"self.fleet.tune_exec_us", SelfUs("fleet.tune_exec"), "us"},
        {"self.core.convert_us", SelfUs("core.convert"), "us"},
    };
    if (!HasSolve)
      std::erase_if(Metrics, [](const Metric &M) {
        return M.Name.rfind("solver.", 0) == 0 ||
               M.Name == "self.solvers.cg_us" ||
               M.Name == "self.core.spmv_in_solve_us";
      });
  }
  for (const Metric &M : Metrics)
    std::printf("# %-34s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  for (const ServedMatrix &M : Ms)
    (void)unlink(M.BlobPath.c_str());
  printResult(T.Ops, Metrics);
  return T.Ops.Failed == 0 ? 0 : 1;
}
