//===- bench/solver_pipeline.cpp - Fused vs unfused solver pipelines ------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures the five iterative solvers end to end in two execution modes
// over the CSR baseline and CVR. The fused mode runs each solver on the
// kernel itself. The unfused mode runs CG's textbook formulation
// (referenceConjugateGradient) on the kernel, and every other solver on
// UnfusedKernel(kernel), which composes each SpMV with one scalar epilogue
// sweep. CVR has no native fused path (it inherits SpmvKernel's composed
// one), so outside CG its two modes would run the same code and it gets
// only the fused cell: the fused-vs-unfused pairs are CSR's for all five
// solvers plus CVR's for CG. For each (solver, kernel, mode) cell it
// reports the per-iteration wall time, the SpMV throughput that time
// implies, and the memory traffic one iteration moves: the kernel and
// epilogue part is byte-accurate (traceRun / traceRunFused through a
// CountingSink), the solver's own sweeps are counted analytically from its
// formulation (8 bytes per element access; the per-solver access counts
// are spelled out in sweepAccessesPerRow below).
//
// The CI perf-smoke job consumes the --json output and fails if fused CG
// falls more than 10% behind unfused on the same kernel.
//
//===----------------------------------------------------------------------===//

#include "benchlib/SuiteRunner.h"
#include "benchlib/UnfusedKernel.h"
#include "core/CvrSpmv.h"
#include "formats/CsrSpmv.h"
#include "gen/Generators.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"
#include "obs/Trace.h"
#include "solvers/Solvers.h"
#include "support/MemSink.h"
#include "support/Random.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace cvr;

enum class SolverId { Cg, BiCgStab, Jacobi, Power, PageRank };

const char *solverName(SolverId S) {
  switch (S) {
  case SolverId::Cg:
    return "cg";
  case SolverId::BiCgStab:
    return "bicgstab";
  case SolverId::Jacobi:
    return "jacobi";
  case SolverId::Power:
    return "power";
  case SolverId::PageRank:
    return "pagerank";
  }
  return "?";
}

/// SpMV invocations per solver iteration.
int spmvsPerIteration(SolverId S) {
  return S == SolverId::BiCgStab ? 2 : 1;
}

/// The solver's own sweep traffic per iteration, outside the kernel and
/// its epilogue, in element accesses per row (multiply by 8 bytes and the
/// row count). Derived by reading each formulation in Solvers.cpp: every
/// vector element loaded or stored by those sweeps counts once. Both
/// modes share one formulation except CG, whose unfused mode is the
/// textbook reference. The unfused mode's epilogue sweep is not counted
/// here: UnfusedKernel's traceRunFused traces it (y re-read, operands,
/// y write-back), listed in the last column for the per-mode totals.
///
///             solver sweeps                              unfused epilogue
///   CG        fused:   one combined sweep, r implicit: read
///                      x,p,p_prev,q + write x,p_next =  6
///             unfused: p.Ap dot (2) + two axpys (3 each)
///                      + r.r dot (1) + p update (3)  = 12    none: run()
///   BiCGSTAB  s sweep (3) + x/r update w/ rhat (7)
///             + p update (4)                         = 14    2 x (y, z) = 4
///   Jacobi    everything rides the kernel            =  0    y,b,d,x,x' = 5
///   Power     normalize (2)                          =  2    y, x       = 2
///   PageRank  leak sweep (3)                         =  3    y, y'      = 2
int sweepAccessesPerRow(SolverId S, bool Fused) {
  switch (S) {
  case SolverId::Cg:
    return Fused ? 6 : 12;
  case SolverId::BiCgStab:
    return 14;
  case SolverId::Jacobi:
    return 0;
  case SolverId::Power:
    return 2;
  case SolverId::PageRank:
    return 3;
  }
  return 0;
}

/// The per-iteration epilogue each fused solver hands the kernel, for the
/// traffic trace (operand pointers filled with representative vectors).
FusedEpilogue iterationEpilogue(SolverId S, const std::vector<double> &B,
                                const std::vector<double> &Diag,
                                const std::vector<double> &Scratch,
                                std::vector<double> &ScratchOut) {
  switch (S) {
  case SolverId::Cg:
  case SolverId::Power:
    return FusedEpilogue::dot(/*XDotY=*/true, /*YDotY=*/true);
  case SolverId::BiCgStab:
    return FusedEpilogue::dot(false, false, Scratch.data());
  case SolverId::Jacobi:
    return FusedEpilogue::jacobiStep(B.data(), Diag.data(), Scratch.data(),
                                     ScratchOut.data());
  case SolverId::PageRank:
    return FusedEpilogue::dampScale(0.85, 0.15 / Scratch.size());
  }
  return {};
}

struct Workload {
  std::string MatrixName;
  CsrMatrix A;
  std::vector<double> B;    ///< RHS (linear solvers).
  std::vector<double> Diag; ///< Matrix diagonal (Jacobi).
};

/// SPD workload (stencil Laplacian) for CG/Jacobi/power; the manufactured
/// solution keeps the solve well-posed without converging too fast to time.
Workload laplacianWorkload(std::int32_t Side) {
  Workload W;
  W.MatrixName = "stencil5_" + std::to_string(Side) + "x" +
                 std::to_string(Side);
  W.A = genStencil5(Side, Side);
  std::size_t N = static_cast<std::size_t>(W.A.numRows());
  Xoshiro256 Rng(1234);
  std::vector<double> XStar(N);
  for (double &V : XStar)
    V = Rng.nextDouble(-1.0, 1.0);
  W.B = referenceSpmv(W.A, XStar);
  W.Diag.assign(N, 0.0);
  for (std::int32_t R = 0; R < W.A.numRows(); ++R)
    for (std::int64_t I = W.A.rowPtr()[R]; I < W.A.rowPtr()[R + 1]; ++I)
      if (W.A.colIdx()[I] == R)
        W.Diag[static_cast<std::size_t>(R)] = W.A.vals()[I];
  return W;
}

/// Column-stochastic transition matrix of an R-MAT graph for PageRank.
Workload webWorkload(int Scale) {
  Workload W;
  W.MatrixName = "rmat_transition_s" + std::to_string(Scale);
  CsrMatrix G = genRmat(Scale, 8, 77);
  CooMatrix Coo(G.numCols(), G.numRows());
  for (std::int32_t U = 0; U < G.numRows(); ++U)
    for (std::int64_t I = G.rowPtr()[U]; I < G.rowPtr()[U + 1]; ++I)
      Coo.add(G.colIdx()[I], U, 1.0 / static_cast<double>(G.rowLength(U)));
  W.A = CsrMatrix::fromCoo(Coo);
  return W;
}

struct KernelUnderTest {
  std::string Name;
  std::unique_ptr<SpmvKernel> K;
  /// The kernel overrides runFused; without that, UnfusedKernel(K) runs
  /// the same composed code as K, so only CG has a distinct unfused mode.
  bool NativeFused;
};

std::vector<KernelUnderTest> makeKernels(const CsrMatrix &A, int Threads) {
  std::vector<KernelUnderTest> Ks;
  Ks.push_back({"MKL", std::make_unique<CsrSpmv>(Threads), true});
  {
    CvrOptions Opts;
    if (Threads > 0)
      Opts.NumThreads = Threads;
    Ks.push_back({"CVR", std::make_unique<CvrKernel>(Opts), false});
  }
  for (KernelUnderTest &KT : Ks)
    KT.K->prepare(A);
  return Ks;
}

/// Runs one (solver, kernel, mode) cell for a fixed iteration count
/// (Tolerance = 0 never converges, so every iteration runs) and returns
/// seconds per iteration. \p K is the kernel the mode drives: the native
/// kernel for both CG modes and every fused one, its UnfusedKernel adapter
/// otherwise.
double timeSolve(SolverId S, const SpmvKernel &K, const Workload &W,
                 bool Fused, int Iterations) {
  SolverOptions Opts;
  Opts.MaxIterations = Iterations;
  Opts.Tolerance = 0.0;

  std::size_t N = static_cast<std::size_t>(W.A.numRows());
  auto Start = std::chrono::steady_clock::now();
  int Done = Iterations;
  switch (S) {
  case SolverId::Cg: {
    std::vector<double> X(N, 0.0);
    Done = Fused ? conjugateGradient(K, W.B, X, Opts).Iterations
                 : referenceConjugateGradient(K, W.B, X, Opts).Iterations;
    break;
  }
  case SolverId::BiCgStab: {
    std::vector<double> X(N, 0.0);
    Done = biCgStab(K, W.B, X, Opts).Iterations;
    break;
  }
  case SolverId::Jacobi: {
    std::vector<double> X(N, 0.0);
    Done = jacobi(K, W.Diag, W.B, X, Opts).Iterations;
    break;
  }
  case SolverId::Power: {
    std::vector<double> V(N, 0.0);
    double Lambda = 0.0;
    Done = powerIteration(K, Lambda, V, Opts).Iterations;
    break;
  }
  case SolverId::PageRank: {
    std::vector<double> Ranks(N, 0.0);
    Done = pageRank(K, Ranks, 0.85, Opts).Iterations;
    break;
  }
  }
  auto End = std::chrono::steady_clock::now();
  double Seconds = std::chrono::duration<double>(End - Start).count();
  return Seconds / std::max(1, Done);
}

/// Byte-accurate kernel and epilogue traffic of one iteration's SpMV(s)
/// plus the analytically counted solver sweeps. \p K is the mode's kernel,
/// as in timeSolve.
std::size_t bytesPerIteration(SolverId S, const SpmvKernel &K,
                              const Workload &W, bool Fused) {
  std::size_t N = static_cast<std::size_t>(W.A.numRows());
  std::vector<double> X(static_cast<std::size_t>(W.A.numCols()), 1.0);
  std::vector<double> Y(N, 0.0);
  std::vector<double> Scratch(N, 0.5), ScratchOut(N, 0.0);
  const std::vector<double> &B = W.B.empty() ? Scratch : W.B;
  const std::vector<double> &Diag = W.Diag.empty() ? Scratch : W.Diag;

  CountingSink Sink;
  bool Traced;
  if (S == SolverId::Cg && !Fused) {
    Traced = K.traceRun(Sink, X.data(), Y.data()); // Textbook CG: run().
  } else {
    FusedEpilogue E = iterationEpilogue(S, B, Diag, Scratch, ScratchOut);
    Traced = K.traceRunFused(Sink, X.data(), Y.data(), E);
  }
  if (!Traced)
    return 0;
  std::size_t KernelBytes =
      Sink.totalBytes() * static_cast<std::size_t>(spmvsPerIteration(S));
  std::size_t SweepBytes =
      static_cast<std::size_t>(sweepAccessesPerRow(S, Fused)) * 8 * N;
  return KernelBytes + SweepBytes;
}

struct Cell {
  SolverId Solver;
  std::string Kernel;
  bool Fused;
  double SecondsPerIter = 0.0;
  double Gflops = 0.0;
  std::size_t BytesPerIter = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  std::string TraceOutPath;
  int Threads = 0;
  bool Quick = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--trace-out=", 12) == 0)
      TraceOutPath = Argv[I] + 12;
    else if (std::strcmp(Argv[I], "--trace-out") == 0 && I + 1 < Argc)
      TraceOutPath = Argv[++I];
    else if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else {
      std::fprintf(stderr,
                   "usage: solver_pipeline [--quick] [--threads=N] "
                   "[--json=PATH] [--trace-out=PATH]\n");
      return 2;
    }
  }
  if (!TraceOutPath.empty())
    obs::traceStart();

  // Full size is chosen so the CG working set (four vectors plus the
  // format) overflows a typical 8-32 MB L3 and the solve is genuinely
  // memory-bound — the regime fusion targets. --quick stays cache-sized
  // for smoke coverage of the machinery only.
  const int Iters = Quick ? 20 : 60;
  Workload Lap = laplacianWorkload(Quick ? 96 : 320);
  Workload Web = webWorkload(Quick ? 11 : 14);

  std::vector<BenchRecord> Records;
  std::vector<Cell> Cells;
  const SolverId Solvers[] = {SolverId::Cg, SolverId::BiCgStab,
                              SolverId::Jacobi, SolverId::Power,
                              SolverId::PageRank};

  std::printf("%-9s %-10s %-8s %12s %10s %14s\n", "solver", "kernel", "mode",
              "sec/iter", "GFlop/s", "bytes/iter");
  for (SolverId S : Solvers) {
    const Workload &W = S == SolverId::PageRank ? Web : Lap;
    std::vector<KernelUnderTest> Ks = makeKernels(W.A, Threads);
    for (const KernelUnderTest &KT : Ks) {
      const SpmvKernel &Native = *KT.K;
      const UnfusedKernel Unfused(Native);
      for (bool Fused : {false, true}) {
        if (!Fused && !KT.NativeFused && S != SolverId::Cg)
          continue;
        // CG's unfused mode is the textbook reference, which calls only
        // run(), so it runs on the kernel itself like the fused mode.
        const SpmvKernel &K = Fused || S == SolverId::Cg ? Native : Unfused;
        Cell C;
        C.Solver = S;
        C.Kernel = KT.Name;
        C.Fused = Fused;
        // One warm-up solve settles the caches, then the timed solve.
        timeSolve(S, K, W, Fused, std::max(2, Iters / 10));
        C.SecondsPerIter = timeSolve(S, K, W, Fused, Iters);
        C.Gflops = 2.0 * static_cast<double>(W.A.numNonZeros()) *
                   spmvsPerIteration(S) / C.SecondsPerIter * 1e-9;
        C.BytesPerIter = bytesPerIteration(S, K, W, Fused);
        Cells.push_back(C);

        std::printf("%-9s %-10s %-8s %12.3e %10.2f %14zu\n", solverName(S),
                    KT.Name.c_str(), Fused ? "fused" : "unfused",
                    C.SecondsPerIter, C.Gflops, C.BytesPerIter);

        BenchRecord R;
        R.Matrix = W.MatrixName;
        R.Rows = W.A.numRows();
        R.Cols = W.A.numCols();
        R.Nnz = W.A.numNonZeros();
        R.Format = KT.Name;
        R.M.VariantName = std::string(solverName(S)) + "/" +
                          (Fused ? "fused" : "unfused");
        R.M.SecondsPerIteration = C.SecondsPerIter;
        R.M.Gflops = C.Gflops;
        R.M.FormatBytes = C.BytesPerIter;
        Records.push_back(std::move(R));
      }
    }
  }

  // Summary: the fused speedup and traffic cut per (solver, kernel) pair.
  // An unfused cell is always followed by its fused partner.
  std::printf("\n%-9s %-10s %10s %12s\n", "solver", "kernel", "speedup",
              "traffic cut");
  for (std::size_t I = 0; I + 1 < Cells.size(); ++I) {
    if (Cells[I].Fused)
      continue;
    const Cell &U = Cells[I], &F = Cells[I + 1];
    double Speedup = U.SecondsPerIter / F.SecondsPerIter;
    double Cut = U.BytesPerIter
                     ? 1.0 - static_cast<double>(F.BytesPerIter) /
                                 static_cast<double>(U.BytesPerIter)
                     : 0.0;
    std::printf("%-9s %-10s %9.2fx %11.1f%%\n", solverName(U.Solver),
                U.Kernel.c_str(), Speedup, 100.0 * Cut);
  }

  if (!JsonPath.empty() && !writeBenchJson(JsonPath, Records, 1.0, Threads))
    return 1;
  if (!TraceOutPath.empty()) {
    Status S = obs::traceStopToFile(TraceOutPath);
    if (!S.ok()) {
      std::fprintf(stderr, "warning: %s\n", S.toString().c_str());
      return 1;
    }
    std::printf("trace written to %s\n", TraceOutPath.c_str());
  }
  return 0;
}
