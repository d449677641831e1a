//===- tools/cvr_tool.cpp - Command-line driver ---------------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The command-line counterpart of the paper artifact's scripts:
//
//   cvr_tool info     <matrix.mtx>            structural statistics + advice
//   cvr_tool convert  <matrix.mtx> <out.cvr>  CSR -> CVR, serialized to disk
//   cvr_tool spmv     <matrix.mtx|blob.cvr> [-n ITER] [--threads N]
//                                             run + time CVR SpMV
//   cvr_tool spmm     <matrix.mtx|suite-name> [--k=K] [-n ITER]
//                                             batched multi-RHS SpMM vs a
//                                             loop of K SpMV calls
//   cvr_tool compare  <matrix.mtx> [-n ITER]  all six formats side by side
//                                             (the run_comparison.sh flow)
//   cvr_tool locality <matrix.mtx>            simulated L2 miss ratios
//                                             (the run_locality.sh flow)
//   cvr_tool roofline <matrix.mtx|suite-name> predicted vs traced DRAM
//                                             bytes/iteration for the
//                                             stream-compression plans
//   cvr_tool validate <matrix.mtx|suite-name|--suite> [--format=F]
//                                             checked mode: structural
//                                             invariants + bounds-checked
//                                             execution + differential
//                                             compare, every variant
//   cvr_tool solve    <matrix.mtx|suite-name> [--solver=S]
//                                             iterative solvers (CG,
//                                             BiCGSTAB, Jacobi, power,
//                                             PageRank) over any format
//   cvr_tool trace    <matrix.mtx|suite-name> [--out=PATH]
//                                             chrome-trace of the full
//                                             pipeline (convert, execute,
//                                             fused solve)
//   cvr_tool gen      <suite-name> <out.mtx> [--scale=X]
//                                             write one of the 58 suite
//                                             matrices as Matrix Market
//   cvr_tool list                             list the suite names
//   cvr_tool inject   [--fp=SPEC] [--list]    fault drill: arm fail points,
//                                             run the degradation ladder,
//                                             verify against the reference
//   cvr_tool serve    --oneshot <matrix>      one request/response exchange
//                                             over a socketpair through the
//                                             full serving stack (mmap'd
//                                             blob fleet, admission,
//                                             deadline checkpoints)
//   cvr_tool serve-client --socket=PATH       load generator / chaos-drill
//                                             client for a running
//                                             cvr_served daemon
//
// Matrices are Matrix Market files; `spmv` also accepts the binary blobs
// written by `convert`.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedKernel.h"
#include "analysis/CheckedSpmv.h"
#include "analysis/InvariantChecker.h"
#include "analysis/Roofline.h"
#include "benchlib/Equations.h"
#include "benchlib/Measure.h"
#include "cachesim/LocalityProbe.h"
#include "core/Cvr.h"
#include "core/CvrSpmm.h"
#include "formats/AutoSelect.h"
#include "formats/Registry.h"
#include "gen/DatasetSuite.h"
#include "gen/Generators.h"
#include "io/MatrixMarket.h"
#include "matrix/MatrixStats.h"
#include "matrix/Reference.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "solvers/Solvers.h"
#include "support/FailPoint.h"
#include "support/Random.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace cvr;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s <command> [args]\n"
      "  info     <matrix.mtx>                 structural stats + advice\n"
      "  convert  <matrix.mtx> <out.cvr> [--layout=compact|mapped]\n"
      "                                        serialize the CVR form\n"
      "                                        (mapped = mmap-executable v4)\n"
      "  spmv     <matrix.mtx|blob.cvr> [-n N] [--threads T]\n"
      "  spmm     <matrix.mtx|suite-name> [--k=K] [-n N] [--threads=T]\n"
      "           [--scale=X]                  batched multi-RHS SpMM vs a\n"
      "                                        loop of K SpMV sweeps\n"
      "  compare  <matrix.mtx> [-n N]          all formats side by side\n"
      "  locality <matrix.mtx>                 simulated L2 miss ratios\n"
      "  roofline <matrix.mtx|suite-name> [--block=BYTES] [--threads=T]\n"
      "           [--scale=X]                  predicted vs traced DRAM\n"
      "                                        bytes/iteration for every\n"
      "                                        stream-compression plan\n"
      "  validate <matrix.mtx|suite-name|--suite> [--format=F] [--threads=T]\n"
      "                                        invariant + checked-mode "
      "sweep\n"
      "  trace    <matrix.mtx|suite-name> [--out=PATH] [--threads=T]\n"
      "           [--scale=X]                  run convert -> execute ->\n"
      "                                        fused solve under a trace\n"
      "                                        session; write chrome-trace\n"
      "                                        JSON (default trace.json)\n"
      "  solve    <matrix.mtx|suite-name> [--solver=cg|bicgstab|jacobi|\n"
      "           power|pagerank] [--format=F] [--threads=T]\n"
      "           [--tol=X] [--maxiter=N] [--scale=X]\n"
      "                                        iterative solve over any\n"
      "                                        format's kernel\n"
      "  gen      <suite-name> <out.mtx> [--scale=X]\n"
      "  list                                  suite matrix names\n"
      "  inject   [--fp=SPEC]... [--list] [matrix.mtx|suite-name]\n"
      "           [--threads=T] [--scale=X]\n"
      "                                        arm fault-injection sites,\n"
      "                                        run the degradation ladder,\n"
      "                                        verify against the scalar\n"
      "                                        reference\n"
      "  serve    --oneshot [matrix.mtx|suite-name] [--scale=X]\n"
      "           [--op=ping|multiply|spmm] [--k=K] [--deadline-us=U]\n"
      "                                        single request over a\n"
      "                                        socketpair through the full\n"
      "                                        serving stack (no daemon)\n"
      "  serve-client --socket=PATH [--op=ping|stats|list|multiply|spmm|\n"
      "           solve] [--matrix=NAME] [-n N] [--threads=T] [--k=K]\n"
      "           [--deadline-us=U] [--mtx=FILE] [--solver=cg|bicgstab|\n"
      "           power] [--expect=CODE,...]    drive a running cvr_served;\n"
      "                                        exit 0 iff every response\n"
      "                                        code is in the --expect set\n"
      "                                        (default ok; `any` allows\n"
      "                                        all) and results match the\n"
      "                                        --mtx reference\n",
      Prog);
  return 2;
}

bool loadCsr(const std::string &Path, CsrMatrix &A) {
  StatusOr<CooMatrix> R = readMatrixMarketFile(Path);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s\n", R.status().toString().c_str());
    return false;
  }
  A = CsrMatrix::fromCoo(*R);
  return true;
}

std::vector<double> makeX(std::int32_t Cols) {
  Xoshiro256 Rng(20180224);
  std::vector<double> X(static_cast<std::size_t>(Cols));
  for (double &V : X)
    V = Rng.nextDouble(-1.0, 1.0);
  return X;
}

/// Resolves \p Target as either a Matrix Market file (by its .mtx suffix)
/// or a generated suite-matrix name at \p Scale.
bool loadTargetMatrix(const std::string &Target, double Scale,
                      CsrMatrix &A) {
  if (Target.size() > 4 &&
      Target.compare(Target.size() - 4, 4, ".mtx") == 0)
    return loadCsr(Target, A);
  for (const DatasetSpec &D : datasetSuite(Scale))
    if (D.Name == Target) {
      A = D.Build();
      return true;
    }
  std::fprintf(stderr,
               "error: '%s' is neither a .mtx file nor a suite matrix "
               "(see `list`)\n",
               Target.c_str());
  return false;
}

int cmdInfo(const std::string &Path) {
  CsrMatrix A;
  if (!loadCsr(Path, A))
    return 1;
  MatrixStats S = computeStats(A);
  std::printf("%s\n", Path.c_str());
  std::printf("  shape        %d x %d\n", S.NumRows, S.NumCols);
  std::printf("  nonzeros     %lld (%.2f per row)\n",
              static_cast<long long>(S.Nnz), S.MeanRowLength);
  std::printf("  row lengths  min %lld, max %lld, cv %.2f\n",
              static_cast<long long>(S.MinRowLength),
              static_cast<long long>(S.MaxRowLength), S.RowLengthCv);
  std::printf("  empty rows   %d\n", S.EmptyRows);
  std::printf("  bandwidth    %.1f (mean |col - row|)\n", S.MeanBandwidth);
  FormatAdvice Advice = adviseFormat(S);
  std::printf("  advice       %s — %s\n", formatName(Advice.Format),
              Advice.Reason.c_str());
  return 0;
}

int cmdConvert(int Argc, char **Argv) {
  std::string In = Argv[2], Out = Argv[3];
  BlobLayout Layout = BlobLayout::Compact;
  for (int I = 4; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--layout=mapped") == 0)
      Layout = BlobLayout::Mapped;
    else if (std::strcmp(Argv[I], "--layout=compact") != 0) {
      std::fprintf(stderr, "error: unknown convert option '%s'\n", Argv[I]);
      return 2;
    }
  }
  CsrMatrix A;
  if (!loadCsr(In, A))
    return 1;
  Timer T;
  CvrMatrix M = CvrMatrix::fromCsr(A);
  std::printf("converted in %.3f ms (%d chunks, %d lanes)\n", T.millis(),
              M.numChunks(), M.lanes());
  std::ofstream OS(Out, std::ios::binary);
  if (!OS) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 Out.c_str());
    return 1;
  }
  if (Status S = M.writeBlob(OS, Layout); !S.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", Out.c_str(),
                 S.toString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu format bytes)\n", Out.c_str(), M.formatBytes());
  return 0;
}

int cmdSpmv(int Argc, char **Argv) {
  std::string Path;
  int Iterations = 100;
  int Threads = 0;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "-n") == 0 && I + 1 < Argc)
      Iterations = std::atoi(Argv[++I]);
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else
      Path = Argv[I];
  }
  if (Path.empty() || Iterations <= 0)
    return 2;

  CvrMatrix M;
  double PreMs = 0.0;
  if (Path.size() > 4 && Path.compare(Path.size() - 4, 4, ".cvr") == 0) {
    std::ifstream IS(Path, std::ios::binary);
    if (!IS) {
      std::fprintf(stderr, "error: cannot open blob '%s'\n", Path.c_str());
      return 1;
    }
    StatusOr<CvrMatrix> R = CvrMatrix::readBlob(IS);
    if (!R.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                   R.status().toString().c_str());
      return 1;
    }
    M = std::move(*R);
  } else {
    CsrMatrix A;
    if (!loadCsr(Path, A))
      return 1;
    Timer Pre;
    CvrOptions Opts;
    Opts.NumThreads = Threads;
    M = CvrMatrix::fromCsr(A, Opts);
    PreMs = Pre.millis();
  }

  std::vector<double> X = makeX(M.numCols());
  std::vector<double> Y(static_cast<std::size_t>(M.numRows()), 0.0);

  // CVR_CHECKED=1 in the environment routes every iteration through the
  // bounds-checked shadow kernels instead of the production kernel.
  if (analysis::checkedModeRequested()) {
    std::printf("[checked mode]          CVR_CHECKED set; shadow kernels\n");
    std::vector<analysis::Violation> Vs;
    for (int I = 0; I < Iterations; ++I)
      analysis::cvrSpmvChecked(M, X.data(), Y.data(), Vs);
    if (!Vs.empty()) {
      std::printf("%s", analysis::formatViolations(Vs).c_str());
      return 1;
    }
    std::printf("[checked mode]          %d iterations clean\n", Iterations);
    return 0;
  }

  cvrSpmv(M, X.data(), Y.data()); // warm-up
  Timer Run;
  for (int I = 0; I < Iterations; ++I)
    cvrSpmv(M, X.data(), Y.data());
  double PerIter = Run.seconds() / Iterations;

  std::printf("[pre-processing time]   %.3f ms\n", PreMs);
  std::printf("[SpMV execution time]   %.3f us/iteration (%d iterations)\n",
              PerIter * 1e6, Iterations);
  std::printf("[throughput]            %.2f GFlop/s\n",
              spmvGflops(M.numNonZeros(), PerIter));
  return 0;
}

/// Batched multi-RHS SpMM: time one register-blocked panel sweep against K
/// independent SpMV calls on the same matrix, then check every panel column
/// against the scalar reference.
int cmdSpmm(int Argc, char **Argv) {
  std::string Target;
  int K = 8;
  int Iterations = 20;
  int Threads = 0;
  double Scale = 1.0;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "-n") == 0 && I + 1 < Argc)
      Iterations = std::atoi(Argv[++I]);
    else if (std::strncmp(Argv[I], "--k=", 4) == 0)
      K = std::atoi(Argv[I] + 4);
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else
      Target = Argv[I];
  }
  if (Target.empty() || K < 1 || Iterations <= 0 || Scale <= 0.0 ||
      Scale > 1.0)
    return 2;

  CsrMatrix A;
  if (!loadTargetMatrix(Target, Scale, A))
    return 1;
  Timer Pre;
  CvrOptions Opts;
  Opts.NumThreads = Threads;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  double PreMs = Pre.millis();

  const std::size_t Rows = static_cast<std::size_t>(A.numRows());
  const std::size_t Cols = static_cast<std::size_t>(A.numCols());
  const std::size_t Ld = static_cast<std::size_t>(K);
  std::vector<double> X(Cols * Ld);
  std::vector<double> Y(Rows * Ld, 0.0);
  Xoshiro256 Rng(20180224);
  for (double &V : X)
    V = Rng.nextDouble(-1.0, 1.0);
  std::vector<double> Xc(Cols), Yc(Rows);

  // Baseline: K independent SpMV sweeps, each re-streaming the matrix.
  auto SpmvLoop = [&] {
    for (int J = 0; J < K; ++J) {
      for (std::size_t I = 0; I < Cols; ++I)
        Xc[I] = X[I * Ld + static_cast<std::size_t>(J)];
      cvrSpmv(M, Xc.data(), Yc.data());
    }
  };
  SpmvLoop(); // warm-up
  Timer LoopT;
  for (int I = 0; I < Iterations; ++I)
    SpmvLoop();
  double LoopPerIter = LoopT.seconds() / Iterations;

  Status Warm = cvrSpmm(M, X.data(), Ld, Y.data(), Ld, K);
  if (!Warm.ok()) {
    std::fprintf(stderr, "error: %s\n", Warm.toString().c_str());
    return 1;
  }
  Timer Run;
  for (int I = 0; I < Iterations; ++I)
    if (!cvrSpmm(M, X.data(), Ld, Y.data(), Ld, K).ok())
      return 1;
  double PerIter = Run.seconds() / Iterations;

  double MaxRel = 0.0;
  std::vector<double> Ref(Rows, 0.0);
  for (int J = 0; J < K; ++J) {
    for (std::size_t I = 0; I < Cols; ++I)
      Xc[I] = X[I * Ld + static_cast<std::size_t>(J)];
    referenceSpmv(A, Xc.data(), Ref.data());
    for (std::size_t I = 0; I < Rows; ++I)
      Yc[I] = Y[I * Ld + static_cast<std::size_t>(J)];
    MaxRel = std::max(MaxRel, maxRelDiff(Ref, Yc));
  }

  const double Flops = 2.0 * static_cast<double>(A.numNonZeros()) *
                       static_cast<double>(K);
  std::printf("[pre-processing time]   %.3f ms\n", PreMs);
  std::printf("[SpMV-loop time]        %.3f us/sweep (%.2f GFlop/s)\n",
              LoopPerIter * 1e6, Flops / LoopPerIter * 1e-9);
  std::printf("[SpMM execution time]   %.3f us/sweep (%.2f GFlop/s, "
              "K=%d, %d iterations)\n",
              PerIter * 1e6, Flops / PerIter * 1e-9, K, Iterations);
  std::printf("[amortization]          %.2fx one stream per %d-column "
              "register block\n",
              LoopPerIter / PerIter, K);
  std::printf("[check]                 maxRelDiff %.2e vs scalar reference "
              "(%s)\n",
              MaxRel, MaxRel <= 1e-10 ? "ok" : "FAIL");
  return MaxRel <= 1e-10 ? 0 : 1;
}

int cmdCompare(int Argc, char **Argv) {
  std::string Path;
  double N = 1000;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "-n") == 0 && I + 1 < Argc)
      N = std::atof(Argv[++I]);
    else
      Path = Argv[I];
  }
  CsrMatrix A;
  if (Path.empty() || !loadCsr(Path, A))
    return 1;

  Measurement Mkl = measureBestOf(FormatId::Mkl, A);
  TextTable T;
  T.setHeader({"format", "variant", "pre (ms)", "us/iter", "GFlop/s",
               "I_pre", "speedup@n"});
  for (FormatId F : allFormats()) {
    Measurement M = measureBestOf(F, A);
    T.addRow({formatName(F), M.VariantName,
              TextTable::fmt(M.PreprocessSeconds * 1e3, 3),
              TextTable::fmt(M.SecondsPerIteration * 1e6, 1),
              TextTable::fmt(M.Gflops, 2),
              TextTable::fmt(
                  iterationsToAmortize(M.PreprocessSeconds,
                                       Mkl.SecondsPerIteration,
                                       M.SecondsPerIteration),
                  2),
              TextTable::fmt(overallSpeedup(N, Mkl.SecondsPerIteration,
                                            M.PreprocessSeconds,
                                            M.SecondsPerIteration),
                             2)});
  }
  T.print(std::cout);
  return 0;
}

int cmdLocality(const std::string &Path) {
  CsrMatrix A;
  if (!loadCsr(Path, A))
    return 1;
  TextTable T;
  T.setHeader({"format", "L1 miss", "L2 miss", "L2 misses/knnz"});
  for (FormatId F : allFormats()) {
    std::unique_ptr<SpmvKernel> K = makeKernel(F, 1);
    K->prepare(A);
    LocalityResult L = probeLocality(*K, A);
    T.addRow({formatName(F), TextTable::fmt(L.L1MissRatio * 100, 2) + "%",
              TextTable::fmt(L.L2MissRatio * 100, 2) + "%",
              TextTable::fmt(L.MissesPerKnnz, 1)});
  }
  T.print(std::cout);
  return 0;
}

int cmdRoofline(int Argc, char **Argv) {
  std::string Target;
  int Threads = 0;
  double Scale = 0.25;
  std::int64_t BlockBytes = 0;
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--block=", 8) == 0)
      BlockBytes = std::atoll(Argv[I] + 8);
    else if (Argv[I][0] != '-')
      Target = Argv[I];
    else
      return usage(Argv[0]);
  }
  if (Target.empty())
    return usage(Argv[0]);
  CsrMatrix A;
  if (!loadTargetMatrix(Target, Scale, A))
    return 1;

  std::vector<double> X = makeX(A.numCols());

  // Alpha comes from the uncompressed plan's probe and is applied to every
  // plan, so the table shows how the prediction *transfers* to the
  // compressed streams rather than being re-fit per plan.
  CvrOptions Base;
  Base.NumThreads = Threads;
  Base.ColBlockBytes = BlockBytes;
  Base.Values = ValueKind::F64; // The default would narrow the streams.
  Base.Indices = ColIndexKind::U32;
  double Alpha = 1.0;
  {
    CvrKernel K(Base);
    StatusOr<CvrMatrix> MB = CvrMatrix::tryFromCsr(A, Base);
    if (MB.ok() && K.prepareStatus(A).ok())
      Alpha = analysis::alphaFromLocality(probeLocality(K, A, X.data()),
                                          analysis::predictCvr(*MB),
                                          A.numNonZeros());
  }
  std::printf("%s (%d x %d, %lld nnz%s)  alpha=%.3f\n\n", Target.c_str(),
              A.numRows(), A.numCols(),
              static_cast<long long>(A.numNonZeros()),
              BlockBytes > 0 ? ", blocked" : "", Alpha);

  TextTable T;
  T.setHeader({"plan", "stream B/nnz", "x B/nnz", "y B/nnz", "pred B/nnz",
               "meas B/nnz", "pred/meas"});
  struct Spec {
    const char *Label;
    ValueKind V;
    ColIndexKind I;
  };
  const Spec Specs[] = {
      {"f64/u32", ValueKind::F64, ColIndexKind::U32},
      {"f64/u16", ValueKind::F64, ColIndexKind::U16Band},
      {"f32x64/u32", ValueKind::F32x64, ColIndexKind::U32},
      {"f32x64/u16", ValueKind::F32x64, ColIndexKind::U16Band},
  };
  for (const Spec &S : Specs) {
    CvrOptions P = Base;
    P.Values = S.V;
    P.Indices = S.I;
    StatusOr<CvrMatrix> MB = CvrMatrix::tryFromCsr(A, P);
    if (!MB.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", S.Label,
                   MB.status().toString().c_str());
      return 1;
    }
    if (S.I == ColIndexKind::U16Band && MB->narrowIndexFallback()) {
      T.addRow({S.Label, "-", "-", "-", "-", "-", "band > u16"});
      continue;
    }
    const analysis::RooflinePrediction RP = analysis::predictCvr(*MB, Alpha);
    CvrKernel K(P);
    analysis::MeasuredTraffic MT;
    if (K.prepareStatus(A).ok())
      MT = analysis::measureDramTraffic(K, A, X.data());
    const double Nnz = static_cast<double>(A.numNonZeros());
    const double Streams =
        RP.ValueBytes + RP.IndexBytes + RP.RecordBytes + RP.TailBytes;
    char Ratio[32];
    std::snprintf(Ratio, sizeof(Ratio), "%.3f",
                  MT.Supported && MT.DramBytes > 0.0
                      ? RP.TotalBytes / MT.DramBytes
                      : 0.0);
    T.addRow({S.Label, TextTable::fmt(Streams / Nnz, 2),
              TextTable::fmt(RP.XBytes / Nnz, 2),
              TextTable::fmt(RP.YBytes / Nnz, 2),
              TextTable::fmt(RP.BytesPerNnz, 2),
              TextTable::fmt(MT.Supported ? MT.BytesPerNnz : -1.0, 2),
              Ratio});
  }
  T.print(std::cout);
  return 0;
}

/// One matrix through the full checked-mode sweep; prints per-variant
/// verdicts and returns the number of failing variants.
int validateOne(const std::string &Label, const CsrMatrix &A,
                const FormatId *Only, int Threads) {
  std::printf("%s (%d x %d, %lld nnz)\n", Label.c_str(), A.numRows(),
              A.numCols(), static_cast<long long>(A.numNonZeros()));
  {
    std::vector<analysis::Violation> Vs = analysis::InvariantChecker::checkCsr(A);
    if (!Vs.empty()) {
      std::printf("  FAIL input CSR\n%s",
                  analysis::formatViolations(Vs).c_str());
      return 1;
    }
  }
  int Failures = 0;
  for (const analysis::VariantReport &Rep :
       analysis::validateMatrix(A, Only, Threads)) {
    if (Rep.ok()) {
      std::printf("  ok   %-28s maxRelDiff %.2e\n", Rep.Variant.c_str(),
                  Rep.MaxRelDiff);
      continue;
    }
    ++Failures;
    std::printf("  FAIL %s\n", Rep.Variant.c_str());
    if (!Rep.Structure.empty())
      std::printf("    structure (conversion bug):\n%s",
                  analysis::formatViolations(Rep.Structure).c_str());
    if (!Rep.Runtime.empty())
      std::printf("    runtime (kernel addressing bug):\n%s",
                  analysis::formatViolations(Rep.Runtime).c_str());
    if (!Rep.DiffOk)
      std::printf("    differential: maxRelDiff %.3e vs reference\n",
                  Rep.MaxRelDiff);
  }
  return Failures;
}

int cmdValidate(int Argc, char **Argv) {
  std::string Target;
  std::string FormatName;
  int Threads = 0;
  double Scale = 0.25; // Suite matrices at validation (not benchmark) size.
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--format=", 9) == 0)
      FormatName = Argv[I] + 9;
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else
      Target = Argv[I];
  }
  if (Target.empty() || Scale <= 0.0 || Scale > 1.0)
    return 2;

  FormatId Only{};
  const FormatId *OnlyPtr = nullptr;
  if (!FormatName.empty()) {
    bool Found = false;
    for (FormatId F : allFormats())
      if (FormatName == formatName(F)) {
        Only = F;
        OnlyPtr = &Only;
        Found = true;
      }
    if (!Found) {
      std::fprintf(stderr, "error: unknown format '%s'\n",
                   FormatName.c_str());
      return 2;
    }
  }

  int Failures = 0;
  if (Target == "--suite") {
    for (const DatasetSpec &D : datasetSuite(Scale))
      Failures += validateOne(D.Name, D.Build(), OnlyPtr, Threads);
  } else if (Target.size() > 4 &&
             Target.compare(Target.size() - 4, 4, ".mtx") == 0) {
    CsrMatrix A;
    if (!loadCsr(Target, A))
      return 1;
    Failures = validateOne(Target, A, OnlyPtr, Threads);
  } else {
    bool Found = false;
    for (const DatasetSpec &D : datasetSuite(Scale))
      if (D.Name == Target) {
        Failures = validateOne(D.Name, D.Build(), OnlyPtr, Threads);
        Found = true;
        break;
      }
    if (!Found) {
      std::fprintf(stderr,
                   "error: '%s' is neither a .mtx file nor a suite matrix "
                   "(see `list`)\n",
                   Target.c_str());
      return 1;
    }
  }
  if (Failures > 0) {
    std::printf("validation FAILED: %d variant(s)\n", Failures);
    return 1;
  }
  std::printf("validation passed\n");
  return 0;
}

/// Run one of the iterative solvers over any format's kernel. Linear
/// solvers use the manufactured system b = A*1 so the exit line can report
/// the actual solution error alongside the solver's own residual;
/// `pagerank` rebuilds the loaded matrix's sparsity pattern as a
/// column-stochastic transition matrix first.
int cmdSolve(int Argc, char **Argv) {
  std::string Target;
  std::string SolverName = "cg";
  std::string FormatName = "CVR";
  int Threads = 0;
  double Scale = 0.25;
  double Damping = 0.85;
  SolverOptions Opts;
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--solver=", 9) == 0)
      SolverName = Argv[I] + 9;
    else if (std::strncmp(Argv[I], "--format=", 9) == 0)
      FormatName = Argv[I] + 9;
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--tol=", 6) == 0)
      Opts.Tolerance = std::atof(Argv[I] + 6);
    else if (std::strncmp(Argv[I], "--maxiter=", 10) == 0)
      Opts.MaxIterations = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--damping=", 10) == 0)
      Damping = std::atof(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else
      Target = Argv[I];
  }
  const bool IsLinear = SolverName == "cg" || SolverName == "bicgstab" ||
                        SolverName == "jacobi";
  if (!IsLinear && SolverName != "power" && SolverName != "pagerank") {
    std::fprintf(stderr,
                 "error: unknown solver '%s' "
                 "(cg|bicgstab|jacobi|power|pagerank)\n",
                 SolverName.c_str());
    return 2;
  }
  if (Target.empty())
    return 2;

  CsrMatrix A;
  if (Target.size() > 4 && Target.compare(Target.size() - 4, 4, ".mtx") == 0) {
    if (!loadCsr(Target, A))
      return 1;
  } else {
    bool Found = false;
    for (const DatasetSpec &D : datasetSuite(Scale))
      if (D.Name == Target) {
        A = D.Build();
        Found = true;
        break;
      }
    if (!Found) {
      std::fprintf(stderr,
                   "error: '%s' is neither a .mtx file nor a suite matrix "
                   "(see `list`)\n",
                   Target.c_str());
      return 1;
    }
  }

  if (SolverName == "pagerank") {
    // Reinterpret the sparsity pattern as a link graph: edge u -> v for
    // each stored (u, v), out-degree-normalized into column u of M.
    CooMatrix Coo(A.numCols(), A.numRows());
    for (std::int32_t U = 0; U < A.numRows(); ++U)
      for (std::int64_t I = A.rowPtr()[U]; I < A.rowPtr()[U + 1]; ++I)
        Coo.add(A.colIdx()[I], U, 1.0 / static_cast<double>(A.rowLength(U)));
    A = CsrMatrix::fromCoo(Coo);
  }
  if (A.numRows() != A.numCols()) {
    std::fprintf(stderr, "error: solvers need a square matrix (%d x %d)\n",
                 A.numRows(), A.numCols());
    return 1;
  }
  const std::size_t N = static_cast<std::size_t>(A.numRows());

  FormatId F{};
  bool FoundFormat = false;
  for (FormatId Fi : allFormats())
    if (FormatName == formatName(Fi)) {
      F = Fi;
      FoundFormat = true;
    }
  if (!FoundFormat) {
    std::fprintf(stderr, "error: unknown format '%s'\n", FormatName.c_str());
    return 2;
  }
  std::unique_ptr<SpmvKernel> K = makeKernel(F, Threads);
  Timer Pre;
  Status S = K->prepareStatus(A);
  if (!S.ok()) {
    std::fprintf(stderr, "error: prepare failed: %s\n", S.toString().c_str());
    return 1;
  }
  double PreMs = Pre.millis();

  // Manufactured right-hand side: b = A * ones, so x* = 1 for the linear
  // solvers and the final error against it is directly observable.
  std::vector<double> B;
  if (IsLinear)
    B = referenceSpmv(A, std::vector<double>(N, 1.0));

  SolveResult R;
  double SolutionErr = -1.0;
  Timer Run;
  if (SolverName == "cg" || SolverName == "bicgstab") {
    std::vector<double> X(N, 0.0);
    R = SolverName == "cg" ? conjugateGradient(*K, B, X, Opts)
                           : biCgStab(*K, B, X, Opts);
    SolutionErr = maxAbsDiff(X, std::vector<double>(N, 1.0));
  } else if (SolverName == "jacobi") {
    std::vector<double> Diag(N, 0.0);
    for (std::int32_t Row = 0; Row < A.numRows(); ++Row)
      for (std::int64_t I = A.rowPtr()[Row]; I < A.rowPtr()[Row + 1]; ++I)
        if (A.colIdx()[I] == Row)
          Diag[static_cast<std::size_t>(Row)] = A.vals()[I];
    for (double D : Diag)
      if (D == 0.0) {
        std::fprintf(stderr, "error: jacobi needs a zero-free diagonal\n");
        return 1;
      }
    std::vector<double> X(N, 0.0);
    R = jacobi(*K, Diag, B, X, Opts);
    SolutionErr = maxAbsDiff(X, std::vector<double>(N, 1.0));
  } else if (SolverName == "power") {
    double Eigenvalue = 0.0;
    std::vector<double> V(N, 0.0); // All-zero seed; the solver reseeds it.
    R = powerIteration(*K, Eigenvalue, V, Opts);
    std::printf("[dominant eigenvalue]   %.12g\n", Eigenvalue);
  } else {
    std::vector<double> Ranks(N, 0.0);
    R = pageRank(*K, Ranks, Damping, Opts);
  }
  double RunMs = Run.millis();

  std::printf("[solver]                %s, %s kernel\n", SolverName.c_str(),
              K->name().c_str());
  std::printf("[pre-processing time]   %.3f ms\n", PreMs);
  std::printf("[solve time]            %.3f ms (%d iterations, %.3f "
              "us/iteration)\n",
              RunMs, R.Iterations,
              R.Iterations > 0 ? RunMs * 1e3 / R.Iterations : 0.0);
  std::printf("[converged]             %s (residual %.3e, tol %.3e)\n",
              R.Converged ? "yes" : "no", R.Residual, Opts.Tolerance);
  if (SolutionErr >= 0.0)
    std::printf("[max |x - x*|]          %.3e\n", SolutionErr);
  return R.Converged || Opts.Tolerance == 0.0 ? 0 : 1;
}

/// Fault drill: arm the requested fail points, then drive the CVR
/// degradation ladder end to end and verify whatever kernel survives
/// against the scalar reference. Exit 0 means the pipeline stayed correct
/// under the injected faults; the downgrade trace shows what it cost.
int cmdInject(int Argc, char **Argv) {
  std::string Target;
  std::vector<std::string> FpSpecs;
  int Threads = 0;
  double Scale = 0.25;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--list") == 0) {
      std::printf("%-24s %s\n", "site", "effect when armed");
      for (const failpoint::SiteInfo &S : failpoint::catalog())
        std::printf("%-24s %s\n", S.Name, S.Effect);
      return 0;
    }
    if (std::strncmp(Argv[I], "--fp=", 5) == 0) {
      // Collected now, armed only once the input matrix exists: the drill
      // targets the SpMV pipeline, not the workload generator.
      FpSpecs.push_back(Argv[I] + 5);
    } else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else
      Target = Argv[I];
  }

  CsrMatrix A;
  if (Target.empty()) {
    // Deterministic built-in workload so CI can drill without fixtures.
    A = genRmat(12, 8, 7);
  } else if (Target.size() > 4 &&
             Target.compare(Target.size() - 4, 4, ".mtx") == 0) {
    if (!loadCsr(Target, A))
      return 1;
  } else {
    bool Found = false;
    for (const DatasetSpec &D : datasetSuite(Scale))
      if (D.Name == Target) {
        A = D.Build();
        Found = true;
        break;
      }
    if (!Found) {
      std::fprintf(stderr,
                   "error: '%s' is neither a .mtx file nor a suite matrix "
                   "(see `list`)\n",
                   Target.c_str());
      return 1;
    }
  }

  // The test vectors are workload too; materialize them before arming.
  std::vector<double> X = makeX(A.numCols());
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.0);
  std::vector<double> Ref(static_cast<std::size_t>(A.numRows()), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  for (const std::string &Spec : FpSpecs)
    if (Status S = failpoint::armFromSpec(Spec); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.toString().c_str());
      return 2;
    }
  std::vector<std::string> Armed = failpoint::armedSites();
  if (Armed.empty())
    std::printf("armed         (none — pass --fp=SPEC or set "
                "CVR_FAILPOINTS)\n");
  for (const std::string &S : Armed)
    std::printf("armed         %s\n", S.c_str());

  PrepareOptions Opts;
  Opts.NumThreads = Threads;
  StatusOr<PreparedKernel> R = prepareKernel(FormatId::Cvr, A, Opts);
  if (!R.ok()) {
    std::fprintf(stderr, "error: ladder exhausted: %s\n",
                 R.status().toString().c_str());
    return 1;
  }
  std::printf("requested     %s\n", R->Requested.c_str());
  for (const DowngradeStep &D : R->Downgrades)
    std::printf("downgrade     %s -> %s: %s\n", D.FromVariant.c_str(),
                D.ToVariant.c_str(), D.Reason.toString().c_str());
  std::printf("prepared      %s%s\n", R->Actual.c_str(),
              R->degraded() ? " (degraded)" : "");

  R->Kernel->run(X.data(), Y.data());
  double Diff = maxRelDiff(Ref, Y);
  std::printf("check         maxRelDiff %.2e vs scalar reference (%s)\n",
              Diff, Diff <= 1e-10 ? "ok" : "FAIL");
  failpoint::disarmAll();
  return Diff <= 1e-10 ? 0 : 1;
}

/// Runs the full pipeline — CSR -> CVR conversion, a few plain SpMV sweeps,
/// and (for square matrices) a short fused power iteration — under a trace
/// session, then writes the chrome-trace JSON.
/// The file loads directly in about://tracing or ui.perfetto.dev; the
/// JSON is validated before anything reaches disk.
int cmdTrace(int Argc, char **Argv) {
  std::string Target, Out = "trace.json";
  int Threads = 0;
  double Scale = 1.0;
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      Out = Argv[I] + 6;
    else
      Target = Argv[I];
  }
  if (Target.empty() || Out.empty() || Scale <= 0.0 || Scale > 1.0)
    return 2;

  CsrMatrix A;
  if (!loadTargetMatrix(Target, Scale, A))
    return 1;

  if (!obs::telemetryEnabled())
    std::fprintf(stderr,
                 "note: telemetry is disabled (CVR_TELEMETRY=0 or a "
                 "-DCVR_TELEMETRY=OFF build); the trace will be empty\n");

  obs::traceStart();
  {
    // prepare() converts: the convert/cvr span.
    CvrOptions Opts;
    Opts.NumThreads = Threads;
    CvrKernel K(Opts);
    K.prepare(A);

    std::vector<double> X = makeX(A.numCols());
    std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.0);
    for (int I = 0; I < 4; ++I)
      K.run(X.data(), Y.data()); // execute/spmv spans

    // A short fused power iteration covers the solve and fused-epilogue
    // phases; it needs a square operator, so rectangular targets stop at
    // plain SpMV.
    if (A.numRows() == A.numCols()) {
      SolverOptions SOpts;
      SOpts.MaxIterations = 8;
      double Eigenvalue = 0.0;
      std::vector<double> V(static_cast<std::size_t>(A.numRows()), 0.0);
      powerIteration(K, Eigenvalue, V, SOpts);
    } else {
      std::fprintf(stderr,
                   "note: %s is rectangular; skipping the fused-solve "
                   "phase\n",
                   Target.c_str());
    }
  }
  std::size_t NumEvents = obs::traceEventCount();
  std::string Json = obs::traceStopToJson();

  if (Status V = obs::validateChromeTrace(Json); !V.ok()) {
    std::fprintf(stderr, "error: generated trace failed validation: %s\n",
                 V.toString().c_str());
    return 1;
  }
  std::ofstream OS(Out, std::ios::binary);
  OS << Json;
  if (!OS) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 Out.c_str());
    return 1;
  }

  std::printf("%s (%d x %d, %lld nnz)\n", Target.c_str(), A.numRows(),
              A.numCols(), static_cast<long long>(A.numNonZeros()));
  std::printf("  spans      %zu (convert -> execute%s)\n",
              NumEvents,
              A.numRows() == A.numCols() ? " -> fused solve" : "");
  std::printf("  telemetry  %lld conversions, %lld SpMV runs\n",
              static_cast<long long>(obs::telemetryValue("convert.cvr.calls")),
              static_cast<long long>(obs::telemetryValue("spmv.cvr.runs")));
  std::printf("  wrote      %s (%zu bytes; open in about://tracing or "
              "ui.perfetto.dev)\n",
              Out.c_str(), Json.size());
  return 0;
}

int cmdList() {
  for (const DatasetSpec &D : datasetSuite())
    std::printf("%-22s %-14s %s\n", D.Name.c_str(), domainName(D.Dom),
                D.ScaleFree ? "scale-free" : "HPC");
  return 0;
}

int cmdGen(int Argc, char **Argv) {
  std::string Name, Out;
  double Scale = 1.0;
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else if (Name.empty())
      Name = Argv[I];
    else
      Out = Argv[I];
  }
  if (Name.empty() || Out.empty() || Scale <= 0.0 || Scale > 1.0)
    return 2;
  for (const DatasetSpec &D : datasetSuite(Scale)) {
    if (D.Name != Name)
      continue;
    CsrMatrix A = D.Build();
    if (Status S = writeMatrixMarketFile(Out, A.toCoo()); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.toString().c_str());
      return 1;
    }
    std::printf("wrote %s: %d x %d, %lld nnz\n", Out.c_str(), A.numRows(),
                A.numCols(), static_cast<long long>(A.numNonZeros()));
    return 0;
  }
  std::fprintf(stderr, "error: unknown suite matrix '%s' (see `list`)\n",
               Name.c_str());
  return 1;
}

//===----------------------------------------------------------------------===//
// serve --oneshot: the whole serving stack, one request, one process
//===----------------------------------------------------------------------===//

/// Row-major K-wide random panel (leading dimension K), same generator as
/// makeX so drills are reproducible.
std::vector<double> makePanel(std::int32_t Cols, int K) {
  Xoshiro256 Rng(20180224);
  std::vector<double> X(static_cast<std::size_t>(Cols) *
                        static_cast<std::size_t>(K));
  for (double &V : X)
    V = Rng.nextDouble(-1.0, 1.0);
  return X;
}

int cmdServe(int Argc, char **Argv) {
  bool Oneshot = false;
  std::string Target = "com-DBLP", OpName = "multiply";
  double Scale = 0.1;
  int K = 4;
  std::uint64_t DeadlineUs = 0;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--oneshot") == 0)
      Oneshot = true;
    else if (std::strncmp(Argv[I], "--scale=", 8) == 0)
      Scale = std::atof(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--op=", 5) == 0)
      OpName = Argv[I] + 5;
    else if (std::strncmp(Argv[I], "--k=", 4) == 0)
      K = std::atoi(Argv[I] + 4);
    else if (std::strncmp(Argv[I], "--deadline-us=", 14) == 0)
      DeadlineUs = static_cast<std::uint64_t>(std::atoll(Argv[I] + 14));
    else
      Target = Argv[I];
  }
  if (!Oneshot) {
    std::fprintf(stderr, "error: `serve` supports --oneshot only; run the "
                         "cvr_served daemon for socket serving\n");
    return 2;
  }
  if (K <= 0 || K > serve::MaxSpmmVectors)
    return 2;

  CsrMatrix A;
  if (!loadTargetMatrix(Target, Scale, A))
    return 1;

  // Write a Mapped-layout blob and load it back through the fleet, so the
  // smoke covers the zero-copy path end to end: mmap, validation against
  // the mapped view, kernel execution on aliased streams.
  const std::string BlobPath = "serve_oneshot.cvr";
  {
    CvrMatrix M = CvrMatrix::fromCsr(A);
    std::ofstream OS(BlobPath, std::ios::binary);
    if (!OS) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   BlobPath.c_str());
      return 1;
    }
    if (Status S = M.writeBlob(OS, BlobLayout::Mapped); !S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.toString().c_str());
      return 1;
    }
  }
  serve::Fleet Fleet;
  if (Status S = Fleet.addBlob("target", BlobPath); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return 1;
  }
  std::shared_ptr<const serve::ServedMatrix> Entry = Fleet.find("target");
  std::printf("[fleet]   '%s' %d x %d, %lld nnz, mode=%s\n", Target.c_str(),
              Entry->rows(), Entry->cols(),
              static_cast<long long>(Entry->nnz()),
              serve::loadModeName(Entry->Mode));

  serve::Service Svc(Fleet);
  serve::ServerOptions SrvOpts;
  SrvOpts.InstallSignalHandlers = false;
  serve::Server Srv(Svc, SrvOpts);

  int Fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
    std::perror("socketpair");
    return 1;
  }

  serve::Request Req;
  Req.Matrix = "target";
  Req.DeadlineMicros = DeadlineUs;
  if (OpName == "ping") {
    Req.Kind = serve::Op::Ping;
  } else if (OpName == "multiply") {
    Req.Kind = serve::Op::Multiply;
    Req.X = makeX(A.numCols());
  } else if (OpName == "spmm") {
    Req.Kind = serve::Op::Spmm;
    Req.NumVectors = K;
    Req.X = makePanel(A.numCols(), K);
  } else {
    std::fprintf(stderr, "error: unknown oneshot op '%s'\n", OpName.c_str());
    return 2;
  }

  // The exchange runs on two threads of this one process: socketpair
  // buffers are finite, so writing a large request while nobody reads
  // would deadlock a single thread.
  Status ServeS = Status::okStatus();
  std::thread ServerSide([&] { ServeS = Srv.serveOneshot(Fds[1]); });
  serve::Client C = serve::Client::adopt(Fds[0]);
  serve::Response Resp;
  Status CallS = C.call(Req, Resp);
  ServerSide.join();
  (void)close(Fds[1]);
  (void)std::remove(BlobPath.c_str());

  if (!CallS.ok() || !ServeS.ok()) {
    std::fprintf(stderr, "error: oneshot exchange failed: %s\n",
                 (!CallS.ok() ? CallS : ServeS).toString().c_str());
    return 1;
  }
  for (const serve::WireDowngrade &D : Resp.Downgrades)
    std::printf("[degrade] %s\n", D.Text.c_str());
  if (Resp.Code != StatusCode::Ok) {
    std::fprintf(stderr, "error: served response: %s: %s\n",
                 statusCodeName(Resp.Code), Resp.Message.c_str());
    return 1;
  }
  std::printf("[variant] %s\n",
              Resp.Variant.empty() ? "-" : Resp.Variant.c_str());

  double MaxRel = 0.0;
  if (Req.Kind == serve::Op::Multiply) {
    std::vector<double> Ref(static_cast<std::size_t>(A.numRows()), 0.0);
    referenceSpmv(A, Req.X.data(), Ref.data());
    MaxRel = maxRelDiff(Ref, Resp.Y);
  } else if (Req.Kind == serve::Op::Spmm) {
    const auto Rows = static_cast<std::size_t>(A.numRows());
    const auto Cols = static_cast<std::size_t>(A.numCols());
    std::vector<double> Xc(Cols), Ref(Rows, 0.0), Yc(Rows);
    for (int J = 0; J < K; ++J) {
      for (std::size_t I = 0; I < Cols; ++I)
        Xc[I] = Req.X[I * static_cast<std::size_t>(K) +
                      static_cast<std::size_t>(J)];
      referenceSpmv(A, Xc.data(), Ref.data());
      for (std::size_t I = 0; I < Rows; ++I)
        Yc[I] = Resp.Y[I * static_cast<std::size_t>(K) +
                       static_cast<std::size_t>(J)];
      MaxRel = std::max(MaxRel, maxRelDiff(Ref, Yc));
    }
  }
  std::printf("[check]   maxRelDiff %.2e vs scalar reference (%s)\n", MaxRel,
              MaxRel <= 1e-10 ? "ok" : "FAIL");
  return MaxRel <= 1e-10 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// serve-client: load generation and chaos drills against cvr_served
//===----------------------------------------------------------------------===//

bool statusCodeFromName(const std::string &Name, StatusCode &Out) {
  static const StatusCode All[] = {
      StatusCode::Ok,           StatusCode::InvalidArgument,
      StatusCode::OutOfRange,   StatusCode::NotFound,
      StatusCode::ResourceExhausted, StatusCode::DataLoss,
      StatusCode::DeadlineExceeded,  StatusCode::FailedPrecondition,
      StatusCode::Unavailable,  StatusCode::Internal,
  };
  std::string Upper;
  for (char C : Name)
    Upper.push_back(C == '-' ? '_'
                             : static_cast<char>(std::toupper(
                                   static_cast<unsigned char>(C))));
  for (StatusCode C : All)
    if (Upper == statusCodeName(C)) {
      Out = C;
      return true;
    }
  return false;
}

int cmdServeClient(int Argc, char **Argv) {
  std::string SocketPath, MatrixName, OpName = "multiply", MtxPath,
              ExpectSpec = "ok", SolverName = "cg";
  int N = 1, Threads = 1, K = 4, MaxIter = 100;
  std::uint64_t DeadlineUs = 0;
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--socket=", 9) == 0)
      SocketPath = Argv[I] + 9;
    else if (std::strncmp(Argv[I], "--matrix=", 9) == 0)
      MatrixName = Argv[I] + 9;
    else if (std::strncmp(Argv[I], "--op=", 5) == 0)
      OpName = Argv[I] + 5;
    else if (std::strncmp(Argv[I], "--mtx=", 6) == 0)
      MtxPath = Argv[I] + 6;
    else if (std::strncmp(Argv[I], "--expect=", 9) == 0)
      ExpectSpec = Argv[I] + 9;
    else if (std::strncmp(Argv[I], "--solver=", 9) == 0)
      SolverName = Argv[I] + 9;
    else if (std::strcmp(Argv[I], "-n") == 0 && I + 1 < Argc)
      N = std::atoi(Argv[++I]);
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--k=", 4) == 0)
      K = std::atoi(Argv[I] + 4);
    else if (std::strncmp(Argv[I], "--maxiter=", 10) == 0)
      MaxIter = std::atoi(Argv[I] + 10);
    else if (std::strncmp(Argv[I], "--deadline-us=", 14) == 0)
      DeadlineUs = static_cast<std::uint64_t>(std::atoll(Argv[I] + 14));
    else {
      std::fprintf(stderr, "error: unknown serve-client option '%s'\n",
                   Argv[I]);
      return 2;
    }
  }
  if (SocketPath.empty() || N <= 0 || Threads <= 0 || K <= 0)
    return 2;

  serve::Op Kind;
  if (OpName == "ping")
    Kind = serve::Op::Ping;
  else if (OpName == "stats")
    Kind = serve::Op::Stats;
  else if (OpName == "list")
    Kind = serve::Op::List;
  else if (OpName == "multiply")
    Kind = serve::Op::Multiply;
  else if (OpName == "spmm")
    Kind = serve::Op::Spmm;
  else if (OpName == "solve")
    Kind = serve::Op::Solve;
  else {
    std::fprintf(stderr, "error: unknown op '%s'\n", OpName.c_str());
    return 2;
  }
  serve::SolverKind Solver = serve::SolverKind::Cg;
  if (SolverName == "bicgstab")
    Solver = serve::SolverKind::BiCgStab;
  else if (SolverName == "power")
    Solver = serve::SolverKind::Power;
  else if (SolverName != "cg") {
    std::fprintf(stderr, "error: unknown solver '%s'\n", SolverName.c_str());
    return 2;
  }

  // The acceptable-outcome set. Server-side verdicts and client-side
  // transport failures are judged together: a connection refused or cut
  // mid-frame counts as UNAVAILABLE, so a SIGTERM drill can pass with
  // --expect=ok,unavailable.
  bool ExpectAny = ExpectSpec == "any";
  std::vector<StatusCode> Allowed;
  if (!ExpectAny) {
    std::stringstream SS(ExpectSpec);
    std::string Tok;
    while (std::getline(SS, Tok, ',')) {
      StatusCode C;
      if (!statusCodeFromName(Tok, C)) {
        std::fprintf(stderr, "error: unknown status code '%s'\n",
                     Tok.c_str());
        return 2;
      }
      Allowed.push_back(C);
    }
  }
  auto IsAllowed = [&](StatusCode C) {
    if (ExpectAny)
      return true;
    for (StatusCode A : Allowed)
      if (A == C)
        return true;
    return false;
  };

  const bool Compute = Kind == serve::Op::Multiply ||
                       Kind == serve::Op::Spmm || Kind == serve::Op::Solve;
  if (Compute && MatrixName.empty()) {
    std::fprintf(stderr, "error: --matrix=NAME is required for %s\n",
                 OpName.c_str());
    return 2;
  }

  // Compute ops need the matrix dimensions: from the local --mtx reference
  // when given, otherwise from the daemon's own List inventory.
  CsrMatrix Ref;
  bool HaveRef = false;
  std::int64_t Rows = 0, Cols = 0;
  if (Compute) {
    if (!MtxPath.empty()) {
      if (!loadCsr(MtxPath, Ref))
        return 1;
      HaveRef = true;
      Rows = Ref.numRows();
      Cols = Ref.numCols();
    } else {
      StatusOr<serve::Client> CR = serve::Client::connect(SocketPath);
      if (!CR.ok()) {
        std::fprintf(stderr, "error: %s\n", CR.status().toString().c_str());
        return 1;
      }
      serve::Request LReq;
      LReq.Kind = serve::Op::List;
      serve::Response LResp;
      if (Status S = CR->call(LReq, LResp); !S.ok()) {
        std::fprintf(stderr, "error: %s\n", S.toString().c_str());
        return 1;
      }
      // One "name rows cols nnz ..." line per entry.
      std::stringstream LS(LResp.Text);
      for (std::string Line; std::getline(LS, Line);) {
        std::istringstream Fields(Line);
        std::string Name;
        std::int64_t R = 0, C = 0;
        if (Fields >> Name >> R >> C && Name == MatrixName) {
          Rows = R;
          Cols = C;
        }
      }
      if (Cols == 0) {
        std::fprintf(stderr, "error: daemon does not serve '%s'\n",
                     MatrixName.c_str());
        return 1;
      }
    }
  }

  // One request body, reused by every thread (requests are stateless).
  serve::Request Req;
  Req.Kind = Kind;
  Req.Matrix = MatrixName;
  Req.DeadlineMicros = DeadlineUs;
  Req.Solver = Solver;
  Req.MaxIterations = MaxIter;
  if (Kind == serve::Op::Multiply)
    Req.X = makeX(static_cast<std::int32_t>(Cols));
  else if (Kind == serve::Op::Spmm) {
    Req.NumVectors = K;
    Req.X = makePanel(static_cast<std::int32_t>(Cols), K);
  } else if (Kind == serve::Op::Solve && Solver != serve::SolverKind::Power)
    Req.X = makeX(static_cast<std::int32_t>(Rows));

  std::vector<double> RefY;
  if (HaveRef && Kind == serve::Op::Multiply) {
    RefY.assign(static_cast<std::size_t>(Rows), 0.0);
    referenceSpmv(Ref, Req.X.data(), RefY.data());
  }

  std::atomic<long> CodeCounts[10] = {};
  std::atomic<long> Mismatches{0}, Degraded{0}, Disallowed{0};
  std::mutex PrintMu;
  std::string LastText;

  auto Worker = [&](int Requests) {
    StatusOr<serve::Client> CR = serve::Client::connect(SocketPath);
    if (!CR.ok()) {
      CodeCounts[static_cast<int>(StatusCode::Unavailable)] += Requests;
      if (!IsAllowed(StatusCode::Unavailable))
        Disallowed += Requests;
      return;
    }
    serve::Client C = std::move(*CR);
    for (int I = 0; I < Requests; ++I) {
      serve::Response Resp;
      if (Status S = C.call(Req, Resp); !S.ok()) {
        // Transport cut (daemon shutting down, frame truncated): the rest
        // of this connection's budget is unavailable too.
        long Left = Requests - I;
        CodeCounts[static_cast<int>(StatusCode::Unavailable)] += Left;
        if (!IsAllowed(StatusCode::Unavailable))
          Disallowed += Left;
        return;
      }
      CodeCounts[static_cast<int>(Resp.Code)] += 1;
      if (!IsAllowed(Resp.Code))
        Disallowed += 1;
      if (!Resp.Downgrades.empty())
        Degraded += 1;
      if (Resp.Code == StatusCode::Ok) {
        if (!RefY.empty() && maxRelDiff(RefY, Resp.Y) > 1e-10)
          Mismatches += 1;
        if (!Resp.Text.empty()) {
          std::lock_guard<std::mutex> L(PrintMu);
          LastText = Resp.Text;
        }
      }
    }
  };

  std::vector<std::thread> Pool;
  int Base = N / Threads, Extra = N % Threads;
  for (int T = 0; T < Threads; ++T) {
    int Requests = Base + (T < Extra ? 1 : 0);
    if (Requests > 0)
      Pool.emplace_back(Worker, Requests);
  }
  for (std::thread &T : Pool)
    T.join();

  if (!LastText.empty())
    std::printf("%s\n", LastText.c_str());
  std::ostringstream Summary;
  Summary << "serve-client: " << N << " x " << OpName;
  for (int C = 0; C < 10; ++C)
    if (long Count = CodeCounts[C].load())
      Summary << ' ' << statusCodeName(static_cast<StatusCode>(C)) << '='
              << Count;
  Summary << " degraded=" << Degraded.load()
          << " mismatches=" << Mismatches.load();
  std::printf("%s\n", Summary.str().c_str());
  if (Disallowed.load() > 0 || Mismatches.load() > 0) {
    std::fprintf(stderr, "error: %ld disallowed outcomes, %ld reference "
                         "mismatches (expect set: %s)\n",
                 Disallowed.load(), Mismatches.load(), ExpectSpec.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "inject")
    return cmdInject(Argc, Argv);
  if (Argc < 3)
    return usage(Argv[0]);
  if (Cmd == "info")
    return cmdInfo(Argv[2]);
  if (Cmd == "convert" && Argc >= 4)
    return cmdConvert(Argc, Argv);
  if (Cmd == "serve")
    return cmdServe(Argc, Argv);
  if (Cmd == "serve-client")
    return cmdServeClient(Argc, Argv);
  if (Cmd == "spmv")
    return cmdSpmv(Argc, Argv);
  if (Cmd == "spmm")
    return cmdSpmm(Argc, Argv);
  if (Cmd == "compare")
    return cmdCompare(Argc, Argv);
  if (Cmd == "locality")
    return cmdLocality(Argv[2]);
  if (Cmd == "roofline")
    return cmdRoofline(Argc, Argv);
  if (Cmd == "validate")
    return cmdValidate(Argc, Argv);
  if (Cmd == "trace")
    return cmdTrace(Argc, Argv);
  if (Cmd == "solve")
    return cmdSolve(Argc, Argv);
  if (Cmd == "gen")
    return cmdGen(Argc, Argv);
  return usage(Argv[0]);
}
