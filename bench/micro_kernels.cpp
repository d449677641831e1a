//===- bench/micro_kernels.cpp - google-benchmark kernel microbench -------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Supporting microbenchmarks (not a paper figure): per-iteration SpMV time
// of every format's canonical variant on three structurally distinct
// matrices, through google-benchmark for stable statistics. Reports
// items_per_second = nonzeros processed per second (flops = 2x that).
//
//===----------------------------------------------------------------------===//

#include "benchlib/SuiteRunner.h"
#include "formats/Registry.h"
#include "gen/Generators.h"
#include "obs/Trace.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace cvr;

struct NamedMatrix {
  const char *Name;
  CsrMatrix A;
};

const NamedMatrix &testMatrix(int Index) {
  static const NamedMatrix Matrices[] = {
      {"rmat_scalefree", genRmat(13, 16, 501)},
      {"stencil27_hpc", genStencil27(20, 20, 20)},
      {"shortfat_rect", genShortFat(64, 8192, 1024, 502)},
  };
  return Matrices[Index];
}

void runSpmvBench(benchmark::State &State, FormatId F, int MatrixIndex) {
  const NamedMatrix &NM = testMatrix(MatrixIndex);
  std::unique_ptr<SpmvKernel> K = makeKernel(F);
  K->prepare(NM.A);

  Xoshiro256 Rng(99);
  std::vector<double> X(static_cast<std::size_t>(NM.A.numCols()));
  for (double &V : X)
    V = Rng.nextDouble(-1.0, 1.0);
  std::vector<double> Y(static_cast<std::size_t>(NM.A.numRows()), 0.0);

  for (auto _ : State) {
    K->run(X.data(), Y.data());
    benchmark::DoNotOptimize(Y.data());
  }
  State.SetItemsProcessed(State.iterations() * NM.A.numNonZeros());
  State.SetLabel(NM.Name);
}

void runPrepareBench(benchmark::State &State, FormatId F, int MatrixIndex) {
  const NamedMatrix &NM = testMatrix(MatrixIndex);
  for (auto _ : State) {
    std::unique_ptr<SpmvKernel> K = makeKernel(F);
    K->prepare(NM.A);
    benchmark::DoNotOptimize(K.get());
  }
  State.SetItemsProcessed(State.iterations() * NM.A.numNonZeros());
  State.SetLabel(NM.Name);
}

void registerAll() {
  for (FormatId F : allFormats()) {
    for (int M = 0; M < 3; ++M) {
      std::string SpmvName = std::string("spmv/") + formatName(F) + "/" +
                             testMatrix(M).Name;
      benchmark::RegisterBenchmark(
          SpmvName.c_str(),
          [F, M](benchmark::State &S) { runSpmvBench(S, F, M); });
      std::string PrepName = std::string("prepare/") + formatName(F) + "/" +
                             testMatrix(M).Name;
      benchmark::RegisterBenchmark(
          PrepName.c_str(),
          [F, M](benchmark::State &S) { runPrepareBench(S, F, M); });
    }
  }
}

/// --json <path>: skip google-benchmark and sweep EVERY variant of every
/// format (the harness above runs canonical variants only) through the
/// benchlib timing harness, emitting one machine-readable record each —
/// GFlop/s and reference error. The CI perf-smoke job asserts over this
/// output.
int runJsonSweep(const std::string &Path, int Threads,
                 const std::string &TraceOutPath) {
  if (!TraceOutPath.empty())
    obs::traceStart();
  MeasureConfig Cfg;
  Cfg.NumThreads = Threads;
  Cfg.MinSeconds = 0.005; // Smoke-speed blocks; this is not a paper figure.
  Cfg.TimingBlocks = 2;
  Cfg.PrepareRepeats = 1;

  std::vector<BenchRecord> Records;
  for (int MI = 0; MI < 3; ++MI) {
    const NamedMatrix &NM = testMatrix(MI);
    for (FormatId F : allFormats())
      for (const KernelVariant &V : variantsOf(F, Threads)) {
        // measureVariant aborts the process if a kernel disagrees with the
        // scalar reference, so every record that reaches the file is from
        // a correct kernel.
        BenchRecord R;
        R.Matrix = NM.Name;
        R.Rows = NM.A.numRows();
        R.Cols = NM.A.numCols();
        R.Nnz = NM.A.numNonZeros();
        R.Format = formatName(F);
        R.M = measureVariant(V, NM.A, Cfg);
        R.M.Kernel.reset();
        std::printf("%-16s %-20s %8.2f GFlop/s  maxRelErr %.2e\n",
                    NM.Name, R.M.VariantName.c_str(), R.M.Gflops,
                    R.M.MaxRelError);
        Records.push_back(std::move(R));
      }
  }
  if (!writeBenchJson(Path, Records, 1.0, Threads))
    return 1;
  std::printf("wrote %zu records to %s; all variants match the reference\n",
              Records.size(), Path.c_str());
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

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  std::string TraceOutPath;
  int Threads = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc)
      JsonPath = Argv[I + 1];
    else if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else if (std::strcmp(Argv[I], "--trace-out") == 0 && I + 1 < Argc)
      TraceOutPath = Argv[I + 1];
    else if (std::strncmp(Argv[I], "--trace-out=", 12) == 0)
      TraceOutPath = Argv[I] + 12;
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Threads = std::atoi(Argv[I] + 10);
  }
  if (!JsonPath.empty())
    return runJsonSweep(JsonPath, Threads, TraceOutPath);

  registerAll();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
