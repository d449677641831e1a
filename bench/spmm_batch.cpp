//===- bench/spmm_batch.cpp - Batched multi-RHS SpMM K-sweep --------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The SpMM amortization experiment: for K right-hand sides over one CVR
// matrix, compare
//
//   spmv-loop/kK : K independent cvrSpmv calls (the status quo — streams
//                  the matrix value/index/record arrays K times), and
//   spmm/kK      : one cvrSpmm call on a row-major panel (streams the
//                  matrix once per register block of <= 8 columns).
//
// K sweeps {1, 2, 4, 8, 16, 32} over the scale-free suite matrices (the
// matrices whose x gathers make SpMV bandwidth-bound, i.e. where matrix
// re-streaming hurts most). Per (matrix, variant, K) the bench reports
// GFlop/s (2 * nnz * K flops per sweep) and the matrix-stream bytes per
// nonzero per column — the quantity SpMM divides by the register-block
// width. The --json output (schema cvr-bench-2) feeds
// scripts/perf_trajectory.py, which gates the K=8 amortization ratio.
//
//===----------------------------------------------------------------------===//

#include "benchlib/SuiteRunner.h"
#include "core/Cvr.h"
#include "matrix/Reference.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

using namespace cvr;

namespace {

constexpr int KSweep[] = {1, 2, 4, 8, 16, 32};

/// Deterministic panel values (same LCG family as the tuning vector).
void fillPanel(std::vector<double> &P) {
  std::uint64_t State = 0x243f6a8885a308d3ULL;
  for (double &V : P) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    V = static_cast<double>(static_cast<std::int64_t>(State >> 11)) /
        static_cast<double>(1LL << 52);
  }
}

/// Fastest per-sweep seconds of \p Body over a few timing blocks.
template <class Fn> double timeSweep(const MeasureConfig &Cfg, Fn Body) {
  Body(); // Warm-up: caches, page faults, first-touch.
  double Best = std::numeric_limits<double>::infinity();
  for (int Block = 0; Block < std::max(1, Cfg.TimingBlocks); ++Block) {
    int Iters = 0;
    Timer T;
    do {
      Body();
      ++Iters;
    } while (Iters < Cfg.MinIterations && T.seconds() < Cfg.MinSeconds);
    Best = std::min(Best, T.seconds() / Iters);
  }
  return Best;
}

/// Matrix-stream bytes per nonzero per column: what one sweep reads of the
/// CVR arrays, divided across the K columns it serves. The spmv loop reads
/// the stream K times (Passes = K); SpMM reads it once per register block.
double streamBytesPerNnzCol(const CvrMatrix &M, int Passes, int K) {
  double Bytes = static_cast<double>(M.formatBytes()) *
                 static_cast<double>(Passes);
  return Bytes / (static_cast<double>(M.numNonZeros()) *
                  static_cast<double>(K));
}

} // namespace

int main(int Argc, char **Argv) {
  SuiteOptions Opts = parseSuiteOptions(Argc, Argv);

  // Scale-free matrices only: every 5th of the 30 by default (the sweep is
  // 12 timed variants per matrix), the smoke subset's scale-free entries
  // under --smoke.
  std::vector<DatasetSpec> Suite;
  if (Opts.Smoke) {
    for (DatasetSpec &D : smokeSuite(Opts.SizeScale))
      if (D.ScaleFree)
        Suite.push_back(std::move(D));
  } else {
    std::vector<DatasetSpec> All = scaleFreeSuite(Opts.SizeScale);
    for (std::size_t I = 0; I < All.size(); I += 5)
      Suite.push_back(std::move(All[I]));
  }

  std::vector<BenchRecord> Records;
  TextTable T;
  T.setHeader({"dataset", "K", "spmv-loop GF/s", "spmm GF/s", "speedup",
               "stream B/nnz/col"});

  for (const DatasetSpec &D : Suite) {
    if (Opts.Verbose)
      std::cerr << "spmm_batch: " << D.Name << "\n";
    CsrMatrix A = D.Build();
    CvrOptions CO;
    CO.NumThreads = Opts.Measure.NumThreads;
    CvrMatrix M = CvrMatrix::fromCsr(A, CO);

    const std::size_t Rows = static_cast<std::size_t>(A.numRows());
    const std::size_t Cols = static_cast<std::size_t>(A.numCols());
    const double Nnz = static_cast<double>(A.numNonZeros());

    const int MaxK = KSweep[std::size(KSweep) - 1];
    std::vector<double> X(Cols * static_cast<std::size_t>(MaxK));
    std::vector<double> Y(Rows * static_cast<std::size_t>(MaxK), 0.0);
    fillPanel(X);
    // Contiguous per-column vectors for the spmv loop (its natural layout;
    // strided panel access would handicap the baseline it represents).
    std::vector<double> Xc(Cols), Yc(Rows);

    for (int K : KSweep) {
      const std::size_t Ld = static_cast<std::size_t>(K);

      double LoopSec = timeSweep(Opts.Measure, [&] {
        for (int J = 0; J < K; ++J) {
          for (std::size_t I = 0; I < Cols; ++I)
            Xc[I] = X[I * Ld + static_cast<std::size_t>(J)];
          cvrSpmv(M, Xc.data(), Yc.data());
        }
      });
      double SpmmSec = timeSweep(Opts.Measure, [&] {
        Status S = cvrSpmm(M, X.data(), Ld, Y.data(), Ld, K);
        if (!S.ok()) {
          std::cerr << "spmm_batch: cvrSpmm failed: " << S.message() << "\n";
          std::exit(1);
        }
      });

      // Correctness cross-check: panel columns against the scalar
      // reference, so the reported numbers can never come from a wrong
      // kernel.
      double MaxRel = 0.0;
      for (int J = 0; J < K; ++J) {
        for (std::size_t I = 0; I < Cols; ++I)
          Xc[I] = X[I * Ld + static_cast<std::size_t>(J)];
        std::vector<double> Ref = referenceSpmv(A, Xc);
        for (std::size_t I = 0; I < Rows; ++I)
          Yc[I] = Y[I * Ld + static_cast<std::size_t>(J)];
        MaxRel = std::max(MaxRel, maxRelDiff(Ref, Yc));
      }

      const double Flops = 2.0 * Nnz * static_cast<double>(K);
      const int Passes = (K + 7) / 8; // Eight-column matrix passes.
      auto Record = [&](const std::string &Variant, double Sec) {
        BenchRecord R;
        R.Matrix = D.Name;
        R.Domain = domainName(D.Dom);
        R.ScaleFree = true;
        R.Rows = A.numRows();
        R.Cols = A.numCols();
        R.Nnz = A.numNonZeros();
        R.Format = "CVR";
        R.M.VariantName = Variant;
        R.M.SecondsPerIteration = Sec;
        R.M.Gflops = Flops / Sec * 1e-9;
        R.M.MaxRelError = MaxRel;
        R.M.FormatBytes = M.formatBytes();
        Records.push_back(std::move(R));
      };
      Record("spmv-loop/k" + std::to_string(K), LoopSec);
      Record("spmm/k" + std::to_string(K), SpmmSec);

      T.addRow({D.Name, std::to_string(K),
                TextTable::fmt(Flops / LoopSec * 1e-9, 2),
                TextTable::fmt(Flops / SpmmSec * 1e-9, 2),
                TextTable::fmt(LoopSec / SpmmSec, 2),
                TextTable::fmt(streamBytesPerNnzCol(M, Passes, K), 2)});
    }
    T.addSeparator();
  }

  std::cout << "Batched SpMM K-sweep: one matrix stream per register block "
               "vs one per right-hand side\n\n";
  if (Opts.Csv)
    T.printCsv(std::cout);
  else
    T.print(std::cout);

  if (!Opts.JsonPath.empty() &&
      !writeBenchJson(Opts.JsonPath, Records, Opts.SizeScale,
                      Opts.Measure.NumThreads))
    return 1;
  return 0;
}
