//===- benchlib/Measure.cpp - Kernel timing harness -----------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Measure.h"

#include "benchlib/Equations.h"
#include "matrix/Reference.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

namespace cvr {

Measurement measureVariant(const KernelVariant &V, const CsrMatrix &A,
                           const MeasureConfig &Cfg) {
  Measurement M;
  M.VariantName = V.VariantName;

  // Preprocessing: repeat on fresh kernels and keep the fastest — on a
  // shared host a single sample can be off by 2x.
  M.PreprocessSeconds = std::numeric_limits<double>::infinity();
  for (int R = 0; R < std::max(1, Cfg.PrepareRepeats); ++R) {
    M.Kernel = V.Make();
    Timer PreTimer;
    M.Kernel->prepare(A);
    M.PreprocessSeconds = std::min(M.PreprocessSeconds, PreTimer.seconds());
  }
  M.FormatBytes = M.Kernel->formatBytes();

  Xoshiro256 Rng(20180224); // CGO'18 conference date as the fixed seed.
  std::vector<double> X(static_cast<std::size_t>(A.numCols()));
  for (double &Val : X)
    Val = Rng.nextDouble(-1.0, 1.0);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.0);

  if (Cfg.CheckCorrectness) {
    std::vector<double> Expected = referenceSpmv(A, X);
    M.Kernel->run(X.data(), Y.data());
    M.MaxRelError = maxRelDiff(Expected, Y);
    if (M.MaxRelError > 1e-8) {
      std::fprintf(stderr,
                   "fatal: kernel '%s' disagrees with the reference "
                   "(max rel error %.3e)\n",
                   V.VariantName.c_str(), M.MaxRelError);
      std::abort();
    }
  }

  for (int I = 0; I < Cfg.WarmupIterations; ++I)
    M.Kernel->run(X.data(), Y.data());

  // Adaptive timing blocks: each block runs at least MinIterations and at
  // least MinSeconds; the fastest block average is reported.
  M.SecondsPerIteration = std::numeric_limits<double>::infinity();
  for (int B = 0; B < std::max(1, Cfg.TimingBlocks); ++B) {
    int Iterations = 0;
    Timer RunTimer;
    do {
      M.Kernel->run(X.data(), Y.data());
      ++Iterations;
    } while (Iterations < Cfg.MinIterations ||
             RunTimer.seconds() < Cfg.MinSeconds);
    M.SecondsPerIteration =
        std::min(M.SecondsPerIteration, RunTimer.seconds() / Iterations);
  }
  M.Gflops = spmvGflops(A.numNonZeros(), M.SecondsPerIteration);
  return M;
}

Measurement measureBestOf(FormatId F, const CsrMatrix &A,
                          const MeasureConfig &Cfg) {
  Measurement Best;
  bool HaveBest = false;
  for (const KernelVariant &V : variantsOf(F, Cfg.NumThreads)) {
    Measurement M = measureVariant(V, A, Cfg);
    if (!HaveBest || M.SecondsPerIteration < Best.SecondsPerIteration) {
      Best = std::move(M);
      HaveBest = true;
    }
  }
  assert(HaveBest && "every format has at least one variant");
  return Best;
}

} // namespace cvr
