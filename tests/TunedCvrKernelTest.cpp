//===- tests/TunedCvrKernelTest.cpp - CvrKernel under non-default knobs ---===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A CvrKernel built with tuning knobs off their defaults — over-decomposed
// chunks (more chunks than OpenMP threads), x-vector column blocking (ColBlockBytes) and
// software prefetch (PrefetchDistance) — must realize the conversion it was
// asked for and compute the same answer as the scalar reference, on both
// the single-vector and the batched path.
//
//===----------------------------------------------------------------------===//

#include "core/Cvr.h"

#include "TestUtil.h"
#include "matrix/Reference.h"

#include <gtest/gtest.h>

namespace cvr {
namespace {

using test::randomCsr;
using test::randomVector;
using test::SpmvTolerance;

TEST(TunedCvrKernel, RunBatchServesUnderTheSpmvPlan) {
  CsrMatrix A = randomCsr(220, 220, 0.05, 41);
  const int NumVec = 8;
  const std::size_t Ld = NumVec;
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()) * Ld, 0xBEEF);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()) * Ld, -2.0);

  CvrOptions Opts;
  Opts.NumThreads = 4; // Two chunks per thread.
  Opts.ColBlockBytes = 512;
  Opts.PrefetchDistance = 4;
  test::ScopedOmpThreads Team(2);
  CvrKernel K(Opts);
  K.prepare(A);
  ASSERT_TRUE(K.runBatch(X.data(), Ld, Y.data(), Ld, NumVec).ok());

  std::vector<double> Xc(static_cast<std::size_t>(A.numCols()));
  std::vector<double> Yc(static_cast<std::size_t>(A.numRows()));
  for (int J = 0; J < NumVec; ++J) {
    for (std::size_t I = 0; I < Xc.size(); ++I)
      Xc[I] = X[I * Ld + static_cast<std::size_t>(J)];
    std::vector<double> Ref = referenceSpmv(A, Xc);
    for (std::size_t I = 0; I < Yc.size(); ++I)
      Yc[I] = Y[I * Ld + static_cast<std::size_t>(J)];
    EXPECT_LE(maxRelDiff(Ref, Yc), SpmvTolerance) << "column " << J;
  }
}

TEST(TunedCvrKernel, MatchesReferenceOnVariedStructures) {
  test::ScopedOmpThreads Team(3);
  for (std::uint64_t Seed : {3u, 17u, 99u}) {
    CsrMatrix A = randomCsr(250, 400, 0.04, Seed);
    std::vector<double> X = randomVector(A.numCols(), Seed ^ 0xF0);
    std::vector<double> Ref = referenceSpmv(A, X);

    for (int Mult : {1, 2, 4}) {
      for (std::int64_t Block : {std::int64_t(0), std::int64_t(1024)}) {
        for (int Pf : {0, 4}) {
          CvrOptions Opts;
          Opts.NumThreads = 3 * Mult; // Mult chunks per thread.
          Opts.ColBlockBytes = Block;
          Opts.PrefetchDistance = Pf;
          CvrKernel K(Opts);
          K.prepare(A);
          const std::string Where = "seed " + std::to_string(Seed) +
                                    " mult " + std::to_string(Mult) +
                                    " block " + std::to_string(Block) +
                                    " pf " + std::to_string(Pf);
          // The prepared matrix must realize the requested conversion.
          const CvrMatrix &M = K.cvrMatrix();
          EXPECT_EQ(M.numChunks(),
                    3 * Mult * std::max<int>(1, M.bands().size()))
              << Where;
          EXPECT_EQ(M.isBlocked(), Block > 0) << Where;

          std::vector<double> Y(static_cast<std::size_t>(A.numRows()), -2.0);
          K.run(X.data(), Y.data());
          EXPECT_LE(maxRelDiff(Ref, Y), SpmvTolerance) << Where;
        }
      }
    }
  }
}

} // namespace
} // namespace cvr
