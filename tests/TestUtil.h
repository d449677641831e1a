//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef CVR_TESTS_TESTUTIL_H
#define CVR_TESTS_TESTUTIL_H

#include "core/CvrSpmv.h"
#include "formats/FusedEpilogue.h"
#include "matrix/Coo.h"
#include "matrix/Csr.h"
#include "matrix/Reference.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <omp.h>
#include <unistd.h>

namespace cvr {
namespace test {

/// Deterministic random dense vector in [-1, 1].
inline std::vector<double> randomVector(std::size_t N, std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = Rng.nextDouble(-1.0, 1.0);
  return V;
}

/// Random COO matrix with ~Density fraction of entries present.
inline CsrMatrix randomCsr(std::int32_t Rows, std::int32_t Cols,
                           double Density, std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  CooMatrix Coo(Rows, Cols);
  for (std::int32_t R = 0; R < Rows; ++R)
    for (std::int32_t C = 0; C < Cols; ++C)
      if (Rng.nextDouble() < Density)
        Coo.add(R, C, Rng.nextDouble(-1.0, 1.0));
  return CsrMatrix::fromCoo(Coo);
}

/// Sets the OpenMP thread count for one scope. The CVR kernel runs
/// min(omp_get_max_threads(), chunks) threads, so this is how a test runs
/// a many-chunk matrix over fewer threads.
class ScopedOmpThreads {
public:
  explicit ScopedOmpThreads(int N) : Saved(omp_get_max_threads()) {
    omp_set_num_threads(N);
  }
  ~ScopedOmpThreads() { omp_set_num_threads(Saved); }
  ScopedOmpThreads(const ScopedOmpThreads &) = delete;
  ScopedOmpThreads &operator=(const ScopedOmpThreads &) = delete;

private:
  int Saved;
};

/// Tolerance for comparing SpMV results; reassociation across lanes and
/// threads perturbs the last few bits, scaled by row length.
inline constexpr double SpmvTolerance = 1e-10;

/// Success when CvrMatrix::checkStructure, the walk conversion, the blob
/// decoder and the invariant checker share, reports nothing; the
/// violations otherwise.
inline ::testing::AssertionResult structureClean(const CvrMatrix &M) {
  std::vector<Violation> Vs;
  M.checkStructure(Vs, 64);
  if (Vs.empty())
    return ::testing::AssertionSuccess();
  ::testing::AssertionResult Failure = ::testing::AssertionFailure();
  for (const Violation &V : Vs)
    Failure << V.toString() << '\n';
  return Failure;
}

/// y = A x with the epilogue \p E applied, evaluated plainly: referenceSpmv,
/// then the op table of formats/FusedEpilogue.h one row at a time in index
/// order, every accumulator a single running sum. Zeroes E's accumulators
/// first and writes its side outputs (XNew, ROut). The reference the
/// epilogue sweep is checked against: it shares no code with it.
inline std::vector<double> referenceEpilogue(const CsrMatrix &A,
                                             const std::vector<double> &X,
                                             FusedEpilogue &E) {
  std::vector<double> Y = referenceSpmv(A, X);
  double A1 = 0.0, A2 = 0.0, A3 = 0.0;
  for (std::size_t R = 0; R < Y.size(); ++R) {
    const double V = Y[R];
    switch (E.Op) {
    case EpilogueOp::None:
      break;
    case EpilogueOp::Dot:
      if (E.WantXDotY)
        A1 += X[R] * V;
      if (E.WantYDotY)
        A2 += V * V;
      if (E.Z)
        A3 += E.Z[R] * V;
      break;
    case EpilogueOp::Axpby:
      Y[R] = E.Alpha * V + E.Beta * E.Z[R];
      if (E.WantYDotY)
        A1 += Y[R] * Y[R];
      break;
    case EpilogueOp::ResidualNorm:
      A1 += (E.B[R] - V) * (E.B[R] - V);
      if (E.ROut)
        E.ROut[R] = E.B[R] - V;
      break;
    case EpilogueOp::JacobiStep:
      E.XNew[R] = E.Xold[R] + (E.B[R] - V) / E.D[R];
      A1 = std::max(A1, std::fabs(E.XNew[R] - E.Xold[R]));
      break;
    case EpilogueOp::DampScale:
      Y[R] = E.Damp * V + E.Add;
      A1 += Y[R];
      if (E.Prev)
        A2 += std::fabs(Y[R] - E.Prev[R]);
      break;
    }
  }
  E.Acc1 = A1;
  E.Acc2 = A2;
  E.Acc3 = A3;
  return Y;
}

/// Square matrices shaped to stress the 8-lane kernel's masked write-back,
/// one shape per \p Shape in [0, 4). \p Threads is the chunk count the
/// caller converts with; shapes 0 and 2 size themselves so their property
/// holds in every chunk.
///  0: record-saturated. One nonzero per row and 140 steps per chunk, so
///     every lane finishes at every step and the second 64-step staging
///     block is full.
///  1: rows of 62-66 nonzeros, so records straddle the 64-step block
///     boundary.
///  2: eight rows of one even length per chunk, so every record trails the
///     last step.
///  3: three long rows over a background of 0-3 nonzeros per row, split
///     across chunks (shared rows and steal records).
inline CsrMatrix writeBackEdgeMatrix(int Shape, int Threads,
                                     std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::int32_t N = 300;
  std::vector<std::int32_t> Len;
  switch (Shape) {
  case 0:
    N = Threads * 8 * 140;
    Len.assign(static_cast<std::size_t>(N), 1);
    break;
  case 1:
    N = 240;
    for (std::int32_t R = 0; R < N; ++R)
      Len.push_back(62 + static_cast<std::int32_t>(Rng.nextBounded(5)));
    break;
  case 2:
    N = 8 * Threads;
    Len.assign(static_cast<std::size_t>(N),
               2 * (1 + static_cast<std::int32_t>(Rng.nextBounded(
                            static_cast<std::uint64_t>(N / 2)))));
    break;
  default:
    for (std::int32_t R = 0; R < N; ++R)
      Len.push_back(static_cast<std::int32_t>(Rng.nextBounded(4)));
    Len[0] = Len[150] = Len[299] = 280;
    break;
  }
  CooMatrix Coo(N, N);
  for (std::int32_t R = 0; R < N; ++R) {
    auto Start = static_cast<std::int32_t>(Rng.nextBounded(N));
    for (std::int32_t K = 0; K < Len[static_cast<std::size_t>(R)]; ++K)
      Coo.add(R, (Start + K) % N, Rng.nextDouble(-2.0, 2.0));
  }
  return CsrMatrix::fromCoo(Coo);
}

/// Runs square \p A through the CVR kernel under both write-back policies,
/// Store and Accumulate (column-blocked into about three bands), and
/// through CvrKernel::runFused (Dot, ResidualNorm, JacobiStep), at
/// prefetch distances 0/2/4/8. The plain product must match referenceSpmv
/// within \p RefTol, and each fused op's y, output vector and accumulators
/// must match referenceEpilogue within \p RefTol.
inline void expectWriteBackMatchesReference(const CsrMatrix &A,
                                            CvrOptions Opts, double RefTol,
                                            const std::string &Where) {
  const auto N = static_cast<std::size_t>(A.numRows());
  const std::vector<double> X = randomVector(N, 11);
  const std::vector<double> B = randomVector(N, 12);
  const std::vector<double> Z = randomVector(N, 13);
  std::vector<double> D = randomVector(N, 14);
  for (double &V : D)
    V += V < 0.0 ? -2.0 : 2.0; // Jacobi divides by it.
  const std::vector<double> Ref = referenceSpmv(A, X);

  // The fused ops: index 0 runs in the kernel, index 1 is referenceEpilogue.
  auto MakeOp = [&](EpilogueOp Op, double *Out) {
    return Op == EpilogueOp::Dot
               ? FusedEpilogue::dot(true, true, Z.data())
           : Op == EpilogueOp::ResidualNorm
               ? FusedEpilogue::residualNorm(B.data(), Out)
               : FusedEpilogue::jacobiStep(B.data(), D.data(), Z.data(), Out);
  };

  for (std::int64_t Block : {std::int64_t(0), std::int64_t(A.numCols()) * 3}) {
    Opts.ColBlockBytes = Block;
    const CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
    ASSERT_TRUE(structureClean(M)) << Where;

    for (int Pf : {0, 2, 4, 8}) {
      const std::string At = Where + " block " + std::to_string(Block) +
                             " pf " + std::to_string(Pf);
      std::vector<double> Y(N, 0.5);
      cvrSpmv(M, X.data(), Y.data(), Pf);
      EXPECT_LE(maxRelDiff(Ref, Y), RefTol) << At;

      CvrOptions KOpts = Opts;
      KOpts.PrefetchDistance = Pf;
      CvrKernel K(KOpts);
      K.prepare(A);
      for (EpilogueOp Op : {EpilogueOp::Dot, EpilogueOp::ResidualNorm,
                            EpilogueOp::JacobiStep}) {
        std::vector<double> Out[2] = {std::vector<double>(N, 0.0),
                                      std::vector<double>(N, 0.0)};
        std::vector<double> Yf[2] = {std::vector<double>(N, 0.5), {}};
        FusedEpilogue E[2] = {MakeOp(Op, Out[0].data()),
                              MakeOp(Op, Out[1].data())};
        K.runFused(X.data(), Yf[0].data(), E[0]);
        Yf[1] = referenceEpilogue(A, X, E[1]);
        const std::string OpAt =
            At + " fused op " + std::to_string(static_cast<int>(Op));
        EXPECT_LE(maxRelDiff(Yf[1], Yf[0]), RefTol) << OpAt;
        EXPECT_LE(maxRelDiff(Out[1], Out[0]), RefTol) << OpAt;
        for (double FusedEpilogue::*Acc :
             {&FusedEpilogue::Acc1, &FusedEpilogue::Acc2,
              &FusedEpilogue::Acc3})
          EXPECT_LE(maxRelDiff({E[1].*Acc}, {E[0].*Acc}), RefTol) << OpAt;
      }
    }
  }
}

/// A file path no other test process shares: under ::testing::TempDir(),
/// named after the running test and the process id. ctest runs every case
/// as its own process, in parallel, so a fixed name would let one case
/// rewrite a file another has mapped.
inline std::string uniqueTempPath(const std::string &Suffix) {
  const ::testing::TestInfo *T =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Name = std::string(T->test_suite_name()) + "." + T->name();
  std::replace(Name.begin(), Name.end(), '/', '_');
  std::string Dir = ::testing::TempDir();
  if (!Dir.empty() && Dir.back() != '/')
    Dir += '/';
  return Dir + Name + "." + std::to_string(::getpid()) + Suffix;
}

/// Binary-wide heap-allocation counters, ticked by the global operator
/// new replacement in SolversTest.cpp. Allocation audits read them before
/// and after the code under measurement.
std::size_t globalAllocCount();
std::size_t globalAllocBytes();

} // namespace test
} // namespace cvr

#endif // CVR_TESTS_TESTUTIL_H
