//===- tests/DifferentialFuzzTest.cpp - Cross-format differential fuzz ----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Differential testing: every kernel variant of every format runs the same
// randomized matrices (random shape, density, hub rows, empty rows, empty
// column ranges) with random thread counts, and all results must agree with
// the scalar reference. One seed = one test, so failures bisect trivially.
//
// Before the differential compare, each fuzzed matrix is routed through the
// InvariantChecker. That splits any failure two ways: a structural
// violation names a conversion bug, and a clean structure with a
// mismatching result names a kernel arithmetic or scheduling bug. (The
// kernels read and write only through structure the check vouched for.)
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedKernel.h"
#include "core/CvrSpmm.h"
#include "core/CvrSpmv.h"
#include "formats/FusedEpilogue.h"
#include "formats/Registry.h"
#include "solvers/Solvers.h"

#include "TestUtil.h"
#include "benchlib/SuiteRunner.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace cvr {
namespace {

using test::randomVector;
using test::SpmvTolerance;

CsrMatrix fuzzMatrix(std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  auto Rows = static_cast<std::int32_t>(1 + Rng.nextBounded(600));
  auto Cols = static_cast<std::int32_t>(1 + Rng.nextBounded(600));
  CooMatrix Coo(Rows, Cols);
  // Column window: some matrices use only a slice of the column space
  // (stresses VHCC's panel boundaries).
  auto ColLo = static_cast<std::int32_t>(Rng.nextBounded(Cols));
  auto ColHi = static_cast<std::int32_t>(
      ColLo + 1 + Rng.nextBounded(static_cast<std::uint64_t>(Cols - ColLo)));
  double Density = Rng.nextDouble() * 0.15;
  for (std::int32_t R = 0; R < Rows; ++R) {
    std::uint64_t Kind = Rng.nextBounded(12);
    double RowDensity = Kind == 0 ? 0.0 : (Kind == 1 ? 0.9 : Density);
    for (std::int32_t C = ColLo; C < ColHi; ++C)
      if (Rng.nextDouble() < RowDensity)
        Coo.add(R, C, Rng.nextDouble(-3.0, 3.0));
  }
  return CsrMatrix::fromCoo(Coo);
}

class AllFormatsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AllFormatsFuzz, EveryVariantMatchesReference) {
  std::uint64_t Seed = 777000 + GetParam();
  CsrMatrix A = fuzzMatrix(Seed);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), Seed ^ 0xABCD);
  std::vector<double> Expected = referenceSpmv(A, X);

  // The fuzzed input itself must be a well-formed CSR matrix; anything the
  // formats do wrong downstream is then attributable to them.
  {
    std::vector<analysis::Violation> Vs =
        analysis::InvariantChecker::checkCsr(A);
    ASSERT_TRUE(Vs.empty()) << "fuzz generator produced invalid CSR:\n"
                            << analysis::formatViolations(Vs);
  }

  Xoshiro256 Rng(Seed ^ 0x1234);
  int Threads = static_cast<int>(1 + Rng.nextBounded(5));

  for (FormatId F : allFormats()) {
    for (const KernelVariant &V : analysis::checkedVariantsOf(F, Threads)) {
      std::unique_ptr<SpmvKernel> K = V.Make();
      auto &CK = static_cast<analysis::CheckedKernel &>(*K);
      const std::string Where = V.VariantName + " seed " +
                                std::to_string(Seed) + " threads " +
                                std::to_string(Threads) + " shape " +
                                std::to_string(A.numRows()) + "x" +
                                std::to_string(A.numCols());

      // Conversion attribution: structure must be sound before any run.
      K->prepare(A);
      EXPECT_TRUE(CK.violations().empty())
          << "conversion bug in " << Where << ":\n"
          << analysis::formatViolations(CK.violations());
      CK.clearViolations();

      // Result attribution: the production kernel against the reference.
      std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.5);
      K->run(X.data(), Y.data());
      EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance) << Where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllFormatsFuzz, ::testing::Range(0, 16));

//===----------------------------------------------------------------------===//
// SpMM axis: batched multi-RHS panels across every format. Random column
// counts and over-allocated leading dimensions exercise the register-block
// dispatch (full blocks, half blocks, masked tails) and the strided panel
// addressing; every column must match the scalar reference independently.
//===----------------------------------------------------------------------===//

class SpmmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SpmmFuzz, RunBatchMatchesPerColumnReferenceAcrossFormats) {
  std::uint64_t Seed = 663000 + GetParam();
  CsrMatrix A = fuzzMatrix(Seed);
  const std::size_t Rows = static_cast<std::size_t>(A.numRows());
  const std::size_t Cols = static_cast<std::size_t>(A.numCols());

  Xoshiro256 Rng(Seed ^ 0x5678);
  const int NumVec = static_cast<int>(1 + Rng.nextBounded(12));
  const std::size_t LdX = static_cast<std::size_t>(NumVec) + Rng.nextBounded(4);
  const std::size_t LdY = static_cast<std::size_t>(NumVec) + Rng.nextBounded(4);
  int Threads = static_cast<int>(1 + Rng.nextBounded(5));

  std::vector<double> X = randomVector(Cols * LdX, Seed ^ 0xEF);
  // Per-column scalar reference over the strided panel.
  std::vector<double> Xc(Cols), Yc(Rows);
  std::vector<std::vector<double>> Expected;
  for (int J = 0; J < NumVec; ++J) {
    for (std::size_t I = 0; I < Cols; ++I)
      Xc[I] = X[I * LdX + static_cast<std::size_t>(J)];
    Expected.push_back(referenceSpmv(A, Xc));
  }

  for (FormatId F : allFormats()) {
    std::unique_ptr<SpmvKernel> K = analysis::makeCheckedKernel(F, Threads);
    auto &CK = static_cast<analysis::CheckedKernel &>(*K);
    const std::string Where = std::string(formatName(F)) + " seed " +
                              std::to_string(Seed) + " K " +
                              std::to_string(NumVec) + " ldx " +
                              std::to_string(LdX) + " ldy " +
                              std::to_string(LdY) + " threads " +
                              std::to_string(Threads);

    K->prepare(A);
    ASSERT_TRUE(CK.violations().empty())
        << Where << ":\n" << analysis::formatViolations(CK.violations());

    // Poisoned output panel: padding columns must survive the batch run.
    std::vector<double> Y(Rows * LdY, 0.5);
    Status S = K->runBatch(X.data(), LdX, Y.data(), LdY, NumVec);
    ASSERT_TRUE(S.ok()) << Where << ": " << S.toString();
    EXPECT_TRUE(CK.violations().empty())
        << Where << ":\n" << analysis::formatViolations(CK.violations());

    for (int J = 0; J < NumVec; ++J) {
      for (std::size_t I = 0; I < Rows; ++I)
        Yc[I] = Y[I * LdY + static_cast<std::size_t>(J)];
      EXPECT_LE(maxRelDiff(Expected[static_cast<std::size_t>(J)], Yc),
                SpmvTolerance)
          << Where << " column " << J;
    }
    for (std::size_t I = 0; I < Rows; ++I)
      for (std::size_t P = static_cast<std::size_t>(NumVec); P < LdY; ++P)
        ASSERT_EQ(Y[I * LdY + P], 0.5) << Where << " padding clobbered";
  }
}

TEST_P(SpmmFuzz, RejectsPanelStridesNarrowerThanTheBatch) {
  // Every runBatch path (CSR's, CVR's and the per-column default the
  // other formats take) rejects every malformed panel request.
  std::uint64_t Seed = 664000 + GetParam();
  CsrMatrix A = fuzzMatrix(Seed);
  const std::size_t Rows = static_cast<std::size_t>(A.numRows());
  const std::size_t Cols = static_cast<std::size_t>(A.numCols());
  std::vector<double> X(Cols * 4, 1.0), Y(Rows * 4, 0.0);
  struct BadCall {
    const char *What;
    const double *X;
    std::size_t LdX;
    double *Y;
    std::size_t LdY;
    int NumVectors;
  };
  const BadCall Calls[] = {
      {"short LdX", X.data(), 3, Y.data(), 4, 4},
      {"short LdY", X.data(), 4, Y.data(), 3, 4},
      {"null X", nullptr, 4, Y.data(), 4, 4},
      {"null Y", X.data(), 4, nullptr, 4, 4},
      {"zero vectors", X.data(), 4, Y.data(), 4, 0},
      {"negative vectors", X.data(), 4, Y.data(), 4, -1},
  };

  for (FormatId F : allFormats()) {
    std::unique_ptr<SpmvKernel> K = makeKernel(F, 1);
    K->prepare(A);
    for (const BadCall &C : Calls)
      EXPECT_EQ(K->runBatch(C.X, C.LdX, C.Y, C.LdY, C.NumVectors).code(),
                StatusCode::InvalidArgument)
          << formatName(F) << ": " << C.What;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmmFuzz, ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Fused axis: randomized fused-epilogue runs against a plain reference,
// and fused solvers against independent answers.
//===----------------------------------------------------------------------===//

/// Square fuzz matrix (Dot's x.y term gathers the run input at the output
/// row, so the fused axis only makes sense on square shapes).
CsrMatrix fuzzSquareMatrix(std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  auto N = static_cast<std::int32_t>(1 + Rng.nextBounded(500));
  CooMatrix Coo(N, N);
  double Density = Rng.nextDouble() * 0.12;
  for (std::int32_t R = 0; R < N; ++R) {
    std::uint64_t Kind = Rng.nextBounded(12);
    double RowDensity = Kind == 0 ? 0.0 : (Kind == 1 ? 0.9 : Density);
    for (std::int32_t C = 0; C < N; ++C)
      if (Rng.nextDouble() < RowDensity)
        Coo.add(R, C, Rng.nextDouble(-3.0, 3.0));
  }
  return CsrMatrix::fromCoo(Coo);
}

/// One random epilogue per seed, drawing operands from \p Z / \p B / \p D.
FusedEpilogue fuzzEpilogue(Xoshiro256 &Rng, const std::vector<double> &Z,
                           const std::vector<double> &B,
                           const std::vector<double> &D,
                           std::vector<double> &XNew,
                           std::vector<double> &ROut) {
  switch (Rng.nextBounded(5)) {
  case 0:
    return FusedEpilogue::dot(true, true, Z.data());
  case 1:
    return FusedEpilogue::dampScale(Rng.nextDouble(0.1, 0.95),
                                    Rng.nextDouble(-0.5, 0.5));
  case 2:
    return FusedEpilogue::residualNorm(B.data(), ROut.data());
  case 3:
    return FusedEpilogue::jacobiStep(B.data(), D.data(), Z.data(),
                                     XNew.data());
  default:
    return FusedEpilogue::dampScale(Rng.nextDouble(0.1, 0.95),
                                    Rng.nextDouble(-0.5, 0.5), Z.data());
  }
}

class FusedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FusedFuzz, FusedMatchesUnfusedCompositionUnderCheckedMode) {
  std::uint64_t Seed = 881000 + GetParam();
  CsrMatrix A = fuzzSquareMatrix(Seed);
  const std::size_t N = static_cast<std::size_t>(A.numRows());
  std::vector<double> X = randomVector(N, Seed ^ 0x77);
  std::vector<double> Z = randomVector(N, Seed ^ 0x88);
  std::vector<double> B = randomVector(N, Seed ^ 0x99);
  std::vector<double> D(N);
  for (std::size_t I = 0; I < N; ++I)
    D[I] = 1.0 + static_cast<double>(I % 7); // Nonzero Jacobi diagonal.
  std::vector<double> XNew(N, 0.0), ROut(N, 0.0);

  Xoshiro256 Rng(Seed ^ 0x4321);
  int Threads = static_cast<int>(1 + Rng.nextBounded(5));

  // Reference: scalar SpMV + a plain per-row evaluation of the epilogue.
  FusedEpilogue ERef = fuzzEpilogue(Rng, Z, B, D, XNew, ROut);
  std::vector<double> XNewRef = XNew, ROutRef = ROut;
  ERef.XNew = XNewRef.data();
  ERef.ROut = ERef.ROut ? ROutRef.data() : nullptr;
  std::vector<double> YRef = test::referenceEpilogue(A, X, ERef);

  for (FormatId F : allFormats()) {
    // CheckedKernel layers its own differential fused verification on top
    // of the comparison below (run + sweep vs its checked reference).
    std::unique_ptr<SpmvKernel> K = analysis::makeCheckedKernel(F, Threads);
    auto &CK = static_cast<analysis::CheckedKernel &>(*K);
    const std::string Where = std::string(formatName(F)) + " seed " +
                              std::to_string(Seed) + " threads " +
                              std::to_string(Threads) + " n " +
                              std::to_string(N);

    K->prepare(A);
    ASSERT_TRUE(CK.violations().empty())
        << Where << ":\n" << analysis::formatViolations(CK.violations());

    // Same request as the reference, with this run's own output buffers
    // and fresh accumulators.
    FusedEpilogue E = ERef;
    E.XNew = XNew.data();
    E.ROut = ERef.ROut ? ROut.data() : nullptr;
    E.Acc1 = E.Acc2 = E.Acc3 = 0.0;

    std::vector<double> Y(N, 0.5);
    K->runFused(X.data(), Y.data(), E);
    EXPECT_TRUE(CK.violations().empty())
        << Where << ":\n" << analysis::formatViolations(CK.violations());
    EXPECT_LE(maxRelDiff(YRef, Y), SpmvTolerance) << Where;
    double AccScale = std::max(
        {std::fabs(ERef.Acc1), std::fabs(ERef.Acc2), std::fabs(ERef.Acc3),
         1.0});
    EXPECT_LE(std::fabs(E.Acc1 - ERef.Acc1), 1e-8 * AccScale) << Where;
    EXPECT_LE(std::fabs(E.Acc2 - ERef.Acc2), 1e-8 * AccScale) << Where;
    EXPECT_LE(std::fabs(E.Acc3 - ERef.Acc3), 1e-8 * AccScale) << Where;
    if (E.Op == EpilogueOp::JacobiStep)
      EXPECT_LE(maxRelDiff(XNewRef, XNew), SpmvTolerance) << Where;
    if (E.ROut)
      EXPECT_LE(maxRelDiff(ROutRef, ROut), SpmvTolerance) << Where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedFuzz, ::testing::Range(0, 12));

/// Every solver against an independent answer on randomized SPD systems:
/// conjugateGradient against the textbook referenceConjugateGradient (the
/// paths differ by reassociation plus CG's residual recurrence), BiCGSTAB
/// and Jacobi against the manufactured solution, power iteration against
/// its eigen-residual and PageRank against its stationarity residual, both
/// computed with referenceSpmv. DESIGN.md section 12 documents the bounds.
class FusedTrajectoryFuzz : public ::testing::TestWithParam<int> {};

/// Asserts \p Got matches \p Want within the trajectory agreement bound.
void expectSameTrajectory(const std::vector<double> &Got,
                          const std::vector<double> &Want,
                          const std::string &Where) {
  ASSERT_EQ(Got.size(), Want.size()) << Where;
  for (std::size_t I = 0; I < Got.size(); ++I)
    ASSERT_LE(std::fabs(Got[I] - Want[I]),
              1e-7 * std::max(1.0, std::fabs(Want[I])))
        << Where << " row " << I;
}

TEST_P(FusedTrajectoryFuzz, FusedAndUnfusedSolversAgree) {
  std::uint64_t Seed = 992000 + GetParam();
  Xoshiro256 Rng(Seed);
  // Random SPD diagonally dominant system: symmetric banded + diagonal
  // boost, with a manufactured solution.
  auto NRows = static_cast<std::int32_t>(40 + Rng.nextBounded(400));
  auto Band = static_cast<std::int32_t>(1 + Rng.nextBounded(6));
  CooMatrix Coo(NRows, NRows);
  for (std::int32_t R = 0; R < NRows; ++R) {
    double RowSum = 0.0;
    for (std::int32_t C = std::max(0, R - Band); C < R; ++C) {
      double V = Rng.nextDouble(-1.0, 1.0);
      Coo.add(R, C, V);
      Coo.add(C, R, V); // Symmetric pair.
      RowSum += std::fabs(V);
    }
    Coo.add(R, R, 2.0 * Band + 2.0 + RowSum); // Strict dominance: SPD.
  }
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  std::vector<double> XStar =
      randomVector(static_cast<std::size_t>(NRows), Seed ^ 0xF00D);
  std::vector<double> B = referenceSpmv(A, XStar);
  std::vector<double> Diag(static_cast<std::size_t>(NRows), 0.0);
  for (std::int32_t R = 0; R < NRows; ++R)
    for (std::int64_t I = A.rowPtr()[R]; I < A.rowPtr()[R + 1]; ++I)
      if (A.colIdx()[I] == R)
        Diag[static_cast<std::size_t>(R)] = A.vals()[I];

  // PageRank runs on the same pattern read as a link graph (edge r -> c
  // for each stored (r, c), out-degree-normalized), with every fifth
  // vertex dangling so the leak redistribution is exercised too.
  CooMatrix Links(NRows, NRows);
  for (std::int32_t R = 0; R < NRows; ++R)
    if (R % 5 != 0)
      for (std::int64_t I = A.rowPtr()[R]; I < A.rowPtr()[R + 1]; ++I)
        Links.add(A.colIdx()[I], R,
                  1.0 / static_cast<double>(A.rowLength(R)));
  CsrMatrix M = CsrMatrix::fromCoo(Links);

  int Threads = static_cast<int>(1 + Rng.nextBounded(5));
  for (FormatId F : {FormatId::Mkl, FormatId::Cvr}) {
    std::unique_ptr<SpmvKernel> K = makeKernel(F, Threads);
    K->prepare(A);
    const std::string Where = std::string(formatName(F)) + " seed " +
                              std::to_string(Seed) + " n " +
                              std::to_string(NRows);
    SolverOptions Opts;
    Opts.Tolerance = 1e-11;
    const std::size_t N = static_cast<std::size_t>(NRows);

    {
      const std::string At = Where + " cg";
      std::vector<double> XF(N, 0.0), XR(N, 0.0);
      ASSERT_TRUE(conjugateGradient(*K, B, XF, Opts).Converged) << At;
      ASSERT_TRUE(referenceConjugateGradient(*K, B, XR, Opts).Converged)
          << At;
      expectSameTrajectory(XF, XR, At);
    }
    for (bool UseJacobi : {false, true}) {
      const std::string At = Where + (UseJacobi ? " jacobi" : " bicgstab");
      std::vector<double> X(N, 0.0);
      SolveResult R = UseJacobi ? jacobi(*K, Diag, B, X, Opts)
                                : biCgStab(*K, B, X, Opts);
      ASSERT_TRUE(R.Converged) << At;
      expectSameTrajectory(X, XStar, At);
    }

    // Power iteration until lambda moves less than 1e-12 relative. The
    // Rayleigh quotient's error is quadratic in the eigenvector's, so the
    // eigen-residual ||A v - lambda v|| then sits near sqrt(1e-12) = 1e-6
    // of lambda; a wrong lambda or a badly normalized v misses 1e-5.
    {
      const std::string At = Where + " power";
      SolverOptions PowerOpts;
      PowerOpts.Tolerance = 1e-12;
      PowerOpts.MaxIterations = 20000;
      std::vector<double> V(N, 0.0);
      double Lambda = 0.0;
      ASSERT_TRUE(powerIteration(*K, Lambda, V, PowerOpts).Converged) << At;
      double NormSq = 0.0;
      for (double Vi : V)
        NormSq += Vi * Vi;
      ASSERT_NEAR(NormSq, 1.0, 1e-10) << At;
      std::vector<double> Av = referenceSpmv(A, V);
      double ResSq = 0.0;
      for (std::size_t I = 0; I < N; ++I)
        ResSq += (Av[I] - Lambda * V[I]) * (Av[I] - Lambda * V[I]);
      EXPECT_LE(std::sqrt(ResSq), 1e-5 * std::fabs(Lambda)) << At;
    }

    // PageRank to an L1 step below 1e-11: the ranks are a probability
    // vector that the PageRank map r -> d M r + (1 - d sum(M r)) / n
    // (damped step, then teleport and leak spread evenly; M r through
    // referenceSpmv) leaves in place. The map contracts by d in L1, so its
    // residual at the returned ranks is below 1e-11 plus roundoff.
    {
      const std::string At = Where + " pagerank";
      std::unique_ptr<SpmvKernel> KM = makeKernel(F, Threads);
      KM->prepare(M);
      std::vector<double> Ranks(N, 0.0);
      ASSERT_TRUE(pageRank(*KM, Ranks, 0.85, Opts).Converged) << At;
      double Mass = 0.0;
      for (double Ri : Ranks)
        Mass += Ri;
      ASSERT_NEAR(Mass, 1.0, 1e-9) << At;
      std::vector<double> Step = referenceSpmv(M, Ranks);
      double StepMass = 0.0;
      for (double &Si : Step) {
        Si *= 0.85;
        StepMass += Si;
      }
      const double Refill = (1.0 - StepMass) / static_cast<double>(N);
      double Res = 0.0;
      for (std::size_t I = 0; I < N; ++I)
        Res += std::fabs(Step[I] + Refill - Ranks[I]);
      EXPECT_LE(Res, 1e-9) << At;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedTrajectoryFuzz,
                         ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Compressed-stream axis: every ValueKind x ColIndexKind combination, both
// unblocked and column-blocked, must agree with the scalar reference. Every
// conversion is exact (an explicit f32x64 needs fp32-exact values, so the
// fuzz matrices are rounded to fp32 first), so every kind is held to the
// f64 SpmvTolerance.
//===----------------------------------------------------------------------===//

class CompressedStreamFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CompressedStreamFuzz, EveryKindCombinationMatchesReference) {
  std::uint64_t Seed = 553000 + GetParam();
  CsrMatrix A = roundedToFp32(fuzzMatrix(Seed));
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), Seed ^ 0xC0DE);
  std::vector<double> Expected = referenceSpmv(A, X);

  Xoshiro256 Rng(Seed ^ 0x2468);
  int Threads = static_cast<int>(1 + Rng.nextBounded(5));
  // Over-decomposition composes with the compressed streams: the seeds
  // cycle through 1, 2 and 4 chunks per thread.
  const int Mult = 1 << (GetParam() % 3);
  test::ScopedOmpThreads Team(Threads);

  for (std::int64_t BlockBytes : {std::int64_t(0), std::int64_t(1024)}) {
    for (ValueKind VK : {ValueKind::F64, ValueKind::F32x64}) {
      for (ColIndexKind IK : {ColIndexKind::U32, ColIndexKind::U16Band}) {
        CvrOptions Opts;
        Opts.NumThreads = Threads * Mult;
        Opts.ColBlockBytes = BlockBytes;
        Opts.Values = VK;
        Opts.Indices = IK;
        StatusOr<CvrMatrix> M = CvrMatrix::tryFromCsr(A, Opts);
        const std::string Where =
            "seed " + std::to_string(Seed) + " mult " + std::to_string(Mult) +
            " block " + std::to_string(BlockBytes) + " vk " +
            std::to_string(static_cast<int>(VK)) + " ik " +
            std::to_string(static_cast<int>(IK));
        ASSERT_TRUE(M.ok()) << Where << ": " << M.status().toString();
        ASSERT_TRUE(test::structureClean(*M)) << Where;

        // Every fuzz shape is far below the u16 band ceiling and holds
        // fp32-exact values, so each kind is stored as asked.
        EXPECT_EQ(M->colIndexKind(), IK) << Where;
        EXPECT_EQ(M->valueKind(), VK) << Where;
        if (IK == ColIndexKind::U16Band) {
          EXPECT_EQ(M->colIdx(), nullptr) << Where;
        }
        if (VK == ValueKind::F32x64) {
          EXPECT_EQ(M->vals(), nullptr) << Where;
        }

        // Structural sweep: the invariant checker decodes the compressed
        // streams through the same accessors the kernels use.
        std::vector<analysis::Violation> Vs =
            analysis::InvariantChecker::checkCvr(*M);
        EXPECT_TRUE(Vs.empty())
            << Where << ":\n" << analysis::formatViolations(Vs);

        for (int Pf : {0, 4}) {
          std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.5);
          cvrSpmv(*M, X.data(), Y.data(), Pf);
          EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance)
              << Where << " pf " << Pf;
        }

        // Fused path through CvrKernel (cvrSpmv plus the epilogue sweep), at
        // the same prefetch distances as the plain path.
        std::vector<double> Z =
            randomVector(static_cast<std::size_t>(A.numRows()), Seed ^ 0x33);
        double ZDotY = 0.0, ZDotYAbs = 0.0;
        for (std::size_t I = 0; I < Z.size(); ++I) {
          ZDotY += Z[I] * Expected[I];
          ZDotYAbs += std::abs(Z[I] * Expected[I]);
        }
        // x.y gathers x at output rows, so it needs a square matrix.
        const bool Square = A.numRows() == A.numCols();
        for (int Pf : {0, 4}) {
          CvrOptions KOpts = Opts;
          KOpts.PrefetchDistance = Pf;
          CvrKernel Kern(KOpts);
          ASSERT_TRUE(Kern.prepareStatus(A).ok()) << Where;
          FusedEpilogue E = FusedEpilogue::dot(Square, false, Z.data());
          std::vector<double> YF(static_cast<std::size_t>(A.numRows()), 0.5);
          Kern.runFused(X.data(), YF.data(), E);
          EXPECT_LE(maxRelDiff(Expected, YF), SpmvTolerance)
              << Where << " fused pf " << Pf;
          EXPECT_LE(std::abs(E.Acc3 - ZDotY),
                    SpmvTolerance * (1.0 + ZDotYAbs))
              << Where << " fused pf " << Pf;
        }

        // Batched SpMM (compressed streams compose it from per-column SpMV)
        // on a K=5 panel whose padded leading dimension leaves three junk
        // columns per row.
        const int K = 5;
        const std::size_t Ld = 8;
        const std::size_t NC = static_cast<std::size_t>(A.numCols());
        const std::size_t NR = static_cast<std::size_t>(A.numRows());
        std::vector<double> XP = randomVector(NC * Ld, Seed ^ 0x5A5A);
        std::vector<std::vector<double>> Ref(K);
        for (int J = 0; J < K; ++J) {
          std::vector<double> Xc(NC);
          for (std::size_t I = 0; I < NC; ++I)
            Xc[I] = XP[I * Ld + static_cast<std::size_t>(J)];
          Ref[J] = referenceSpmv(A, Xc);
        }
        auto ExpectPanel = [&](const std::vector<double> &YP,
                               const char *What) {
          std::vector<double> Yc(NR);
          for (int J = 0; J < K; ++J) {
            for (std::size_t I = 0; I < NR; ++I)
              Yc[I] = YP[I * Ld + static_cast<std::size_t>(J)];
            EXPECT_LE(maxRelDiff(Ref[J], Yc), SpmvTolerance)
                << Where << " " << What << " column " << J;
          }
        };
        std::vector<double> YP(NR * Ld, 0.5);
        ASSERT_TRUE(cvrSpmm(*M, XP.data(), Ld, YP.data(), Ld, K).ok())
            << Where;
        ExpectPanel(YP, "spmm");

        // Serialization: both layouts round-trip the compressed streams.
        std::ostringstream OS;
        ASSERT_TRUE(M->writeBlob(OS).ok()) << Where;
        std::istringstream IS(OS.str());
        StatusOr<CvrMatrix> R = CvrMatrix::readBlob(IS);
        ASSERT_TRUE(R.ok()) << Where << ": " << R.status().toString();
        EXPECT_EQ(R->valueKind(), M->valueKind()) << Where;
        EXPECT_EQ(R->colIndexKind(), M->colIndexKind()) << Where;
        std::vector<double> YR(static_cast<std::size_t>(A.numRows()), 0.5);
        cvrSpmv(*R, X.data(), YR.data());
        EXPECT_LE(maxRelDiff(Expected, YR), SpmvTolerance) << Where;
      }
    }
  }
}

TEST_P(CompressedStreamFuzz, WideBandFallsBackToU32Checked) {
  // A band wider than 65536 columns cannot express its deltas in u16: the
  // default conversion keeps u32 and stays correct, and an explicit
  // U16Band request is refused rather than silently widened.
  std::uint64_t Seed = 554000 + GetParam();
  Xoshiro256 Rng(Seed);
  const std::int32_t Rows = 48;
  const std::int32_t Cols = 70000; // > 65536: unblocked width overflows u16.
  CooMatrix Coo(Rows, Cols);
  for (std::int32_t R = 0; R < Rows; ++R)
    for (int K = 0; K < 40; ++K)
      Coo.add(R, static_cast<std::int32_t>(Rng.nextBounded(Cols)),
              Rng.nextDouble(-2.0, 2.0));
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(Cols), Seed ^ 0xFA11);
  std::vector<double> Expected = referenceSpmv(A, X);

  CvrOptions Opts;
  Opts.NumThreads = 2;
  StatusOr<CvrMatrix> Wide = CvrMatrix::tryFromCsr(A, Opts);
  ASSERT_TRUE(Wide.ok()) << Wide.status().toString();
  EXPECT_EQ(Wide->colIndexKind(), ColIndexKind::U32);
  std::vector<double> Y(static_cast<std::size_t>(Rows), 0.5);
  cvrSpmv(*Wide, X.data(), Y.data());
  EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance);

  Opts.Indices = ColIndexKind::U16Band;
  StatusOr<CvrMatrix> Refused = CvrMatrix::tryFromCsr(A, Opts);
  ASSERT_FALSE(Refused.ok());
  EXPECT_EQ(Refused.status().code(), StatusCode::InvalidArgument);

  // The same matrix under column blocking has narrow bands, so the same
  // request is honoured.
  Opts.ColBlockBytes = 64 * 1024; // 8192-column bands.
  StatusOr<CvrMatrix> Banded = CvrMatrix::tryFromCsr(A, Opts);
  ASSERT_TRUE(Banded.ok()) << Banded.status().toString();
  EXPECT_EQ(Banded->colIndexKind(), ColIndexKind::U16Band);
  std::vector<double> Yb(static_cast<std::size_t>(Rows), 0.5);
  cvrSpmv(*Banded, X.data(), Yb.data());
  EXPECT_LE(maxRelDiff(Expected, Yb), SpmvTolerance);
}

TEST_P(CompressedStreamFuzz, MaskedWriteBackEdgeShapesEveryKind) {
  // The write-back edge shapes of TestUtil.h under every stream kind
  // combination: the narrow loads change what feeds the FMA, never which
  // lanes finish, so the masked write-back must still match the
  // references.
  std::uint64_t Seed = 555000 + GetParam();
  const int Shape = GetParam() % 4;
  const int Threads = 1 + GetParam() / 4 + (Shape == 3 ? 1 : 0);
  CsrMatrix A =
      roundedToFp32(test::writeBackEdgeMatrix(Shape, Threads, Seed));
  for (ValueKind VK : {ValueKind::F64, ValueKind::F32x64})
    for (ColIndexKind IK : {ColIndexKind::U32, ColIndexKind::U16Band}) {
      CvrOptions Opts;
      Opts.NumThreads = Threads;
      Opts.Values = VK;
      Opts.Indices = IK;
      test::expectWriteBackMatchesReference(
          A, Opts, SpmvTolerance,
          "shape " + std::to_string(Shape) + " seed " +
              std::to_string(Seed) + " vk " +
              std::to_string(static_cast<int>(VK)) + " ik " +
              std::to_string(static_cast<int>(IK)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedStreamFuzz, ::testing::Range(0, 8));

} // namespace
} // namespace cvr
