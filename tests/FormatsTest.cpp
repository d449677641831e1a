//===- tests/FormatsTest.cpp - Correctness of all baseline formats --------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Every kernel variant (MKL CSR, the three CSR(I) schedules, the three ESB
// sorting policies, each VHCC panel count, CSR5, CVR) is property-checked
// against the scalar reference across a grid of matrix structures and
// thread counts.
//
//===----------------------------------------------------------------------===//

#include "formats/Registry.h"

#include "TestUtil.h"
#include "formats/Csr5.h"
#include "formats/Esb.h"
#include "formats/Vhcc.h"
#include "gen/Generators.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"

#include <gtest/gtest.h>

namespace cvr {
namespace {

using test::randomVector;
using test::SpmvTolerance;

struct FormatCase {
  FormatId Format;
  int Threads;
  const char *MatrixName;
  std::function<CsrMatrix()> Build;
};

std::string caseName(const ::testing::TestParamInfo<FormatCase> &Info) {
  std::string N = formatName(Info.param.Format);
  for (char &C : N)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return N + "_t" + std::to_string(Info.param.Threads) + "_" +
         Info.param.MatrixName;
}

class AllVariantsCorrectness : public ::testing::TestWithParam<FormatCase> {};

TEST_P(AllVariantsCorrectness, MatchesReference) {
  const FormatCase &P = GetParam();
  CsrMatrix A = P.Build();
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 1234);
  std::vector<double> Expected = referenceSpmv(A, X);

  for (const KernelVariant &V : variantsOf(P.Format, P.Threads)) {
    std::unique_ptr<SpmvKernel> K = V.Make();
    K->prepare(A);
    std::vector<double> Y(static_cast<std::size_t>(A.numRows()), -3.25);
    K->run(X.data(), Y.data());
    EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance)
        << V.VariantName << " on " << P.MatrixName << " with " << P.Threads
        << " threads";
    // Kernels must be rerunnable (iterative solvers call run() repeatedly).
    K->run(X.data(), Y.data());
    EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance)
        << V.VariantName << " second run diverged";
  }
}

std::vector<FormatCase> makeCases() {
  struct MatrixDef {
    const char *Name;
    std::function<CsrMatrix()> Build;
  };
  const MatrixDef Matrices[] = {
      {"rmat", [] { return genRmat(9, 8, 21); }},
      {"powerlaw", [] { return genPowerLaw(500, 500, 4.0, 1.3, 22); }},
      {"shortfat", [] { return genShortFat(7, 1500, 200, 23); }},
      {"road", [] { return genRoadLattice(20, 1.4, 24); }},
      {"stencil", [] { return genStencil9(20, 20); }},
      {"denseblocks", [] { return genDenseBlocks(3, 32, 0.9, 25); }},
      {"emptyrows",
       [] {
         CooMatrix Coo(40, 40);
         for (std::int32_t R = 0; R < 40; R += 4)
           for (std::int32_t C = 1; C < 40; C += 3)
             Coo.add(R, C, 0.5 * R - 0.1 * C);
         return CsrMatrix::fromCoo(Coo);
       }},
      {"tiny",
       [] {
         CooMatrix Coo(3, 2);
         Coo.add(0, 1, 2.0);
         Coo.add(2, 0, -1.0);
         return CsrMatrix::fromCoo(Coo);
       }},
  };

  std::vector<FormatCase> Cases;
  for (FormatId F : allFormats())
    for (int Threads : {1, 3})
      for (const MatrixDef &M : Matrices)
        Cases.push_back({F, Threads, M.Name, M.Build});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, AllVariantsCorrectness,
                         ::testing::ValuesIn(makeCases()), caseName);

// --- Format-specific behaviours -----------------------------------------

TEST(Esb, PaddingRatioReflectsIrregularity) {
  // A skewed matrix pads heavily without sorting and much less with global
  // sorting — the mechanism behind ESB's poor scale-free performance.
  CsrMatrix Skewed = genPowerLaw(800, 800, 4.0, 1.5, 77);
  Esb NoSort(EsbSort::NoSort, 1);
  NoSort.prepare(Skewed);
  Esb Global(EsbSort::Global, 1);
  Global.prepare(Skewed);
  EXPECT_GE(NoSort.paddingRatio(), Global.paddingRatio());
  EXPECT_GT(NoSort.paddingRatio(), 1.5);
}

TEST(Esb, NoPaddingForConstantRows) {
  CsrMatrix Uniform = genStencil5(30, 30);
  Esb K(EsbSort::NoSort, 1);
  K.prepare(Uniform);
  // 5-point stencil rows vary only at the grid border.
  EXPECT_LT(K.paddingRatio(), 1.2);
}

TEST(Csr5, SigmaHeuristicTracksDensity) {
  Csr5 Sparse(0, 1);
  Sparse.prepare(genRoadLattice(30, 1.5, 5));
  Csr5 Dense(0, 1);
  Dense.prepare(genDenseBlocks(2, 64, 0.95, 6));
  EXPECT_LT(Sparse.sigma(), Dense.sigma());
}

TEST(Csr5, ExplicitSigmaRoundTrips) {
  CsrMatrix A = genRmat(9, 10, 31);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 8);
  std::vector<double> Expected = referenceSpmv(A, X);
  for (int Sigma : {4, 8, 16, 32, 64}) {
    Csr5 K(Sigma, 2);
    K.prepare(A);
    std::vector<double> Y(static_cast<std::size_t>(A.numRows()));
    K.run(X.data(), Y.data());
    EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance) << "sigma " << Sigma;
  }
}

TEST(Vhcc, PanelSweepAllCorrect) {
  CsrMatrix A = genShortFat(11, 4000, 500, 17);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 9);
  std::vector<double> Expected = referenceSpmv(A, X);
  for (int P : Vhcc::panelSweep()) {
    Vhcc K(P, 2);
    K.prepare(A);
    std::vector<double> Y(static_cast<std::size_t>(A.numRows()));
    K.run(X.data(), Y.data());
    EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance) << "panels " << P;
  }
}

TEST(Vhcc, MorePanelsThanColumns) {
  CsrMatrix A = test::randomCsr(60, 3, 0.5, 41);
  Vhcc K(16, 2);
  K.prepare(A);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 10);
  std::vector<double> Expected = referenceSpmv(A, X);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()));
  K.run(X.data(), Y.data());
  EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance);
}

TEST(Registry, NamesAndVariantCounts) {
  EXPECT_EQ(allFormats().size(), 6u);
  EXPECT_EQ(variantsOf(FormatId::Mkl).size(), 1u);
  EXPECT_EQ(variantsOf(FormatId::CsrI).size(), 3u);
  EXPECT_EQ(variantsOf(FormatId::Esb).size(), 3u);
  EXPECT_EQ(variantsOf(FormatId::Vhcc).size(), Vhcc::panelSweep().size());
  EXPECT_EQ(variantsOf(FormatId::Csr5).size(), 1u);
  // One CVR variant: the default conversion, the paper's fixed plan.
  EXPECT_EQ(variantsOf(FormatId::Cvr).size(), 1u);
  EXPECT_EQ(variantsOf(FormatId::Cvr)[0].VariantName, "CVR");
  EXPECT_STREQ(formatName(FormatId::Cvr), "CVR");
}

TEST(Registry, MakeKernelProducesWorkingKernels) {
  CsrMatrix A = genStencil5(12, 12);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 3);
  std::vector<double> Expected = referenceSpmv(A, X);
  for (FormatId F : allFormats()) {
    std::unique_ptr<SpmvKernel> K = makeKernel(F, 2);
    K->prepare(A);
    std::vector<double> Y(static_cast<std::size_t>(A.numRows()));
    K->run(X.data(), Y.data());
    EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance) << formatName(F);
  }
}

} // namespace
} // namespace cvr
