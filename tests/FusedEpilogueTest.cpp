//===- tests/FusedEpilogueTest.cpp - Fused epilogue path tests ------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Two layers of coverage for the fused-epilogue execution path:
//
//  1. Semantics: every epilogue op and optional term, through every
//     format's runFused (run() followed by the epilogue sweep), must match
//     referenceEpilogue: referenceSpmv plus a plain per-row evaluation of
//     the op table.
//  2. Determinism and checking: the serial traceRunFused replay must
//     reproduce the parallel runFused results bit for bit for a fixed
//     configuration, the checked mode's differential fused verification
//     must come up clean on a correct kernel, and it must name the row a
//     faulty runFused() got wrong.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedKernel.h"
#include "core/Cvr.h"
#include "formats/CsrSpmv.h"
#include "formats/FusedEpilogue.h"
#include "formats/Registry.h"
#include "gen/Generators.h"
#include "matrix/Reference.h"
#include "support/MemSink.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace cvr {
namespace {

using test::randomVector;

/// Relative agreement bound between a fused kernel result and the plain
/// reference. The sweep only reassociates the reductions, so the bound is
/// a few ULPs scaled by accumulator magnitude (DESIGN.md section 12).
constexpr double FusedTol = 1e-10;

void expectClose(double A, double B, const std::string &Where) {
  double Scale = std::max({std::fabs(A), std::fabs(B), 1.0});
  EXPECT_LE(std::fabs(A - B), FusedTol * Scale) << Where << ": " << A
                                                << " vs " << B;
}

void expectVectorsClose(const std::vector<double> &A,
                        const std::vector<double> &B,
                        const std::string &Where) {
  ASSERT_EQ(A.size(), B.size()) << Where;
  for (std::size_t I = 0; I < A.size(); ++I) {
    double Scale = std::max({std::fabs(A[I]), std::fabs(B[I]), 1.0});
    ASSERT_LE(std::fabs(A[I] - B[I]), FusedTol * Scale)
        << Where << " at row " << I;
  }
}

/// The operand set every epilogue op draws from, sized for one matrix.
struct Operands {
  std::vector<double> X, Z, B, D, Xold;

  explicit Operands(std::size_t N)
      : X(randomVector(N, 11)), Z(randomVector(N, 22)),
        B(randomVector(N, 33)), D(N), Xold(randomVector(N, 44)) {
    for (std::size_t I = 0; I < N; ++I)
      D[I] = 2.0 + static_cast<double>(I % 5); // Nonzero Jacobi diagonal.
  }
};

/// Every epilogue op, each optional term both on and off, rebuilt fresh per
/// check (the kernel zeroes the accumulators and may write through XNew /
/// ROut).
std::vector<std::pair<std::string, FusedEpilogue>>
allEpilogues(const Operands &Ops, std::vector<double> &XNew,
             std::vector<double> &ROut) {
  std::vector<std::pair<std::string, FusedEpilogue>> Es;
  Es.emplace_back("dot(x.y,y.y,z.y)",
                  FusedEpilogue::dot(true, true, Ops.Z.data()));
  Es.emplace_back("dot(y.y)", FusedEpilogue::dot(false, true));
  Es.emplace_back("dot(z.y)", FusedEpilogue::dot(false, false, Ops.Z.data()));
  Es.emplace_back("dot(x.y)", FusedEpilogue::dot(true, false));
  Es.emplace_back("residualNorm",
                  FusedEpilogue::residualNorm(Ops.B.data(), ROut.data()));
  Es.emplace_back("residualNorm(no r)",
                  FusedEpilogue::residualNorm(Ops.B.data()));
  Es.emplace_back("jacobiStep",
                  FusedEpilogue::jacobiStep(Ops.B.data(), Ops.D.data(),
                                            Ops.Xold.data(), XNew.data()));
  Es.emplace_back("dampScale",
                  FusedEpilogue::dampScale(0.85, 0.01, Ops.Xold.data()));
  Es.emplace_back("dampScale(no prev)", FusedEpilogue::dampScale(0.85, 0.01));
  Es.emplace_back("none", FusedEpilogue{});
  return Es;
}

/// One kernel's runFused against referenceEpilogue, every op.
void checkKernelAllOps(SpmvKernel &K, const CsrMatrix &A,
                       const std::string &Name) {
  const std::size_t N = static_cast<std::size_t>(A.numRows());
  Operands Ops(N);

  std::vector<double> XNewFused(N, 0.0), ROutFused(N, 0.0);
  std::vector<double> XNewRef(N, 0.0), ROutRef(N, 0.0);
  auto Fused = allEpilogues(Ops, XNewFused, ROutFused);
  auto Ref = allEpilogues(Ops, XNewRef, ROutRef);

  for (std::size_t I = 0; I < Fused.size(); ++I) {
    const std::string Where = Name + " / " + Fused[I].first;
    std::vector<double> Y(N, -7.0);
    K.runFused(Ops.X.data(), Y.data(), Fused[I].second);

    std::vector<double> YRef = test::referenceEpilogue(A, Ops.X, Ref[I].second);

    expectVectorsClose(Y, YRef, Where + " y");
    expectClose(Fused[I].second.Acc1, Ref[I].second.Acc1, Where + " Acc1");
    expectClose(Fused[I].second.Acc2, Ref[I].second.Acc2, Where + " Acc2");
    expectClose(Fused[I].second.Acc3, Ref[I].second.Acc3, Where + " Acc3");
    if (Fused[I].second.Op == EpilogueOp::JacobiStep)
      expectVectorsClose(XNewFused, XNewRef, Where + " XNew");
    if (Fused[I].second.Op == EpilogueOp::ResidualNorm)
      expectVectorsClose(ROutFused, ROutRef, Where + " ROut");
  }
}

TEST(FusedEpilogue, MatchesComposedEveryOpEveryFormat) {
  CsrMatrix A = genStencil5(12, 12); // Square, as Dot's x.y term requires.
  for (int Threads : {1, 4}) {
    for (FormatId F : allFormats()) {
      std::unique_ptr<SpmvKernel> K = makeKernel(F, Threads);
      K->prepare(A);
      checkKernelAllOps(*K, A,
                        std::string(formatName(F)) + "/t" +
                            std::to_string(Threads));
    }
    // A non-default CVR build: over-decomposed, prefetching, and
    // column-blocked (accumulate-mode run() ahead of the sweep).
    CvrOptions Opts;
    Opts.NumThreads = Threads * 2; // Two chunks per thread.
    Opts.PrefetchDistance = 4;
    Opts.ColBlockBytes = 256;
    test::ScopedOmpThreads Team(Threads);
    CvrKernel Built(Opts);
    Built.prepare(A);
    checkKernelAllOps(Built, A, "CVR/mult2-pf4-block/t" +
                                    std::to_string(Threads));
  }
}

TEST(FusedEpilogue, MatchesComposedOnIrregularMatrix) {
  // Hub rows, empty rows, and a ragged tail stress CVR's steal / chunk
  // boundary finalize sites ahead of the epilogue sweep.
  CsrMatrix A = test::randomCsr(257, 257, 0.04, 99);
  for (FormatId F : {FormatId::Mkl, FormatId::Cvr}) {
    std::unique_ptr<SpmvKernel> K = makeKernel(F, 3);
    K->prepare(A);
    checkKernelAllOps(*K, A, std::string(formatName(F)) + "/irregular");
  }
}

TEST(FusedEpilogue, TraceReplayMatchesExecutionBitForBit) {
  // traceRun and traceRunFused replay the kernel's exact finalize order
  // serially, so for a fixed configuration their results are bitwise
  // identical to the parallel execution (epilogue accumulators reduce in a
  // fixed order regardless of which thread ran what). Checked for the
  // store path and the fused path, and for CVR under every stream kind.
  CsrMatrix A = genStencil5(20, 13); // Nx*Ny grid nodes: always square.
  ASSERT_EQ(A.numRows(), A.numCols());
  const std::size_t N = static_cast<std::size_t>(A.numRows());
  std::vector<double> X = randomVector(N, 7);

  auto ExpectReplayBitwise = [&](SpmvKernel &K, const std::string &Where) {
    K.prepare(A);

    std::vector<double> YRun(N, 0.0), YTrace(N, 0.0);
    K.run(X.data(), YRun.data());
    CountingSink StoreSink;
    ASSERT_TRUE(K.traceRun(StoreSink, X.data(), YTrace.data())) << Where;
    EXPECT_GT(StoreSink.accesses(), 0u) << Where;
    for (std::size_t I = 0; I < N; ++I)
      ASSERT_EQ(YRun[I], YTrace[I]) << Where << " store row " << I;

    FusedEpilogue ERun = FusedEpilogue::dot(true, true, X.data());
    std::fill(YRun.begin(), YRun.end(), 0.0);
    K.runFused(X.data(), YRun.data(), ERun);

    FusedEpilogue ETrace = FusedEpilogue::dot(true, true, X.data());
    std::fill(YTrace.begin(), YTrace.end(), 0.0);
    CountingSink FusedSink;
    ASSERT_TRUE(K.traceRunFused(FusedSink, X.data(), YTrace.data(), ETrace))
        << Where;
    EXPECT_GT(FusedSink.accesses(), 0u) << Where;

    for (std::size_t I = 0; I < N; ++I)
      ASSERT_EQ(YRun[I], YTrace[I]) << Where << " fused row " << I;
    EXPECT_EQ(ERun.Acc1, ETrace.Acc1) << Where;
    EXPECT_EQ(ERun.Acc2, ETrace.Acc2) << Where;
    EXPECT_EQ(ERun.Acc3, ETrace.Acc3) << Where;
  };

  ExpectReplayBitwise(*makeKernel(FormatId::Mkl, 4), formatName(FormatId::Mkl));
  for (ValueKind VK : {ValueKind::F64, ValueKind::F32x64}) {
    for (ColIndexKind IK : {ColIndexKind::U32, ColIndexKind::U16Band}) {
      CvrOptions Opts;
      Opts.NumThreads = 4;
      Opts.Values = VK;
      Opts.Indices = IK;
      CvrKernel K(Opts);
      ExpectReplayBitwise(K, "CVR vk " + std::to_string(static_cast<int>(VK)) +
                                 " ik " +
                                 std::to_string(static_cast<int>(IK)));
      EXPECT_EQ(K.matrix().valueKind(), VK);
      EXPECT_EQ(K.matrix().colIndexKind(), IK);
    }
  }
}

TEST(FusedEpilogue, CheckedModeVerifiesFusedPath) {
  // CheckedKernel re-derives every fused result from the inner kernel's run
  // plus the sweep; a clean production path must produce zero violations, and
  // must still match referenceEpilogue under the decorator.
  CsrMatrix A = genStencil5(15, 15);
  for (FormatId F : {FormatId::Mkl, FormatId::Cvr}) {
    analysis::CheckedKernel K{makeKernel(F, 2)};
    K.prepare(A);
    ASSERT_TRUE(K.violations().empty()) << formatName(F);
    checkKernelAllOps(K, A, std::string("checked/") + formatName(F));
    EXPECT_TRUE(K.violations().empty())
        << formatName(F) << ":\n"
        << analysis::formatViolations(K.violations());
  }
}

/// A CVR kernel whose runFused() gets row \p BadRow wrong, as a fused
/// write-back bug would. Checked mode's reference is the kernel's run()
/// plus the scalar sweep, so only the path under test sees the fault.
class PerturbedCvrKernel final : public CvrKernel {
public:
  explicit PerturbedCvrKernel(std::int32_t BadRow) : BadRow(BadRow) {}

  void runFused(const double *X, double *Y, FusedEpilogue &E) const override {
    CvrKernel::runFused(X, Y, E);
    Y[BadRow] += 1.0;
  }

private:
  std::int32_t BadRow;
};

TEST(FusedEpilogue, CheckedModeReportsPerturbedFusedRow) {
  CsrMatrix A = genStencil5(15, 15);
  const std::size_t N = static_cast<std::size_t>(A.numRows());
  Operands Ops(N);
  constexpr std::int32_t BadRow = 37;
  analysis::CheckedKernel K{std::make_unique<PerturbedCvrKernel>(BadRow)};
  K.prepare(A);
  ASSERT_TRUE(K.violations().empty())
      << analysis::formatViolations(K.violations());

  std::vector<double> Y(N, 0.0);
  FusedEpilogue E = FusedEpilogue::dampScale(0.5, 2.0, Ops.Z.data());
  K.runFused(Ops.X.data(), Y.data(), E);

  std::vector<std::string> YRows;
  for (const analysis::Violation &V : K.violations())
    if (V.Rule == "checked.fused.y")
      YRows.push_back(V.Location);
  EXPECT_EQ(YRows, std::vector<std::string>{"row " + std::to_string(BadRow)})
      << analysis::formatViolations(K.violations());
}

} // namespace
} // namespace cvr
