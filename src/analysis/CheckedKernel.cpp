//===- analysis/CheckedKernel.cpp - Registry-pluggable checked mode -------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedKernel.h"

#include "core/CvrSpmv.h"
#include "matrix/Reference.h"

#include <cmath>
#include <utility>

namespace cvr {
namespace analysis {

CheckedKernel::CheckedKernel(std::unique_ptr<SpmvKernel> Inner)
    : Inner(std::move(Inner)) {}

CheckedKernel::~CheckedKernel() = default;

std::string CheckedKernel::name() const { return Inner->name() + "+checked"; }

void CheckedKernel::prepare(const CsrMatrix &A) {
  Inner->prepare(A);
  std::vector<Violation> Found = InvariantChecker::checkKernel(*Inner, A);
  Vs.insert(Vs.end(), Found.begin(), Found.end());
}

bool CheckedKernel::structureSound() const {
  // Any CVR-backed kernel (CvrKernel, serve::CvrViewKernel). A local list,
  // because the walk stops at once when its output is already full.
  const auto *Cvr = dynamic_cast<const CvrMatrixSource *>(Inner.get());
  if (!Cvr)
    return true;
  std::vector<Violation> Found;
  Cvr->cvrMatrix().checkStructure(Found, InvariantChecker::MaxViolations);
  Vs.insert(Vs.end(), Found.begin(), Found.end());
  return Found.empty();
}

void CheckedKernel::run(const double *X, double *Y) const {
  if (structureSound())
    Inner->run(X, Y);
}

namespace {

/// Relative-or-absolute agreement test for the fused differential check.
/// \p RelTol bounds reassociation drift; tiny values compare absolutely.
bool fusedClose(double A, double B, double RelTol) {
  double Diff = std::fabs(A - B);
  double Scale = std::max(std::fabs(A), std::fabs(B));
  return Diff <= RelTol * std::max(Scale, 1.0e-30) || Diff <= 1.0e-12;
}

} // namespace

Status CheckedKernel::runBatch(const double *X, std::size_t LdX, double *Y,
                               std::size_t LdY, int NumVectors) const {
  if (!structureSound())
    return Status::okStatus(); // Reported; y stays as it was.
  // The path under test, which validates the arguments.
  Status S = Inner->runBatch(X, LdX, Y, LdY, NumVectors);
  if (!S.ok())
    return S;
  const std::int64_t Rows = Inner->preparedRows();
  const std::int64_t Cols = Inner->preparedCols();
  if (Rows < 0 || Cols < 0)
    return S; // Nothing to check against; the inner call accepted it.

  // Reference: each panel column through the inner kernel's SpMV.
  std::vector<double> Xc(static_cast<std::size_t>(Cols));
  std::vector<double> YRef(static_cast<std::size_t>(Rows));
  constexpr double RowTol = 1.0e-10;
  std::size_t Reported = 0;
  for (int J = 0; J < NumVectors; ++J) {
    for (std::int64_t I = 0; I < Cols; ++I)
      Xc[static_cast<std::size_t>(I)] =
          X[static_cast<std::size_t>(I) * LdX + J];
    Inner->run(Xc.data(), YRef.data());
    for (std::int64_t R = 0; R < Rows; ++R) {
      double Got = Y[static_cast<std::size_t>(R) * LdY + J];
      double Want = YRef[static_cast<std::size_t>(R)];
      if (fusedClose(Got, Want, RowTol))
        continue;
      if (Reported++ >= InvariantChecker::MaxViolations)
        continue;
      Vs.push_back(Violation{"checked.spmm.y",
                             "row " + std::to_string(R) + " col " +
                                 std::to_string(J),
                             "batched=" + std::to_string(Got) +
                                 " reference=" + std::to_string(Want)});
    }
  }
  return S;
}

void CheckedKernel::runFused(const double *X, double *Y,
                             FusedEpilogue &E) const {
  if (!structureSound())
    return; // Reported; y and the epilogue's outputs stay as they were.
  std::int64_t N = Inner->preparedRows();
  if (N < 0) {
    Inner->runFused(X, Y, E);
    return;
  }
  // Reference: the inner kernel's run composed with the epilogue sweep,
  // side outputs redirected into scratch so the path under test's writes
  // stay authoritative.
  std::vector<double> YRef(static_cast<std::size_t>(N), 0.0);
  std::vector<double> RScratch, XScratch;
  FusedEpilogue ERef = E;
  if (E.ROut) {
    RScratch.resize(static_cast<std::size_t>(N));
    ERef.ROut = RScratch.data();
  }
  if (E.XNew) {
    XScratch.resize(static_cast<std::size_t>(N));
    ERef.XNew = XScratch.data();
  }
  Inner->run(X, YRef.data());
  applyEpilogueScalar(ERef, X, YRef.data(), N);

  // The path under test.
  Inner->runFused(X, Y, E);

  // Per-row values differ from the reference only by the kernel's own
  // summation order (already accepted by the unchecked diff at 1e-10);
  // whole-vector accumulators add one more reassociation layer, so they
  // get an order of magnitude more slack. DESIGN.md section 12 documents
  // both bounds.
  constexpr double RowTol = 1.0e-10;
  constexpr double AccTol = 1.0e-8;
  std::size_t Reported = 0;
  auto Report = [&](const char *Rule, std::string Location, double Got,
                    double Want) {
    if (Reported++ >= InvariantChecker::MaxViolations)
      return;
    Vs.push_back(Violation{Rule, std::move(Location),
                           "fused=" + std::to_string(Got) +
                               " reference=" + std::to_string(Want)});
  };
  for (std::int64_t R = 0; R < N; ++R) {
    std::size_t I = static_cast<std::size_t>(R);
    if (!fusedClose(Y[R], YRef[I], RowTol))
      Report("checked.fused.y", "row " + std::to_string(R), Y[R], YRef[I]);
    if (E.ROut && !fusedClose(E.ROut[R], RScratch[I], RowTol))
      Report("checked.fused.rout", "row " + std::to_string(R), E.ROut[R],
             RScratch[I]);
    if (E.XNew && !fusedClose(E.XNew[R], XScratch[I], RowTol))
      Report("checked.fused.xnew", "row " + std::to_string(R), E.XNew[R],
             XScratch[I]);
  }
  if (!fusedClose(E.Acc1, ERef.Acc1, AccTol))
    Report("checked.fused.acc", "Acc1", E.Acc1, ERef.Acc1);
  if (!fusedClose(E.Acc2, ERef.Acc2, AccTol))
    Report("checked.fused.acc", "Acc2", E.Acc2, ERef.Acc2);
  if (!fusedClose(E.Acc3, ERef.Acc3, AccTol))
    Report("checked.fused.acc", "Acc3", E.Acc3, ERef.Acc3);
}

bool CheckedKernel::traceRun(MemAccessSink &Sink, const double *X,
                             double *Y) const {
  return Inner->traceRun(Sink, X, Y);
}

std::size_t CheckedKernel::formatBytes() const { return Inner->formatBytes(); }

std::vector<KernelVariant> checkedVariantsOf(FormatId F, int NumThreads) {
  std::vector<KernelVariant> Vs = variantsOf(F, NumThreads);
  for (KernelVariant &V : Vs) {
    V.VariantName += "+checked";
    V.Make = [Make = std::move(V.Make)]() -> std::unique_ptr<SpmvKernel> {
      return std::make_unique<CheckedKernel>(Make());
    };
  }
  return Vs;
}

std::unique_ptr<SpmvKernel> makeCheckedKernel(FormatId F, int NumThreads) {
  return std::make_unique<CheckedKernel>(makeKernel(F, NumThreads));
}

std::vector<VariantReport> validateMatrix(const CsrMatrix &A,
                                          const FormatId *Only,
                                          int NumThreads, double Tol) {
  // Deterministic dense input spanning sign changes and magnitudes.
  std::vector<double> X(static_cast<std::size_t>(A.numCols()));
  std::uint64_t State = 0x9e3779b97f4a7c15ULL;
  for (double &V : X) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    V = static_cast<double>(static_cast<std::int64_t>(State >> 11)) /
        static_cast<double>(1LL << 52);
  }
  std::vector<double> Ref(static_cast<std::size_t>(A.numRows()), 0.0);
  if (A.numRows() > 0)
    referenceSpmv(A, X.data(), Ref.data());

  std::vector<VariantReport> Reports;
  for (FormatId F : allFormats()) {
    if (Only && F != *Only)
      continue;
    for (const KernelVariant &V : checkedVariantsOf(F, NumThreads)) {
      VariantReport Rep;
      Rep.Variant = V.VariantName;
      std::unique_ptr<SpmvKernel> K = V.Make();
      auto *CK = static_cast<CheckedKernel *>(K.get());
      K->prepare(A);
      Rep.Structure = CK->violations();
      CK->clearViolations();

      std::vector<double> Y(static_cast<std::size_t>(A.numRows()),
                            -7.5e306); // Poison exposes unwritten rows.
      if (A.numRows() > 0)
        K->run(X.data(), Y.data());
      Rep.MaxRelDiff = maxRelDiff(Ref, Y);
      Rep.DiffOk = Rep.MaxRelDiff <= Tol && std::isfinite(Rep.MaxRelDiff);
      Reports.push_back(std::move(Rep));
    }
  }
  return Reports;
}

} // namespace analysis
} // namespace cvr
