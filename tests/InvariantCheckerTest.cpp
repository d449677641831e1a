//===- tests/InvariantCheckerTest.cpp - Invariant checker + mutations -----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Two halves:
//
//  * clean structures produced by the real converters pass every check
//    (including the full checked-mode sweep over the smoke suite);
//  * targeted mutations — one corrupted field per test, injected through
//    analysis::Introspect — are caught and attributed to the *named* rule,
//    which is the property `cvr_tool validate` and the fuzz harness rely on
//    to tell conversion bugs from kernel bugs.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedKernel.h"
#include "analysis/CheckedSpmv.h"
#include "analysis/Introspect.h"
#include "analysis/InvariantChecker.h"
#include "core/CvrSpmm.h"
#include "core/CvrSpmv.h"
#include "formats/Csr5.h"
#include "formats/Esb.h"
#include "formats/Vhcc.h"
#include "gen/DatasetSuite.h"
#include "serve/Fleet.h"
#include "TestUtil.h"
#include "benchlib/SuiteRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <sstream>
#include <type_traits>
#include <utility>

namespace cvr {
namespace {

using analysis::CheckedKernel;
using analysis::Introspect;
using analysis::InvariantChecker;
using analysis::Violation;

bool hasRule(const std::vector<Violation> &Vs, const std::string &Rule) {
  return std::any_of(Vs.begin(), Vs.end(),
                     [&](const Violation &V) { return V.Rule == Rule; });
}

/// EXPECTs that \p Vs names \p Rule, printing the full report otherwise.
void expectRule(const std::vector<Violation> &Vs, const std::string &Rule) {
  EXPECT_TRUE(hasRule(Vs, Rule))
      << "expected rule '" << Rule << "', got:\n"
      << (Vs.empty() ? std::string("  (no violations)\n")
                     : analysis::formatViolations(Vs));
}

CsrMatrix testMatrix(std::uint64_t Seed = 11) {
  return test::randomCsr(60, 50, 0.08, Seed);
}

//===----------------------------------------------------------------------===//
// Clean structures pass.
//===----------------------------------------------------------------------===//

TEST(InvariantChecker, CleanCsrPasses) {
  CsrMatrix A = testMatrix();
  EXPECT_TRUE(InvariantChecker::checkCsr(A).empty());
}

TEST(InvariantChecker, CleanCvrPasses) {
  CsrMatrix A = testMatrix();
  CvrOptions Opts;
  Opts.NumThreads = 4;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  std::vector<Violation> Vs = InvariantChecker::checkCvr(M, &A);
  EXPECT_TRUE(Vs.empty()) << analysis::formatViolations(Vs);
}

TEST(InvariantChecker, CleanBlockedOverDecomposedCvrPasses) {
  // Column blocking + chunk over-decomposition produce band tables and
  // multiplied chunk counts; the checker rebuilds the same band slices from
  // the origin matrix and must find nothing to complain about.
  CsrMatrix A = test::randomCsr(80, 200, 0.06, 13);
  CvrOptions Opts;
  Opts.NumThreads = 6;      // Six chunks per band.
  Opts.ColBlockBytes = 512; // 64-column bands over 200 columns.
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  ASSERT_TRUE(M.isBlocked());
  std::vector<Violation> Vs = InvariantChecker::checkCvr(M, &A);
  EXPECT_TRUE(Vs.empty()) << analysis::formatViolations(Vs);
}

TEST(InvariantChecker, CleanCsr5Passes) {
  CsrMatrix A = testMatrix();
  Csr5 K(/*Sigma=*/4, /*NumThreads=*/4);
  K.prepare(A);
  std::vector<Violation> Vs = InvariantChecker::checkCsr5(K, A);
  EXPECT_TRUE(Vs.empty()) << analysis::formatViolations(Vs);
}

TEST(InvariantChecker, CleanEsbPasses) {
  CsrMatrix A = testMatrix();
  for (EsbSort S : {EsbSort::NoSort, EsbSort::Windowed, EsbSort::Global}) {
    Esb K(S, /*NumThreads=*/4);
    K.prepare(A);
    std::vector<Violation> Vs = InvariantChecker::checkEsb(K, A);
    EXPECT_TRUE(Vs.empty()) << esbSortName(S) << ":\n"
                            << analysis::formatViolations(Vs);
  }
}

TEST(InvariantChecker, CleanVhccPasses) {
  CsrMatrix A = testMatrix();
  Vhcc K(/*NumPanels=*/4, /*NumThreads=*/4);
  K.prepare(A);
  std::vector<Violation> Vs = InvariantChecker::checkVhcc(K, A);
  EXPECT_TRUE(Vs.empty()) << analysis::formatViolations(Vs);
}

// The acceptance sweep in miniature: every variant of every format over a
// representative suite matrix must pass structure, checked execution, and
// the differential compare. (cvr_tool validate runs the same driver over
// the full generator suite.)
TEST(InvariantChecker, CheckedSweepOverSmokeSuite) {
  for (const DatasetSpec &Spec : smokeSuite(/*SizeScale=*/0.1)) {
    CsrMatrix A = Spec.Build();
    for (const analysis::VariantReport &Rep :
         analysis::validateMatrix(A, nullptr, /*NumThreads=*/2)) {
      EXPECT_TRUE(Rep.Structure.empty())
          << Spec.Name << " / " << Rep.Variant << " structure:\n"
          << analysis::formatViolations(Rep.Structure);
      EXPECT_TRUE(Rep.Runtime.empty())
          << Spec.Name << " / " << Rep.Variant << " runtime:\n"
          << analysis::formatViolations(Rep.Runtime);
      EXPECT_TRUE(Rep.DiffOk) << Spec.Name << " / " << Rep.Variant
                              << " maxRelDiff=" << Rep.MaxRelDiff;
    }
  }
}

//===----------------------------------------------------------------------===//
// CSR mutations.
//===----------------------------------------------------------------------===//

TEST(InvariantCheckerMutation, CsrRowPtrDecreasing) {
  CsrMatrix A = testMatrix();
  AlignedBuffer<std::int64_t> &RowPtr = Introspect::csrRowPtr(A);
  RowPtr[10] = RowPtr[12] + 3; // Makes rowPtr[10] > rowPtr[11].
  expectRule(InvariantChecker::checkCsr(A), "csr.rowptr.monotone");
}

TEST(InvariantCheckerMutation, CsrColumnOutOfRange) {
  CsrMatrix A = testMatrix();
  Introspect::csrColIdx(A)[5] = A.numCols() + 7;
  expectRule(InvariantChecker::checkCsr(A), "csr.col.range");
}

//===----------------------------------------------------------------------===//
// CVR mutations (the satellite's "swap two CVR records" included).
//===----------------------------------------------------------------------===//

/// One corrupted field that CvrMatrix::checkStructure alone must catch,
/// with no origin matrix: the rules conversion, the blob decoder and the
/// checker share. Mutate returns false when the conversion has no site
/// for it.
struct CvrMutation {
  const char *Name;
  const char *Rule;
  CsrMatrix A;
  CvrOptions Opts;
  std::function<bool(CvrMatrix &)> Mutate;
};

std::vector<CvrMutation> cvrMutations() {
  CvrOptions TwoChunks;
  TwoChunks.NumThreads = 2;
  CvrOptions Blocked = TwoChunks;
  Blocked.ColBlockBytes = 512; // 64-column bands over 200 columns.
  CvrOptions U32;
  U32.Indices = ColIndexKind::U32; // A negative absolute column.
  return {
      {"band-tiling", "cvr.band.tiling", test::randomCsr(80, 200, 0.06, 13),
       Blocked,
       [](CvrMatrix &M) {
         if (M.bands().size() < 2)
           return false;
         Introspect::bands(M)[1].ColBegin += 8; // Gap between bands 0, 1.
         return true;
       }},
      {"swapped-records", "cvr.rec.pos-order", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         // Swap the first in-chunk pair with distinct positions.
         std::vector<CvrRecord> &Recs = Introspect::recs(M);
         for (const CvrChunk &C : M.chunks())
           for (std::int64_t I = C.RecBase; I + 1 < C.RecEnd; ++I)
             if (Recs[I].Pos != Recs[I + 1].Pos) {
               std::swap(Recs[I], Recs[I + 1]);
               return true;
             }
         return false;
       }},
      {"duplicate-position", "cvr.rec.pos-order", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         // Two records at one position would share a finish-mask bit.
         std::vector<CvrRecord> &Recs = Introspect::recs(M);
         for (const CvrChunk &C : M.chunks())
           if (C.RecEnd - C.RecBase >= 2) {
             Recs[C.RecBase + 1].Pos = Recs[C.RecBase].Pos;
             return true;
           }
         return false;
       }},
      {"column-range", "cvr.col.range", testMatrix(), U32,
       [](CvrMatrix &M) {
         Introspect::colIdx(M)[3] = -2;
         return true;
       }},
      {"tail-row-range", "cvr.tail.row-range", testMatrix(), CvrOptions{},
       [](CvrMatrix &M) {
         AlignedBuffer<std::int32_t> &Tails = Introspect::tails(M);
         std::size_t Victim = 0;
         while (Victim + 1 < Tails.size() && Tails[Victim] < 0)
           ++Victim;
         Tails[Victim] = M.numRows() + 100;
         return true;
       }},
  };
}

/// Converts the case's matrix and applies its mutation.
CvrMatrix mutatedCvr(const CvrMutation &Case) {
  CvrMatrix M = CvrMatrix::fromCsr(Case.A, Case.Opts);
  EXPECT_TRUE(Case.Mutate(M)) << Case.Name << ": matrix has no site";
  return M;
}

/// The named mutation must be reported under its rule by checkCvr with the
/// origin's cross checks on.
void expectCvrMutationCaught(const std::string &Name) {
  for (const CvrMutation &Case : cvrMutations())
    if (Name == Case.Name) {
      CvrMatrix M = mutatedCvr(Case);
      expectRule(InvariantChecker::checkCvr(M, &Case.A), Case.Rule);
      EXPECT_FALSE(test::structureClean(M));
      return;
    }
  FAIL() << "no CVR mutation named " << Name;
}

TEST(InvariantCheckerMutation, CvrBandTilingBroken) {
  expectCvrMutationCaught("band-tiling");
}

TEST(InvariantCheckerMutation, CvrSwappedRecords) {
  expectCvrMutationCaught("swapped-records");
}

TEST(InvariantCheckerMutation, CvrDuplicateRecordPosition) {
  expectCvrMutationCaught("duplicate-position");
}

TEST(InvariantCheckerMutation, CvrColumnOutOfRange) {
  expectCvrMutationCaught("column-range");
}

TEST(InvariantCheckerMutation, CvrTailRowOutOfRange) {
  expectCvrMutationCaught("tail-row-range");
}

TEST(InvariantCheckerMutation, CvrStolenValueCorrupted) {
  CsrMatrix A = testMatrix();
  CvrMatrix M = CvrMatrix::fromCsr(A, {});
  // Perturbing one stream value breaks the element multiset accounting.
  Introspect::vals(M)[7] += 0.5;
  std::vector<Violation> Vs = InvariantChecker::checkCvr(M, &A);
  EXPECT_TRUE(hasRule(Vs, "cvr.elem.spurious") ||
              hasRule(Vs, "cvr.elem.missing"))
      << analysis::formatViolations(Vs);
}

TEST(InvariantCheckerMutation, BlobDecoderRejectsUnderTheCheckersRule) {
  // The decoder runs the checker's structure walk: a blob of any mutated
  // matrix is DATA_LOSS under the rule checkCvr reports first, in either
  // layout.
  for (const CvrMutation &Case : cvrMutations()) {
    SCOPED_TRACE(Case.Name);
    CvrMatrix M = mutatedCvr(Case);
    std::vector<Violation> Vs = InvariantChecker::checkCvr(M);
    ASSERT_FALSE(Vs.empty());
    EXPECT_EQ(Vs[0].Rule, Case.Rule) << analysis::formatViolations(Vs);
    for (BlobLayout Layout : {BlobLayout::Compact, BlobLayout::Mapped}) {
      std::ostringstream OS;
      ASSERT_TRUE(M.writeBlob(OS, Layout).ok());
      std::istringstream IS(OS.str());
      StatusOr<CvrMatrix> R = CvrMatrix::readBlob(IS);
      ASSERT_FALSE(R.ok());
      EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
      EXPECT_NE(R.status().message().find("[cvr.blob.integrity] " +
                                          Vs[0].Rule + " @ "),
                std::string::npos)
          << R.status().message();
    }
  }
}

//===----------------------------------------------------------------------===//
// CSR5 mutations (the satellite's "truncate a tile descriptor" included).
//===----------------------------------------------------------------------===//

TEST(InvariantCheckerMutation, Csr5TruncatedFlushRows) {
  CsrMatrix A = testMatrix();
  Csr5 K(/*Sigma=*/4, /*NumThreads=*/2);
  K.prepare(A);
  AlignedBuffer<std::int32_t> &FlushRows = Introspect::csr5FlushRows(K);
  ASSERT_GT(FlushRows.size(), 0u) << "matrix produced no flush descriptors";
  FlushRows.resize(FlushRows.size() - 1); // Shrink keeps the prefix intact.
  expectRule(InvariantChecker::checkCsr5(K, A), "csr5.flush.size");
}

TEST(InvariantCheckerMutation, Csr5BitFlagFlipped) {
  CsrMatrix A = testMatrix();
  Csr5 K(/*Sigma=*/4, /*NumThreads=*/2);
  K.prepare(A);
  AlignedBuffer<std::uint8_t> &BitFlag = Introspect::csr5BitFlag(K);
  ASSERT_GT(BitFlag.size(), 1u);
  BitFlag[1] ^= 0x4; // Flip lane 2's row-start bit at tile 0, depth 1.
  expectRule(InvariantChecker::checkCsr5(K, A), "csr5.bitflag.mismatch");
}

TEST(InvariantCheckerMutation, Csr5TileColumnCorrupted) {
  CsrMatrix A = testMatrix();
  Csr5 K(/*Sigma=*/4, /*NumThreads=*/2);
  K.prepare(A);
  AlignedBuffer<std::int32_t> &TCols = Introspect::csr5TileCols(K);
  ASSERT_GT(TCols.size(), 0u);
  TCols[0] = A.numCols() + 3;
  expectRule(InvariantChecker::checkCsr5(K, A), "csr5.col.range");
}

//===----------------------------------------------------------------------===//
// ESB mutations (the satellite's "point a column out of range" included).
//===----------------------------------------------------------------------===//

TEST(InvariantCheckerMutation, EsbColumnOutOfRange) {
  CsrMatrix A = testMatrix();
  Esb K(EsbSort::Windowed, /*NumThreads=*/2);
  K.prepare(A);
  AlignedBuffer<std::int32_t> &ColIdx = Introspect::esbColIdx(K);
  // Corrupt the first masked-valid slot so the range check (not the pad
  // check) sees it.
  analysis::EsbView V = Introspect::esb(K);
  std::size_t Victim = 0;
  for (std::size_t I = 0; I < ColIdx.size(); ++I)
    if (V.Mask[I / 8] & (1U << (I % 8))) {
      Victim = I;
      break;
    }
  ColIdx[Victim] = A.numCols();
  expectRule(InvariantChecker::checkEsb(K, A), "esb.col.range");
}

TEST(InvariantCheckerMutation, EsbPermutationDuplicate) {
  CsrMatrix A = testMatrix();
  Esb K(EsbSort::Global, /*NumThreads=*/2);
  K.prepare(A);
  Introspect::esbPerm(K)[0] = Introspect::esbPerm(K)[1];
  expectRule(InvariantChecker::checkEsb(K, A), "esb.perm.permutation");
}

TEST(InvariantCheckerMutation, EsbMaskBitCleared) {
  CsrMatrix A = testMatrix();
  Esb K(EsbSort::NoSort, /*NumThreads=*/2);
  K.prepare(A);
  AlignedBuffer<std::uint8_t> &Mask = Introspect::esbMask(K);
  std::size_t Victim = 0;
  for (std::size_t I = 0; I < Mask.size(); ++I)
    if (Mask[I] != 0) {
      Victim = I;
      break;
    }
  Mask[Victim] = 0;
  expectRule(InvariantChecker::checkEsb(K, A), "esb.mask.mismatch");
}

//===----------------------------------------------------------------------===//
// VHCC mutations.
//===----------------------------------------------------------------------===//

TEST(InvariantCheckerMutation, VhccColumnOutOfRange) {
  CsrMatrix A = testMatrix();
  Vhcc K(/*NumPanels=*/4, /*NumThreads=*/2);
  K.prepare(A);
  Introspect::vhccColIdx(K)[0] = -1;
  expectRule(InvariantChecker::checkVhcc(K, A), "vhcc.col.range");
}

TEST(InvariantCheckerMutation, VhccMergePlanDuplicate) {
  CsrMatrix A = testMatrix();
  Vhcc K(/*NumPanels=*/4, /*NumThreads=*/2);
  K.prepare(A);
  std::vector<std::int64_t> &MergeIdx = Introspect::vhccMergeIdx(K);
  ASSERT_GT(MergeIdx.size(), 1u);
  MergeIdx[1] = MergeIdx[0]; // One partial merged twice, one never.
  expectRule(InvariantChecker::checkVhcc(K, A), "vhcc.merge.permutation");
}

TEST(InvariantCheckerMutation, VhccLocalRowJump) {
  CsrMatrix A = testMatrix();
  Vhcc K(/*NumPanels=*/2, /*NumThreads=*/2);
  K.prepare(A);
  AlignedBuffer<std::int32_t> &LocalRow = Introspect::vhccLocalRow(K);
  ASSERT_GT(LocalRow.size(), 0u);
  LocalRow[0] = 2; // Panels must start their segmented sum at local row 0.
  std::vector<Violation> Vs = InvariantChecker::checkVhcc(K, A);
  EXPECT_TRUE(hasRule(Vs, "vhcc.localrow.dense") ||
              hasRule(Vs, "vhcc.elem.mismatch"))
      << analysis::formatViolations(Vs);
}

//===----------------------------------------------------------------------===//
// Checked kernels: runtime attribution of corrupt streams.
//===----------------------------------------------------------------------===//

TEST(CheckedSpmv, CatchesGatherOutOfRange) {
  CsrMatrix A = testMatrix();
  CvrOptions Opts;
  Opts.Indices = ColIndexKind::U32; // Mutates the absolute index stream.
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  Introspect::colIdx(M)[4] = A.numCols() + 1000; // Would gather wild.
  std::vector<double> X = test::randomVector(A.numCols(), 3);
  std::vector<double> Y(A.numRows(), 0.0);
  std::vector<Violation> Vs;
  analysis::cvrSpmvChecked(M, X.data(), Y.data(), Vs);
  expectRule(Vs, "checked.cvr.gather");
}

TEST(CheckedSpmv, CatchesScatterOutOfRange) {
  CsrMatrix A = testMatrix();
  CvrOptions Opts;
  Opts.NumThreads = 2;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  std::vector<CvrRecord> &Recs = Introspect::recs(M);
  bool Mutated = false;
  for (CvrRecord &R : Recs)
    if (!R.Steal) {
      R.Wb = M.numRows() + 50; // Feed record scatters past y.
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated);
  std::vector<double> X = test::randomVector(A.numCols(), 3);
  std::vector<double> Y(A.numRows(), 0.0);
  std::vector<Violation> Vs;
  analysis::cvrSpmvChecked(M, X.data(), Y.data(), Vs);
  expectRule(Vs, "checked.cvr.scatter");
}

/// One Introspect mutation per checked.cvr.* rule. Mutate returns false
/// when the matrix has no site for it (e.g. no steal record).
struct CheckedRuleCase {
  const char *Rule;
  std::function<bool(CvrMatrix &)> Mutate;
};

std::vector<CheckedRuleCase> checkedRuleCases() {
  auto FirstRecord = [](CvrMatrix &M, auto Pred) -> CvrRecord * {
    for (CvrRecord &R : Introspect::recs(M))
      if (Pred(R))
        return &R;
    return nullptr;
  };
  return {
      {"checked.cvr.chunk",
       [](CvrMatrix &M) {
         CvrChunk &C = Introspect::chunks(M).front();
         C.ElemBase = static_cast<std::int64_t>(M.numNonZeros()) * 64;
         return C.NumSteps > 0;
       }},
      {"checked.cvr.rec-pos",
       [&](CvrMatrix &M) {
         CvrRecord *R = FirstRecord(M, [](const CvrRecord &) { return true; });
         if (R)
           R->Pos = -1;
         return R != nullptr;
       }},
      {"checked.cvr.tresult",
       [&](CvrMatrix &M) {
         CvrRecord *R =
             FirstRecord(M, [](const CvrRecord &R) { return R.Steal != 0; });
         if (R)
           R->Wb = M.lanes() + 3;
         return R != nullptr;
       }},
      {"checked.cvr.scatter",
       [&](CvrMatrix &M) {
         CvrRecord *R =
             FirstRecord(M, [](const CvrRecord &R) { return R.Steal == 0; });
         if (R)
           R->Wb = M.numRows() + 50;
         return R != nullptr;
       }},
      {"checked.cvr.gather",
       [](CvrMatrix &M) {
         if (M.colIndexKind() == ColIndexKind::U16Band)
           Introspect::colIdx16(M)[4] = 65535; // Band base 0 + 65535.
         else
           Introspect::colIdx(M)[4] = M.numCols() + 1000;
         return true;
       }},
      {"checked.cvr.tail",
       [](CvrMatrix &M) {
         Introspect::tails(M)[0] = M.numRows() + 7;
         return true;
       }},
      {"checked.cvr.tail",
       [](CvrMatrix &M) {
         // Below the -1 unused marker: unless reported, the slot's
         // t_result is dropped silently.
         Introspect::tails(M)[1] = -5;
         return true;
       }},
      {"checked.cvr.finish-mask",
       [](CvrMatrix &M) {
         // Flip one bit of chunk 0's trailing mask byte. Clearing its highest
         // lane leaves that lane's record undrained; setting a bit in an
         // empty byte stages a value with no record, so the drain would run
         // past the chunk's records. The earlier drains stay in step.
         std::uint8_t &Trail = Introspect::finishMasks(
             M)[static_cast<std::size_t>(M.chunks().front().NumSteps)];
         Trail ^= Trail ? 1U << (std::bit_width(unsigned{Trail}) - 1) : 1U;
         return true;
       }},
      {"checked.cvr.finish-mask",
       [](CvrMatrix &M) {
         // Move chunk 0's first mid-stream finish bit to a free lane of the
         // same step: the counts still agree, but a record now drains the
         // value staged from another position.
         AlignedBuffer<std::uint8_t> &Masks = Introspect::finishMasks(M);
         for (std::int64_t I = 0; I < M.chunks().front().NumSteps; ++I) {
           const unsigned B = Masks[static_cast<std::size_t>(I)];
           if (B != 0 && B != 0xFFU) {
             Masks[static_cast<std::size_t>(I)] ^=
                 (1U << std::countr_zero(B)) |
                 (1U << std::countr_zero(~B & 0xFFU));
             return true;
           }
         }
         return false;
       }},
      {"checked.cvr.chunk",
       [](CvrMatrix &M) {
         // Index stream one step shorter than the value stream: the last
         // chunk's element range must be checked against both.
         auto Truncate = [&](auto &Buf) {
           std::remove_reference_t<decltype(Buf)> Short(
               Buf.size() - static_cast<std::size_t>(M.lanes()));
           std::copy(Buf.data(), Buf.data() + Short.size(), Short.data());
           Buf = std::move(Short);
         };
         if (M.colIndexKind() == ColIndexKind::U16Band)
           Truncate(Introspect::colIdx16(M));
         else
           Truncate(Introspect::colIdx(M));
         return true;
       }},
      {"checked.cvr.zero-row",
       [](CvrMatrix &M) {
         Introspect::zeroRows(M).push_back(M.numRows() + 3);
         return true;
       }},
  };
}

/// Runs \p Body on a CvrOptions copy of \p Base for every stream-kind
/// combination, labelled for failure messages. An explicit F32x64 needs
/// fp32-exact values (benchlib's roundedToFp32).
template <class Fn> void forEachKind(const CvrOptions &Base, Fn Body) {
  for (ValueKind VK : {ValueKind::F64, ValueKind::F32x64})
    for (ColIndexKind IK : {ColIndexKind::U32, ColIndexKind::U16Band}) {
      CvrOptions Opts = Base;
      Opts.Values = VK;
      Opts.Indices = IK;
      Body(Opts, "vk " + std::to_string(static_cast<int>(VK)) + " ik " +
                     std::to_string(static_cast<int>(IK)));
    }
}

/// Checked output \p Y must match cvrSpmv on the same matrix and the
/// reference \p Ref (every stream kind is exact).
void expectMatchesKernelAndReference(const CvrMatrix &M,
                                     const std::vector<double> &X,
                                     const std::vector<double> &Ref,
                                     const std::vector<double> &Y,
                                     const std::string &Where) {
  std::vector<double> Kernel(Y.size(), 0.0);
  cvrSpmv(M, X.data(), Kernel.data());
  EXPECT_LE(maxRelDiff(Kernel, Y), test::SpmvTolerance) << Where;
  EXPECT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance) << Where;
}

/// The guarded panel loop on a clean matrix, at a full panel and a masked
/// tail: no violations, and every column as cvrSpmm computes it.
void expectCheckedSpmmClean(const CvrMatrix &M, const std::string &Where) {
  for (int K : {8, 5}) {
    const auto Ld = static_cast<std::size_t>(K);
    std::vector<double> X = test::randomVector(M.numCols() * Ld, 19);
    std::vector<double> Y(M.numRows() * Ld, -3.0), Want(Y.size(), 0.0);
    std::vector<Violation> Vs;
    ASSERT_TRUE(
        analysis::cvrSpmmChecked(M, X.data(), Ld, Y.data(), Ld, K, Vs).ok());
    EXPECT_TRUE(Vs.empty()) << Where << analysis::formatViolations(Vs);
    ASSERT_TRUE(cvrSpmm(M, X.data(), Ld, Want.data(), Ld, K).ok());
    EXPECT_LE(maxRelDiff(Want, Y), test::SpmvTolerance) << Where << " K " << K;
  }
}

TEST(CheckedSpmv, BothShadowsMatchReferenceWhenClean) {
  // Checked mode runs the kernel's chunk loop for every stream kind, SpMV
  // and SpMM; clean matrices must pass with no violations and match the
  // scalar reference.
  CsrMatrix A = roundedToFp32(testMatrix(29));
  std::vector<double> X = test::randomVector(A.numCols(), 5);
  std::vector<double> Ref(A.numRows(), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  CvrOptions Base;
  Base.NumThreads = 3;
  forEachKind(Base, [&](const CvrOptions &Opts,
                               const std::string &Where) {
    CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
    std::vector<double> Y(A.numRows(), -1.0);
    std::vector<Violation> Vs;
    analysis::cvrSpmvChecked(M, X.data(), Y.data(), Vs);
    EXPECT_TRUE(Vs.empty()) << Where << analysis::formatViolations(Vs);
    expectMatchesKernelAndReference(M, X, Ref, Y, Where);
    expectCheckedSpmmClean(M, Where);
  });
}

TEST(CheckedSpmv, BlockedShadowsMatchReference) {
  // Accumulate-mode coverage: a blocked + over-decomposed matrix must run
  // checked with zero violations and match the scalar reference (checked
  // mode zeroes all of y, then += per band).
  CsrMatrix A = roundedToFp32(test::randomCsr(70, 180, 0.07, 41));
  std::vector<double> X = test::randomVector(A.numCols(), 17);
  std::vector<double> Ref(A.numRows(), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  CvrOptions Base;
  Base.NumThreads = 8; // Four chunks per thread.
  Base.ColBlockBytes = 512;
  test::ScopedOmpThreads Team(2);
  forEachKind(Base, [&](const CvrOptions &Opts,
                               const std::string &Where) {
    CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
    ASSERT_TRUE(M.isBlocked()) << Where;
    std::vector<double> Y(A.numRows(), -4.0);
    std::vector<Violation> Vs;
    analysis::cvrSpmvChecked(M, X.data(), Y.data(), Vs);
    EXPECT_TRUE(Vs.empty()) << Where << analysis::formatViolations(Vs);
    expectMatchesKernelAndReference(M, X, Ref, Y, Where);
    expectCheckedSpmmClean(M, Where);
  });
}

TEST(CheckedSpmv, EveryRuleFires) {
  // Each mutation must be reported under its own rule and no other, for
  // every stream-kind combination, by the SpMV loop and by the SpMM panel
  // loop at K = 8 and K = 5. The rule IDs are the interface
  // `cvr_tool validate` and the fuzzers report through. The panel loop
  // retires per record and never reads the finish masks, so the
  // finish-mask mutations are invisible to it: it must report nothing.
  CsrMatrix A = roundedToFp32(testMatrix());
  std::vector<double> X = test::randomVector(A.numCols(), 3);
  CvrOptions Base;
  Base.NumThreads = 3;
  forEachKind(Base, [&](const CvrOptions &Opts,
                               const std::string &Where) {
    const CvrMatrix Clean = CvrMatrix::fromCsr(A, Opts);
    ASSERT_EQ(Clean.colIndexKind(), Opts.Indices) << Where;
    for (const CheckedRuleCase &Case : checkedRuleCases()) {
      SCOPED_TRACE(std::string(Case.Rule) + " " + Where);
      CvrMatrix M = Clean;
      ASSERT_TRUE(Case.Mutate(M)) << "matrix has no site for the rule";
      std::vector<double> Y(A.numRows(), 0.0);
      std::vector<Violation> Vs;
      analysis::cvrSpmvChecked(M, X.data(), Y.data(), Vs);
      expectRule(Vs, Case.Rule);
      for (const Violation &V : Vs)
        EXPECT_EQ(V.Rule, Case.Rule) << analysis::formatViolations(Vs);

      const bool MasksOnly =
          std::string(Case.Rule) == "checked.cvr.finish-mask";
      for (int K : {8, 5}) {
        SCOPED_TRACE("spmm K " + std::to_string(K));
        const auto Ld = static_cast<std::size_t>(K);
        std::vector<double> XP = test::randomVector(A.numCols() * Ld, 5);
        std::vector<double> YP(A.numRows() * Ld, 0.0);
        std::vector<Violation> SVs;
        ASSERT_TRUE(analysis::cvrSpmmChecked(M, XP.data(), Ld, YP.data(), Ld,
                                             K, SVs)
                        .ok());
        if (MasksOnly) {
          EXPECT_TRUE(SVs.empty()) << analysis::formatViolations(SVs);
          continue;
        }
        expectRule(SVs, Case.Rule);
        for (const Violation &V : SVs)
          EXPECT_EQ(V.Rule, Case.Rule) << analysis::formatViolations(SVs);
      }
    }
  });
}

// Registry plumbing: every checked variant carries the +checked suffix and
// runs clean end to end on a well-formed matrix.
TEST(CheckedKernelTest, CheckedVariantsRunClean) {
  CsrMatrix A = testMatrix(31);
  std::vector<double> X = test::randomVector(A.numCols(), 7);
  std::vector<double> Ref(A.numRows(), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  for (FormatId F : allFormats()) {
    std::vector<KernelVariant> Vars =
        analysis::checkedVariantsOf(F, /*NumThreads=*/2);
    ASSERT_FALSE(Vars.empty());
    std::unique_ptr<SpmvKernel> K = Vars.front().Make();
    EXPECT_NE(K->name().find("+checked"), std::string::npos);
    K->prepare(A);
    std::vector<double> Y(A.numRows(), 0.0);
    K->run(X.data(), Y.data());
    const auto &CK = static_cast<const CheckedKernel &>(*K);
    EXPECT_TRUE(CK.violations().empty())
        << K->name() << ":\n"
        << analysis::formatViolations(CK.violations());
    EXPECT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance) << K->name();
  }
}

TEST(CheckedKernelTest, CvrSpmmRunBatchReportsWildGather) {
  // A column index of 2^30 would send the native panel loop 8 GiB past X.
  // Checked runBatch runs the guarded panel loop instead: it reports the
  // lane and returns, and the per-column reference agrees with it.
  CsrMatrix A = testMatrix();
  CvrOptions Opts;
  Opts.Indices = ColIndexKind::U32;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  Introspect::colIdx(M)[4] = 1 << 30;
  CheckedKernel K(std::make_unique<serve::CvrViewKernel>(M));
  constexpr int NumVec = 8;
  std::vector<double> X =
      test::randomVector(static_cast<std::size_t>(A.numCols()) * NumVec, 7);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()) * NumVec);
  ASSERT_TRUE(K.runBatch(X.data(), NumVec, Y.data(), NumVec, NumVec).ok());
  expectRule(K.violations(), "checked.cvr.gather");
  for (const Violation &V : K.violations())
    EXPECT_EQ(V.Rule, "checked.cvr.gather")
        << analysis::formatViolations(K.violations());
}

} // namespace
} // namespace cvr
