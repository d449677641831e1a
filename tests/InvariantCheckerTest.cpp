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
//    to tell conversion bugs from kernel bugs. A CVR mutation is caught by
//    every reader of the structure: the walk itself, checkCvr, the blob
//    decoder in both layouts, and checked mode, which refuses to run it.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedKernel.h"
#include "analysis/Introspect.h"
#include "analysis/InvariantChecker.h"
#include "formats/Csr5.h"
#include "formats/Esb.h"
#include "formats/Vhcc.h"
#include "gen/DatasetSuite.h"
#include "serve/Fleet.h"
#include "TestUtil.h"
#include "benchlib/SuiteRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
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
// representative suite matrix must pass structure and the differential
// compare. (cvr_tool validate runs the same driver over
// the full generator suite.)
TEST(InvariantChecker, CheckedSweepOverSmokeSuite) {
  for (const DatasetSpec &Spec : smokeSuite(/*SizeScale=*/0.1)) {
    CsrMatrix A = Spec.Build();
    for (const analysis::VariantReport &Rep :
         analysis::validateMatrix(A, nullptr, /*NumThreads=*/2)) {
      EXPECT_TRUE(Rep.Structure.empty())
          << Spec.Name << " / " << Rep.Variant << " structure:\n"
          << analysis::formatViolations(Rep.Structure);
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
/// with no origin matrix: the rules conversion, the blob decoder, the
/// checker and checked mode share. Mutate returns false when the
/// conversion has no site for it.
struct CvrMutation {
  const char *Name;
  const char *Rule;
  CsrMatrix A;
  CvrOptions Opts;
  std::function<bool(CvrMatrix &)> Mutate;
  /// The decoder's own bracketed rule when a section count bound rejects
  /// the blob before the structure walk runs; null when the walk does.
  const char *BlobRule = nullptr;
};

/// The first record of \p M that is (\p Steal) or is not a steal record.
CvrRecord *firstRecord(CvrMatrix &M, bool Steal) {
  for (CvrRecord &R : Introspect::recs(M))
    if ((R.Steal != 0) == Steal)
      return &R;
  return nullptr;
}

std::vector<CvrMutation> cvrMutations() {
  CvrOptions TwoChunks;
  TwoChunks.NumThreads = 2;
  CvrOptions Blocked = TwoChunks;
  Blocked.ColBlockBytes = 512; // 64-column bands over 200 columns.
  CvrOptions U32 = TwoChunks;
  U32.Indices = ColIndexKind::U32; // Absolute columns.
  CvrOptions U16 = TwoChunks;
  U16.Indices = ColIndexKind::U16Band; // Band-local deltas.
  return {
      {"band-tiling", "cvr.band.tiling", test::randomCsr(80, 200, 0.06, 13),
       Blocked,
       [](CvrMatrix &M) {
         if (M.bands().size() < 2)
           return false;
         Introspect::bands(M)[1].ColBegin += 8; // Gap between bands 0, 1.
         return true;
       }},
      {"chunk-layout", "cvr.chunk.layout", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         // Chunk 0's elements far past the end of both streams.
         CvrChunk &C = Introspect::chunks(M).front();
         C.ElemBase = static_cast<std::int64_t>(M.numNonZeros()) * 64;
         return C.NumSteps > 0;
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
      {"record-position-range", "cvr.rec.pos-range", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         if (Introspect::recs(M).empty())
           return false;
         Introspect::recs(M).front().Pos = -1;
         return true;
       }},
      {"steal-slot", "cvr.rec.steal.slot", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         // Past the chunk's t_result slots.
         CvrRecord *R = firstRecord(M, /*Steal=*/true);
         if (R)
           R->Wb = M.lanes() + 3;
         return R != nullptr;
       }},
      {"feed-row", "cvr.rec.feed.row", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         // A feed record that would store past y.
         CvrRecord *R = firstRecord(M, /*Steal=*/false);
         if (R)
           R->Wb = M.numRows() + 50;
         return R != nullptr;
       }},
      {"column-range", "cvr.col.range", testMatrix(), U32,
       [](CvrMatrix &M) {
         Introspect::colIdx(M)[3] = -2; // A negative absolute column.
         return true;
       }},
      {"wild-column-u16", "cvr.col.range", testMatrix(), U16,
       [](CvrMatrix &M) {
         // A gather 65535 columns past band base 0.
         Introspect::colIdx16(M)[4] = 65535;
         return true;
       }},
      {"tail-row-range", "cvr.tail.row-range", testMatrix(), CvrOptions{},
       [](CvrMatrix &M) {
         AlignedBuffer<std::int32_t> &Tails = Introspect::tails(M);
         std::size_t Victim = 0;
         while (Victim + 1 < Tails.size() && Tails[Victim] < 0)
           ++Victim;
         Tails[Victim] = M.numRows() + 7;
         return true;
       }},
      {"tail-below-unused", "cvr.tail.row-range", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         // Below the -1 unused marker, in a slot no steal record names (a
         // named slot must hold a row, which the record rule checks).
         const CvrChunk &C = M.chunks().front();
         for (int K = 0; K < M.lanes(); ++K) {
           bool Named = false;
           for (std::int64_t I = C.RecBase; I < C.RecEnd; ++I)
             Named |= M.recs()[I].Steal != 0 && M.recs()[I].Wb == K;
           if (!Named) {
             Introspect::tails(M)[C.TailBase + K] = -5;
             return true;
           }
         }
         return false;
       }},
      {"truncated-index-stream", "cvr.stream.sizes", testMatrix(), U32,
       [](CvrMatrix &M) {
         // One step shorter than the value stream.
         AlignedBuffer<std::int32_t> &Idx = Introspect::colIdx(M);
         AlignedBuffer<std::int32_t> Short(Idx.size() -
                                           static_cast<std::size_t>(M.lanes()));
         std::copy(Idx.data(), Idx.data() + Short.size(), Short.data());
         Idx = std::move(Short);
         return true;
       },
       "cvr.blob.bounds"},
      {"zero-row-past-y", "cvr.zero-rows.range", testMatrix(), TwoChunks,
       [](CvrMatrix &M) {
         Introspect::zeroRows(M).push_back(M.numRows() + 3);
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

/// EXPECTs that \p Vs leads with \p Rule.
void expectFirstRule(const std::vector<Violation> &Vs, const std::string &Rule,
                     const std::string &Reader) {
  ASSERT_FALSE(Vs.empty()) << Reader << " found nothing";
  EXPECT_EQ(Vs[0].Rule, Rule) << Reader << ":\n"
                              << analysis::formatViolations(Vs);
}

/// Checked mode over the mutated \p M: SpMV, SpMM at a full panel and a
/// masked tail, and a fused run must each report the rule and leave the
/// poisoned y (and the epilogue's outputs) exactly as they were.
void expectCheckedKernelRefuses(const CvrMatrix &M, const std::string &Rule) {
  CheckedKernel K(std::make_unique<serve::CvrViewKernel>(M));
  constexpr double Poison = -7.5e306;
  const auto Rows = static_cast<std::size_t>(M.numRows());
  const auto Cols = static_cast<std::size_t>(M.numCols());
  auto Untouched = [&](const std::vector<double> &V, const char *What) {
    const std::vector<double> Want(V.size(), Poison);
    EXPECT_EQ(std::memcmp(V.data(), Want.data(), V.size() * sizeof(double)),
              0)
        << What << " was written";
  };

  std::vector<double> X = test::randomVector(Cols, 3);
  std::vector<double> Y(Rows, Poison);
  K.run(X.data(), Y.data());
  expectFirstRule(K.violations(), Rule, "checked spmv");
  Untouched(Y, "spmv y");

  for (int NumVec : {8, 5}) {
    K.clearViolations();
    const auto Ld = static_cast<std::size_t>(NumVec);
    std::vector<double> XP = test::randomVector(Cols * Ld, 5);
    std::vector<double> YP(Rows * Ld, Poison);
    ASSERT_TRUE(K.runBatch(XP.data(), Ld, YP.data(), Ld, NumVec).ok());
    expectFirstRule(K.violations(), Rule,
                    "checked spmm K " + std::to_string(NumVec));
    Untouched(YP, "spmm y");
  }

  K.clearViolations();
  std::vector<double> B = test::randomVector(Rows, 7);
  std::vector<double> R(Rows, Poison);
  FusedEpilogue E = FusedEpilogue::residualNorm(B.data(), R.data());
  std::fill(Y.begin(), Y.end(), Poison);
  K.runFused(X.data(), Y.data(), E);
  expectFirstRule(K.violations(), Rule, "checked fused");
  Untouched(Y, "fused y");
  Untouched(R, "fused residual");
  EXPECT_EQ(E.Acc1, 0.0);
}

/// The named mutation must lead the report of the structure walk, of
/// checkCvr with the origin's cross checks on, and of checked mode (the
/// blob decoder runs the whole table in
/// BlobDecoderRejectsUnderTheCheckersRule).
void expectCvrMutationCaught(const std::string &Name) {
  for (const CvrMutation &Case : cvrMutations())
    if (Name == Case.Name) {
      CvrMatrix M = mutatedCvr(Case);
      std::vector<Violation> Vs;
      M.checkStructure(Vs, InvariantChecker::MaxViolations);
      expectFirstRule(Vs, Case.Rule, "checkStructure");
      expectFirstRule(InvariantChecker::checkCvr(M, &Case.A), Case.Rule,
                      "checkCvr");
      expectCheckedKernelRefuses(M, Case.Rule);
      return;
    }
  FAIL() << "no CVR mutation named " << Name;
}

TEST(InvariantCheckerMutation, CvrBandTilingBroken) {
  expectCvrMutationCaught("band-tiling");
}

TEST(InvariantCheckerMutation, CvrChunkLayoutBroken) {
  expectCvrMutationCaught("chunk-layout");
}

TEST(InvariantCheckerMutation, CvrSwappedRecords) {
  expectCvrMutationCaught("swapped-records");
}

TEST(InvariantCheckerMutation, CvrDuplicateRecordPosition) {
  expectCvrMutationCaught("duplicate-position");
}

TEST(InvariantCheckerMutation, CvrRecordPositionOutOfRange) {
  expectCvrMutationCaught("record-position-range");
}

TEST(InvariantCheckerMutation, CvrStealSlotOutOfRange) {
  expectCvrMutationCaught("steal-slot");
}

TEST(InvariantCheckerMutation, CvrFeedRowOutOfRange) {
  expectCvrMutationCaught("feed-row");
}

TEST(InvariantCheckerMutation, CvrColumnOutOfRange) {
  expectCvrMutationCaught("column-range");
}

TEST(InvariantCheckerMutation, CvrWildColumnU16) {
  expectCvrMutationCaught("wild-column-u16");
}

TEST(InvariantCheckerMutation, CvrTailRowOutOfRange) {
  expectCvrMutationCaught("tail-row-range");
}

TEST(InvariantCheckerMutation, CvrTailRowBelowUnusedMarker) {
  expectCvrMutationCaught("tail-below-unused");
}

TEST(InvariantCheckerMutation, CvrTruncatedIndexStream) {
  expectCvrMutationCaught("truncated-index-stream");
}

TEST(InvariantCheckerMutation, CvrZeroRowPastY) {
  expectCvrMutationCaught("zero-row-past-y");
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
  // layout, unless a section count bound rejects it before the walk.
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
      if (Case.BlobRule) {
        EXPECT_NE(R.status().message().find("[" + std::string(Case.BlobRule) +
                                            "] "),
                  std::string::npos)
            << R.status().message();
        continue;
      }
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
// Checked kernels.
//===----------------------------------------------------------------------===//

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

TEST(CheckedSpmv, CatchesGatherOutOfRange) {
  // A u32 column past the end of x: checked SpMV refuses to gather it and
  // names the column rule.
  CsrMatrix A = testMatrix();
  CvrOptions Opts;
  Opts.Indices = ColIndexKind::U32; // Mutates the absolute index stream.
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  Introspect::colIdx(M)[4] = A.numCols() + 1000;
  CheckedKernel K(std::make_unique<serve::CvrViewKernel>(M));
  std::vector<double> X = test::randomVector(A.numCols(), 3);
  std::vector<double> Y(A.numRows(), 0.0);
  K.run(X.data(), Y.data());
  expectRule(K.violations(), "cvr.col.range");
}

TEST(CheckedKernelTest, CvrSpmmRunBatchReportsWildGather) {
  // A column index of 2^30 would send the native panel loop 8 GiB past X.
  // Checked runBatch walks the structure first: it reports the column and
  // returns without running the panel loop.
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
  expectRule(K.violations(), "cvr.col.range");
  for (const Violation &V : K.violations())
    EXPECT_EQ(V.Rule, "cvr.col.range")
        << analysis::formatViolations(K.violations());
}

} // namespace
} // namespace cvr
