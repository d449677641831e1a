//===- tests/ObservabilityTest.cpp - Telemetry, tracing, PMU fallback -----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contracts:
//
//   * counter merges are deterministic — repeated identical runs and any
//     OpenMP scheduling produce byte-identical snapshots;
//   * structure-derived conversion counters report the same facts at any
//     thread count;
//   * trace sessions render chrome-trace JSON that round-trips through
//     the structural validator (and the validator rejects malformed
//     documents);
//   * PerfCounters degrades to a Status, never a crash, when the PMU is
//     refused (forced via the obs.perf.open fail point).
//
//===----------------------------------------------------------------------===//

#include "core/Cvr.h"
#include "formats/Registry.h"
#include "gen/Generators.h"
#include "obs/PerfCounters.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"
#include "support/ParallelFor.h"

#include <gtest/gtest.h>
#include <omp.h>

#include <memory>
#include <string>
#include <vector>

namespace cvr {
namespace {

class ObservabilityTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setTelemetryEnabled(true);
    obs::resetTelemetry();
  }
  void TearDown() override {
    failpoint::disarmAll();
    obs::resetTelemetry();
  }
};

/// Converts and runs a fixed matrix; the telemetry this populates is the
/// subject under test.
void convertAndRun(const CsrMatrix &A, int Threads) {
  CvrOptions Opts;
  Opts.NumThreads = Threads;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  std::vector<double> X(static_cast<std::size_t>(A.numCols()), 1.0);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.0);
  cvrSpmv(M, X.data(), Y.data());
}

std::string snapshotDigest() {
  std::string D;
  for (const obs::MetricSnapshot &MS : obs::snapshotTelemetry()) {
    D += MS.Name;
    D += '=';
    D += std::to_string(MS.Value);
    D += '/';
    D += std::to_string(MS.Count);
    D += '/';
    D += std::to_string(MS.Sum);
    for (std::int64_t B : MS.Buckets) {
      D += ',';
      D += std::to_string(B);
    }
    D += ';';
  }
  return D;
}

TEST_F(ObservabilityTest, SnapshotDeterministicAcrossRepeatedRuns) {
  CsrMatrix A = genRmat(10, 8, 7);

  convertAndRun(A, 3);
  std::string First = snapshotDigest();
  EXPECT_FALSE(First.empty());

  for (int Round = 0; Round < 3; ++Round) {
    obs::resetTelemetry();
    convertAndRun(A, 3);
    EXPECT_EQ(snapshotDigest(), First) << "round " << Round;
  }
}

TEST_F(ObservabilityTest, ConversionFactsStableAcrossThreadCounts) {
  CsrMatrix A = genStencil27(12, 12, 12);

  std::int64_t NnzAtOne = 0;
  for (int Threads : {1, 2, 4}) {
    obs::resetTelemetry();
    convertAndRun(A, Threads);
    // Partitioning varies with the thread count; the matrix facts the
    // counters re-derive from the structure must not.
    EXPECT_EQ(obs::telemetryValue("convert.cvr.calls"), 1);
    EXPECT_EQ(obs::telemetryValue("spmv.cvr.runs"), 1);
    std::int64_t Nnz = obs::telemetryValue("convert.cvr.nnz");
    if (Threads == 1)
      NnzAtOne = Nnz;
    EXPECT_EQ(Nnz, NnzAtOne) << "threads=" << Threads;
    EXPECT_EQ(Nnz, A.numNonZeros());
  }
}

TEST_F(ObservabilityTest, ShardMergeCountsEveryThreadsBumps) {
  constexpr int BumpsPerThread = 10000;
  const int Threads = omp_get_max_threads();
  ompParallelFor(Threads, Threads, [&](int) {
    obs::Counter &C = obs::counter("test.obs.shard_merge");
    for (int I = 0; I < BumpsPerThread; ++I)
      C.inc();
  });
  EXPECT_EQ(obs::telemetryValue("test.obs.shard_merge"),
            static_cast<std::int64_t>(Threads) * BumpsPerThread);
}

TEST_F(ObservabilityTest, RuntimeGateStopsRecording) {
  obs::Counter &C = obs::counter("test.obs.gate");
  C.inc();
  obs::setTelemetryEnabled(false);
  EXPECT_FALSE(obs::telemetryEnabled());
  obs::setTelemetryEnabled(true);
  C.inc();
  // The gate is advisory for instrumented call sites (they check it);
  // the handle itself always works.
  EXPECT_EQ(obs::telemetryValue("test.obs.gate"), 2);
}

TEST_F(ObservabilityTest, HistogramBucketsCountAndSum) {
  obs::Histogram &H = obs::histogram("test.obs.hist");
  for (std::int64_t V : {1, 2, 3, 1000, 1000000})
    H.observe(V);
  for (const obs::MetricSnapshot &MS : obs::snapshotTelemetry()) {
    if (MS.Name != "test.obs.hist")
      continue;
    EXPECT_EQ(MS.Kind, obs::MetricKind::Histogram);
    EXPECT_EQ(MS.Count, 5);
    EXPECT_EQ(MS.Sum, 1 + 2 + 3 + 1000 + 1000000);
    std::int64_t BucketTotal = 0;
    for (std::int64_t B : MS.Buckets)
      BucketTotal += B;
    EXPECT_EQ(BucketTotal, MS.Count);
    return;
  }
  FAIL() << "test.obs.hist not in the snapshot";
}

TEST_F(ObservabilityTest, TraceRoundTripsThroughValidator) {
  obs::traceStart();
  {
    obs::TraceSpan Outer("test/outer", "test");
    Outer.arg("rows", 128);
    Outer.arg("nnz", 4096);
    { obs::TraceSpan Inner("test/inner", "test"); }
  }
  CsrMatrix A = genRmat(8, 8, 11);
  convertAndRun(A, 2);

  EXPECT_GE(obs::traceEventCount(), 4u);
  std::string Json = obs::traceStopToJson();
  Status V = obs::validateChromeTrace(Json);
  EXPECT_TRUE(V.ok()) << V.toString();
  // The pipeline's phase names survive into the document.
  EXPECT_NE(Json.find("\"test/outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"convert/cvr\""), std::string::npos);
  EXPECT_NE(Json.find("\"execute/spmv\""), std::string::npos);
  EXPECT_NE(Json.find("\"args\""), std::string::npos);
}

TEST_F(ObservabilityTest, FusedRunTracesSpmvThenEpilogueSweep) {
  // runFused is the plain kernel followed by one epilogue sweep, and a
  // trace shows both phases: CVR's execute/spmv, then the sweep's
  // execute/fused-epilogue from SpmvKernel::runFused. ESB emits no span of
  // its own, so its trace holds the sweep alone.
  CsrMatrix A = genStencil5(16, 16);
  const std::size_t N = static_cast<std::size_t>(A.numRows());
  std::vector<double> X(N, 1.0), Y(N, 0.0);
  CvrKernel Cvr;
  Cvr.prepare(A);
  std::unique_ptr<SpmvKernel> Esb = makeKernel(FormatId::Esb, 1);
  Esb->prepare(A);

  for (const SpmvKernel *K : {static_cast<const SpmvKernel *>(&Cvr),
                              static_cast<const SpmvKernel *>(Esb.get())}) {
    obs::traceStart();
    FusedEpilogue E = FusedEpilogue::dot(true, true);
    K->runFused(X.data(), Y.data(), E);
    EXPECT_GT(E.Acc2, 0.0) << K->name();
    std::string Json = obs::traceStopToJson();
    EXPECT_TRUE(obs::validateChromeTrace(Json).ok()) << K->name();
    EXPECT_NE(Json.find("\"execute/fused-epilogue\""), std::string::npos)
        << K->name();
    EXPECT_EQ(Json.find("\"execute/spmv\"") != std::string::npos,
              K == &Cvr)
        << K->name();
  }
}

TEST_F(ObservabilityTest, ValidatorRejectsMalformedDocuments) {
  const char *Bad[] = {
      "",                                        // no document
      "[]",                                      // not an object
      "{\"traceEvents\": 3}",                    // traceEvents not an array
      "{\"other\": []}",                         // no traceEvents at all
      "{\"traceEvents\": [",                     // unterminated
      "{\"traceEvents\": [{\"ph\": \"X\"}]}",    // event without a name
      "{\"traceEvents\": [{\"name\": \"a\"}]}",  // event without a phase
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", "
      "\"ts\": 1}]}",                            // complete event, no dur
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"B\"}]}", // no ts
  };
  for (const char *Doc : Bad)
    EXPECT_FALSE(obs::validateChromeTrace(Doc).ok()) << Doc;

  EXPECT_TRUE(obs::validateChromeTrace("{\"traceEvents\": []}").ok());
  EXPECT_TRUE(obs::validateChromeTrace(
                  "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", "
                  "\"ts\": 1.5, \"dur\": 2}]}")
                  .ok());
  // Metadata events carry no timestamp.
  EXPECT_TRUE(obs::validateChromeTrace(
                  "{\"traceEvents\": [{\"name\": \"process_name\", "
                  "\"ph\": \"M\", \"pid\": 1}]}")
                  .ok());
}

TEST_F(ObservabilityTest, PerfCountersFallBackWhenPmuRefused) {
  failpoint::arm("obs.perf.open");
  StatusOr<obs::PerfCounters> PC = obs::PerfCounters::tryOpen();
  ASSERT_FALSE(PC.ok());
  EXPECT_EQ(PC.status().code(), StatusCode::Unavailable)
      << PC.status().toString();

  bool Ran = false;
  StatusOr<obs::PerfSample> S = obs::measurePerf([&] { Ran = true; });
  EXPECT_FALSE(S.ok());
  // The workload must not run when measurement is impossible — callers
  // branch to an unmeasured run themselves.
  EXPECT_FALSE(Ran);
}

TEST_F(ObservabilityTest, PerfSampleDerivedRatios) {
  obs::PerfSample S;
  S.Cycles = 1000;
  S.Instructions = 2500;
  S.LlcReferences = 200;
  S.LlcMisses = 50;
  EXPECT_DOUBLE_EQ(S.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(S.missRatio(), 0.25);
  S.LlcReferences = 0;
  EXPECT_LT(S.missRatio(), 0.0); // sentinel, never a division by zero
}

} // namespace
} // namespace cvr
