//===- tests/ServeTest.cpp - Serving daemon unit + soak tests -------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The serving layer end to end, without a daemon process and without a
// single sleep: the wire protocol round-trips and survives truncation
// fuzzing, admission sheds exactly at capacity, deadlines are driven by an
// injectable clock (expiry at each phase boundary, the ride down the
// degradation ladder), the kernel cache behaves as an LRU, and a
// multi-threaded soak hammers one Service from many threads — the test the
// TSan CI leg exists for.
//
//===----------------------------------------------------------------------===//

#include "analysis/InvariantChecker.h"
#include "gen/Generators.h"
#include "io/MatrixMarket.h"
#include "matrix/Reference.h"
#include "obs/Telemetry.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Crc32c.h"
#include "support/FailPoint.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

namespace cvr {
namespace serve {
namespace {

//===----------------------------------------------------------------------===//
// Fixtures
//===----------------------------------------------------------------------===//

/// A fleet with one mapped-blob entry ("m") over a deterministic random
/// matrix, written to (and cleaned from) a per-test temp file.
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    failpoint::disarmAll();
    A = test::randomCsr(64, 64, 0.15, 41);
    CvrMatrix M = CvrMatrix::fromCsr(A);
    std::ofstream OS(BlobPath, std::ios::binary);
    ASSERT_TRUE(OS.good());
    ASSERT_TRUE(M.writeBlob(OS, BlobLayout::Mapped).ok());
    OS.close();
    TheFleet = std::make_unique<Fleet>();
    Status S = TheFleet->addBlob("m", BlobPath);
    ASSERT_TRUE(S.ok()) << S.toString();
    ASSERT_EQ(TheFleet->find("m")->Mode, LoadMode::Mapped);
  }

  void TearDown() override {
    failpoint::disarmAll();
    (void)std::remove(BlobPath.c_str());
  }

  Request multiplyRequest() const {
    Request R;
    R.Kind = Op::Multiply;
    R.Matrix = "m";
    R.X = test::randomVector(static_cast<std::size_t>(A.numCols()), 5);
    return R;
  }

  void expectMatchesReference(const Request &R, const Response &Resp) const {
    ASSERT_EQ(Resp.Code, StatusCode::Ok) << Resp.Message;
    std::vector<double> Ref = referenceSpmv(A, R.X);
    EXPECT_LE(maxRelDiff(Ref, Resp.Y), test::SpmvTolerance);
  }

  std::string BlobPath = test::uniqueTempPath(".cvr");
  CsrMatrix A;
  std::unique_ptr<Fleet> TheFleet;
};

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, SpmmRequestRoundTrip) {
  Request R;
  R.Kind = Op::Spmm;
  R.DeadlineMicros = 123456789;
  R.Matrix = "web-Google";
  R.X = {1.0, -2.5, 3.25, 0.0, 1e300, -1e-300};
  R.NumVectors = 3;

  std::string Body = encodeRequest(R);
  Request Out;
  Status S = decodeRequest(Body.data(), Body.size(), Out);
  ASSERT_TRUE(S.ok()) << S.toString();
  EXPECT_EQ(Out.Kind, R.Kind);
  EXPECT_EQ(Out.DeadlineMicros, R.DeadlineMicros);
  EXPECT_EQ(Out.Matrix, R.Matrix);
  EXPECT_EQ(Out.X, R.X);
  EXPECT_EQ(Out.NumVectors, R.NumVectors);
}

TEST(ServeProtocolTest, SolveRequestRoundTrip) {
  Request R;
  R.Kind = Op::Solve;
  R.Matrix = "poisson";
  R.X = {0.5, 0.25};
  R.Solver = SolverKind::BiCgStab;
  R.MaxIterations = 77;
  R.Tolerance = 3e-7;

  std::string Body = encodeRequest(R);
  Request Out;
  Status S = decodeRequest(Body.data(), Body.size(), Out);
  ASSERT_TRUE(S.ok()) << S.toString();
  EXPECT_EQ(Out.Kind, R.Kind);
  EXPECT_EQ(Out.Matrix, R.Matrix);
  EXPECT_EQ(Out.X, R.X);
  EXPECT_EQ(Out.Solver, R.Solver);
  EXPECT_EQ(Out.MaxIterations, R.MaxIterations);
  EXPECT_EQ(Out.Tolerance, R.Tolerance);
}

TEST(ServeProtocolTest, ResponseRoundTrip) {
  Response R;
  R.Code = StatusCode::Ok;
  R.Variant = "CVR[view+pf4]";
  R.Downgrades.push_back({"CVR+tuned[exec] -> CVR[view]: DEADLINE_EXCEEDED"});
  R.Y = {0.5, -0.25, 8.0};
  R.NumVectors = 1;
  R.Text = "eigenvalue=2.5";
  R.Converged = true;
  R.Iterations = 12;
  R.Residual = 1e-11;

  std::string Body = encodeResponse(R);
  Response Out;
  Status S = decodeResponse(Body.data(), Body.size(), Out);
  ASSERT_TRUE(S.ok()) << S.toString();
  EXPECT_EQ(Out.Code, R.Code);
  EXPECT_EQ(Out.Variant, R.Variant);
  ASSERT_EQ(Out.Downgrades.size(), 1u);
  EXPECT_EQ(Out.Downgrades[0].Text, R.Downgrades[0].Text);
  EXPECT_EQ(Out.Y, R.Y);
  EXPECT_EQ(Out.Text, R.Text);
  EXPECT_TRUE(Out.Converged);
  EXPECT_EQ(Out.Iterations, R.Iterations);
  EXPECT_EQ(Out.Residual, R.Residual);
}

TEST(ServeProtocolTest, EveryTruncationRejected) {
  Request Req;
  Req.Kind = Op::Multiply;
  Req.Matrix = "m";
  Req.X = {1.0, 2.0, 3.0};
  std::string Body = encodeRequest(Req);
  for (std::size_t Len = 0; Len < Body.size(); ++Len) {
    Request Out;
    EXPECT_FALSE(decodeRequest(Body.data(), Len, Out).ok())
        << "request truncated to " << Len << " accepted";
  }

  Response Resp;
  Resp.Code = StatusCode::Ok;
  Resp.Variant = "CVR[view]";
  Resp.Y = {4.0, 5.0};
  std::string RBody = encodeResponse(Resp);
  for (std::size_t Len = 0; Len < RBody.size(); ++Len) {
    Response Out;
    EXPECT_FALSE(decodeResponse(RBody.data(), Len, Out).ok())
        << "response truncated to " << Len << " accepted";
  }
}

TEST(ServeProtocolTest, TrailingBytesRejected) {
  std::string Body = encodeRequest(Request{});
  Body.push_back('\0');
  Request Out;
  EXPECT_FALSE(decodeRequest(Body.data(), Body.size(), Out).ok());
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

TEST(AdmissionTest, TokensExhaustExactlyAtCapacity) {
  AdmissionController Admit(2);
  StatusOr<Permit> P1 = Admit.tryAcquire();
  StatusOr<Permit> P2 = Admit.tryAcquire();
  ASSERT_TRUE(P1.ok());
  ASSERT_TRUE(P2.ok());
  EXPECT_EQ(Admit.inFlight(), 2);

  StatusOr<Permit> P3 = Admit.tryAcquire();
  ASSERT_FALSE(P3.ok());
  EXPECT_EQ(P3.status().code(), StatusCode::ResourceExhausted);
  EXPECT_EQ(Admit.shedCount(), 1);

  { Permit Done = std::move(*P1); } // Release one token...
  StatusOr<Permit> P4 = Admit.tryAcquire(); // ...and capacity returns.
  EXPECT_TRUE(P4.ok());
}

//===----------------------------------------------------------------------===//
// Deadlines (ManualClock: not one sleep in this file)
//===----------------------------------------------------------------------===//

TEST(DeadlineTest, ManualClockExpiry) {
  ManualClock C;
  Deadline D = Deadline::afterMicros(C, 100);
  EXPECT_TRUE(D.check("admit").ok());
  EXPECT_FALSE(D.expired());

  C.advanceMicros(99);
  EXPECT_TRUE(D.check("tune").ok());
  C.advanceMicros(1);
  Status S = D.check("execute");
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::DeadlineExceeded);
  EXPECT_NE(S.message().find("execute"), std::string::npos);

  EXPECT_TRUE(Deadline::never().check("anything").ok());
}

TEST(DeadlineTest, BackoffScheduleIsBoundedAndDeadlineAware) {
  BackoffPolicy B; // 200us, x2, cap 50ms, 5 retries.
  EXPECT_EQ(B.delayMicros(0), 200);
  EXPECT_EQ(B.delayMicros(1), 400);
  EXPECT_LE(B.delayMicros(4), B.MaxMicros);
  EXPECT_LT(B.delayMicros(5), 0); // Budget spent: stop retrying.
  EXPECT_TRUE(B.shouldRetry(0));
  EXPECT_FALSE(B.shouldRetry(5));

  ManualClock C;
  Deadline D = Deadline::afterMicros(C, 100); // Less than the first delay.
  EXPECT_FALSE(B.shouldRetry(0, D)) << "retry would sleep past the deadline";
}

/// Clock that advances a fixed step on every read — each phase boundary
/// observes a strictly later time, so a multi-phase request can expire
/// mid-pipeline without any real waiting.
class SteppingClock : public Clock {
public:
  SteppingClock(std::int64_t StepNanos) : Step(StepNanos) {}
  std::int64_t nowNanos() const override {
    return Now.fetch_add(Step, std::memory_order_relaxed);
  }

private:
  mutable std::atomic<std::int64_t> Now{0};
  std::int64_t Step;
};

TEST_F(ServeTest, ExpiringRequestRidesTheLadderDown) {
  // 10ms elapse at every clock read against a 75ms budget: alive at the
  // admit and tune checkpoints, but the tune gate's remaining-budget probe
  // sees 45ms — under the 50ms tuning threshold — so tuning is skipped (a
  // recorded downgrade, not an error) and execution still completes.
  SteppingClock C(10 * 1000 * 1000);
  ServiceOptions Opts;
  Opts.ClockSource = &C;
  Service Svc(*TheFleet, Opts);

  Request R = multiplyRequest();
  R.DeadlineMicros = 75000;
  Response Resp = Svc.handle(R);
  ASSERT_EQ(Resp.Code, StatusCode::Ok) << Resp.Message;
  ASSERT_EQ(Resp.Downgrades.size(), 1u);
  EXPECT_NE(Resp.Downgrades[0].Text.find("CVR+tuned[exec] -> CVR[view]"),
            std::string::npos)
      << Resp.Downgrades[0].Text;
  EXPECT_EQ(Resp.Variant, "CVR[view]");
  expectMatchesReference(R, Resp);
}

TEST_F(ServeTest, BudgetGoneBeforeAdmitIsDeadlineExceeded) {
  // 60ms per read against a 50ms budget: already expired at the admit
  // checkpoint — the request never reaches a kernel.
  SteppingClock C(60 * 1000 * 1000);
  ServiceOptions Opts;
  Opts.ClockSource = &C;
  Service Svc(*TheFleet, Opts);

  Request R = multiplyRequest();
  R.DeadlineMicros = 50000;
  Response Resp = Svc.handle(R);
  EXPECT_EQ(Resp.Code, StatusCode::DeadlineExceeded);
  EXPECT_NE(Resp.Message.find("admit"), std::string::npos) << Resp.Message;
  EXPECT_TRUE(Resp.Y.empty());
}

TEST_F(ServeTest, DeadlineFailPointForcesExpiryAtEachPhase) {
  Service Svc(*TheFleet);

  // Fires at the first checkpoint: admit.
  ASSERT_TRUE(failpoint::armFromSpec("serve.deadline=1").ok());
  Response AtAdmit = Svc.handle(multiplyRequest());
  EXPECT_EQ(AtAdmit.Code, StatusCode::DeadlineExceeded);
  EXPECT_NE(AtAdmit.Message.find("admit"), std::string::npos);

  // Skip admit, fire at tune: the ladder records the skipped tuning and
  // the request completes on the plain view kernel.
  failpoint::disarmAll();
  ASSERT_TRUE(failpoint::armFromSpec("serve.deadline=1@1").ok());
  Request R = multiplyRequest();
  Response AtTune = Svc.handle(R);
  ASSERT_EQ(AtTune.Code, StatusCode::Ok) << AtTune.Message;
  ASSERT_EQ(AtTune.Downgrades.size(), 1u);
  EXPECT_EQ(AtTune.Variant, "CVR[view]");
  expectMatchesReference(R, AtTune);

  // Skip admit and tune, fire at execute: too late for any rung — the
  // response is DEADLINE_EXCEEDED and carries the (empty) trail.
  failpoint::disarmAll();
  ASSERT_TRUE(failpoint::armFromSpec("serve.deadline=1@2").ok());
  Response AtExec = Svc.handle(multiplyRequest());
  EXPECT_EQ(AtExec.Code, StatusCode::DeadlineExceeded);
  EXPECT_NE(AtExec.Message.find("execute"), std::string::npos);
}

TEST_F(ServeTest, ShedRequestsGetResourceExhausted) {
  Service Svc(*TheFleet);
  ASSERT_TRUE(failpoint::armFromSpec("serve.queue_full").ok());
  Response Resp = Svc.handle(multiplyRequest());
  EXPECT_EQ(Resp.Code, StatusCode::ResourceExhausted);
  EXPECT_EQ(Svc.admission().shedCount(), 1);

  // Control ops bypass admission: the daemon stays observable exactly
  // when it is overloaded.
  Request Stats;
  Stats.Kind = Op::Stats;
  Response StatsResp = Svc.handle(Stats);
  EXPECT_EQ(StatsResp.Code, StatusCode::Ok);
  EXPECT_NE(StatsResp.Text.find("\"shed\":1"), std::string::npos)
      << StatsResp.Text;
}

TEST_F(ServeTest, StatsExportsHistogramBucketsThatSumToTheCount) {
  Service Svc(*TheFleet);
  Request R = multiplyRequest();
  expectMatchesReference(R, Svc.handle(R));

  Request Stats;
  Stats.Kind = Op::Stats;
  Response Resp = Svc.handle(Stats);
  ASSERT_EQ(Resp.Code, StatusCode::Ok) << Resp.Message;
  const std::string &J = Resp.Text;
  const std::string Key = "\"serve.request_micros\":{\"count\":";
  std::size_t P = J.find(Key);
  ASSERT_NE(P, std::string::npos) << J;
  const long long Count = std::strtoll(J.c_str() + P + Key.size(), nullptr, 10);
  EXPECT_GE(Count, 1);

  std::size_t Open = J.find("\"buckets\":[", P);
  std::size_t Close = J.find(']', Open);
  ASSERT_NE(Open, std::string::npos) << J;
  ASSERT_NE(Close, std::string::npos) << J;
  std::istringstream Cells(J.substr(Open + 11, Close - Open - 11));
  long long Sum = 0;
  int NumBuckets = 0;
  for (std::string Cell; std::getline(Cells, Cell, ',');) {
    Sum += std::stoll(Cell);
    ++NumBuckets;
  }
  EXPECT_EQ(NumBuckets, obs::HistogramBuckets);
  EXPECT_EQ(Sum, Count) << J.substr(P, Close - P + 1);
}

//===----------------------------------------------------------------------===//
// Kernel cache
//===----------------------------------------------------------------------===//

TEST(KernelCacheTest, LruEvictionOrder) {
  KernelCache C(2);
  C.insert(1, {2, 0.5});
  C.insert(2, {4, 0.25});
  ExecPlan P;
  ASSERT_TRUE(C.lookup(1, P)); // 1 is now most recent.
  EXPECT_EQ(P.PrefetchDistance, 2);

  C.insert(3, {8, 0.125}); // Evicts 2, the least recently used.
  EXPECT_FALSE(C.lookup(2, P));
  EXPECT_TRUE(C.lookup(1, P));
  EXPECT_TRUE(C.lookup(3, P));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.evictions(), 1);
  EXPECT_EQ(C.misses(), 1);
}

TEST_F(ServeTest, RepeatRequestsHitTheKernelCache) {
  Service Svc(*TheFleet);
  Request R = multiplyRequest();
  expectMatchesReference(R, Svc.handle(R));
  expectMatchesReference(R, Svc.handle(R));
  EXPECT_EQ(TheFleet->kernelCache().misses(), 1);
  EXPECT_GE(TheFleet->kernelCache().hits(), 1);
}

//===----------------------------------------------------------------------===//
// Service semantics
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, UnknownMatrixIsNotFound) {
  Service Svc(*TheFleet);
  Request R = multiplyRequest();
  R.Matrix = "nope";
  EXPECT_EQ(Svc.handle(R).Code, StatusCode::NotFound);
}

TEST_F(ServeTest, WrongOperandSizeIsInvalidArgument) {
  Service Svc(*TheFleet);
  Request R = multiplyRequest();
  R.X.pop_back();
  EXPECT_EQ(Svc.handle(R).Code, StatusCode::InvalidArgument);
}

TEST_F(ServeTest, SolveRejectsAnOperandOfTheWrongLength) {
  Service Svc(*TheFleet);
  const auto N = static_cast<std::size_t>(A.numRows());
  Request R;
  R.Kind = Op::Solve;
  R.Matrix = "m";
  R.MaxIterations = 5;
  for (SolverKind K : {SolverKind::Cg, SolverKind::BiCgStab,
                       SolverKind::Power}) {
    SCOPED_TRACE(static_cast<int>(K));
    R.Solver = K;
    // Power's start vector is optional, but one of the wrong length is
    // as malformed as a short right-hand side.
    R.X = test::randomVector(N - 1, 3);
    Response Resp = Svc.handle(R);
    EXPECT_EQ(Resp.Code, StatusCode::InvalidArgument) << Resp.Message;
    R.X = test::randomVector(N, 3);
    EXPECT_EQ(Svc.handle(R).Code, StatusCode::Ok);
  }
  R.X.clear(); // No start vector: power iteration seeds its own.
  Response Resp = Svc.handle(R);
  EXPECT_EQ(Resp.Code, StatusCode::Ok) << Resp.Message;
  EXPECT_EQ(Resp.Y.size(), N);
}

TEST_F(ServeTest, StatsAndListNameEachBlobsStreamKinds) {
  // "m" holds random values (f64) over 64 columns (u16); a 27-point
  // stencil's integer values are exact in fp32.
  CvrMatrix Stencil = CvrMatrix::fromCsr(genStencil27(6, 6, 6));
  std::string Path = test::uniqueTempPath(".cvr");
  {
    std::ofstream OS(Path, std::ios::binary);
    ASSERT_TRUE(Stencil.writeBlob(OS, BlobLayout::Mapped).ok());
  }
  Status S = TheFleet->addBlob("stencil", Path);
  (void)std::remove(Path.c_str());
  ASSERT_TRUE(S.ok()) << S.toString();
  const CvrMatrix &M = TheFleet->find("m")->M;
  const double MBytesPerNnz = static_cast<double>(M.formatBytes()) /
                              static_cast<double>(M.numNonZeros());
  const double StencilBytesPerNnz =
      static_cast<double>(Stencil.formatBytes()) /
      static_cast<double>(Stencil.numNonZeros());
  EXPECT_LT(StencilBytesPerNnz, MBytesPerNnz);

  struct Want {
    std::string Name, Values;
    double BytesPerNnz;
  };
  const Want Wants[] = {{"m", "f64", MBytesPerNnz},
                        {"stencil", "f32x64", StencilBytesPerNnz}};

  Service Svc(*TheFleet);
  Request Stats;
  Stats.Kind = Op::Stats;
  const std::string J = Svc.handle(Stats).Text;
  for (const Want &W : Wants) {
    std::size_t P = J.find("{\"name\":\"" + W.Name + "\",");
    ASSERT_NE(P, std::string::npos) << J;
    // The entry's own kinds: the first ones after its name.
    EXPECT_EQ(J.find("\"value_kind\":\"" + W.Values +
                         "\",\"index_kind\":\"u16\",",
                     P),
              J.find("\"value_kind\"", P))
        << W.Name << ": " << J;
    const std::string Key = "\"bytes_per_nnz\":";
    std::size_t B = J.find(Key, P);
    ASSERT_NE(B, std::string::npos) << J;
    EXPECT_NEAR(std::strtod(J.c_str() + B + Key.size(), nullptr),
                W.BytesPerNnz, 1e-3)
        << W.Name;
  }

  Request List;
  List.Kind = Op::List;
  std::istringstream Lines(Svc.handle(List).Text);
  std::size_t Seen = 0;
  for (std::string Line; std::getline(Lines, Line); ++Seen) {
    std::istringstream F(Line);
    std::string Name, Mode, Values, Indices;
    long long Rows = 0, Cols = 0, Nnz = 0;
    double BytesPerNnz = 0.0;
    ASSERT_TRUE(F >> Name >> Rows >> Cols >> Nnz >> Mode >> Values >>
                Indices >> BytesPerNnz)
        << Line;
    const Want &W = Name == "m" ? Wants[0] : Wants[1];
    EXPECT_EQ(Name, W.Name);
    EXPECT_EQ(Mode, "mapped");
    EXPECT_EQ(Values, W.Values) << Line;
    EXPECT_EQ(Indices, "u16") << Line;
    EXPECT_NEAR(BytesPerNnz, W.BytesPerNnz, 1e-3) << Line;
  }
  EXPECT_EQ(Seen, 2u);
}

TEST_F(ServeTest, SpmmPanelMatchesReferencePerColumn) {
  Service Svc(*TheFleet);
  const int K = 3;
  const auto Cols = static_cast<std::size_t>(A.numCols());
  Request R;
  R.Kind = Op::Spmm;
  R.Matrix = "m";
  R.NumVectors = K;
  R.X = test::randomVector(Cols * K, 9);

  Response Resp = Svc.handle(R);
  ASSERT_EQ(Resp.Code, StatusCode::Ok) << Resp.Message;
  const auto Rows = static_cast<std::size_t>(A.numRows());
  ASSERT_EQ(Resp.Y.size(), Rows * K);
  std::vector<double> Xc(Cols), Yc(Rows);
  for (int J = 0; J < K; ++J) {
    for (std::size_t I = 0; I < Cols; ++I)
      Xc[I] = R.X[I * K + static_cast<std::size_t>(J)];
    std::vector<double> Ref = referenceSpmv(A, Xc);
    for (std::size_t I = 0; I < Rows; ++I)
      Yc[I] = Resp.Y[I * K + static_cast<std::size_t>(J)];
    EXPECT_LE(maxRelDiff(Ref, Yc), test::SpmvTolerance) << "column " << J;
  }
}

TEST_F(ServeTest, CvrSpmmRidesTheUntunedViewKernel) {
  // Spmm runs the panel kernel, which takes no prefetch distance: a first
  // Spmm on a blob entry neither tunes nor caches a plan and reports the
  // plain view kernel. A later Multiply still tunes and caches.
  Service Svc(*TheFleet);
  const int K = 8;
  const auto Cols = static_cast<std::size_t>(A.numCols());
  const auto Rows = static_cast<std::size_t>(A.numRows());
  Request R;
  R.Kind = Op::Spmm;
  R.Matrix = "m";
  R.NumVectors = K;
  R.X = test::randomVector(Cols * K, 11);

  Response Resp = Svc.handle(R);
  ASSERT_EQ(Resp.Code, StatusCode::Ok) << Resp.Message;
  EXPECT_EQ(Resp.Variant, "CVR[view]");
  EXPECT_TRUE(Resp.Downgrades.empty());
  ASSERT_EQ(Resp.Y.size(), Rows * K);
  std::vector<double> Xc(Cols), Yc(Rows);
  for (int J = 0; J < K; ++J) {
    for (std::size_t I = 0; I < Cols; ++I)
      Xc[I] = R.X[I * K + static_cast<std::size_t>(J)];
    std::vector<double> Ref = referenceSpmv(A, Xc);
    for (std::size_t I = 0; I < Rows; ++I)
      Yc[I] = Resp.Y[I * K + static_cast<std::size_t>(J)];
    EXPECT_LE(maxRelDiff(Ref, Yc), test::SpmvTolerance) << "column " << J;
  }
  EXPECT_EQ(TheFleet->kernelCache().size(), 0u);
  EXPECT_EQ(TheFleet->kernelCache().misses(), 0);

  Request M = multiplyRequest();
  expectMatchesReference(M, Svc.handle(M));
  EXPECT_EQ(TheFleet->kernelCache().size(), 1u);
  EXPECT_EQ(TheFleet->kernelCache().misses(), 1);
}

TEST_F(ServeTest, MatrixMarketEntryServesThroughTheLadder) {
  std::string MtxPath = test::uniqueTempPath(".mtx");
  ASSERT_TRUE(writeMatrixMarketFile(MtxPath, A.toCoo()).ok());
  Status S = TheFleet->addMatrixMarket("ladder", MtxPath);
  (void)std::remove(MtxPath.c_str());
  ASSERT_TRUE(S.ok()) << S.toString();
  std::shared_ptr<const ServedMatrix> Entry = TheFleet->find("ladder");
  EXPECT_EQ(Entry->Mode, LoadMode::Prepared);
  // The ladder's top rung is the default CVR conversion; it prepares.
  EXPECT_EQ(Entry->Prepared.Requested, "CVR");
  EXPECT_EQ(Entry->Prepared.Actual, "CVR");
  EXPECT_TRUE(Entry->Prepared.Downgrades.empty());

  Service Svc(*TheFleet);
  Request R = multiplyRequest();
  R.Matrix = "ladder";
  expectMatchesReference(R, Svc.handle(R));
}

/// Rewrites \p Len bytes at \p Off of blob section \p Section's payload
/// (0 chunk table, 1 bands, 2 zero rows, 3 records, 4 tails) and re-seals
/// the section's CRC32C, so the structure rules, not a checksum, see the
/// edit.
void patchSection(std::string &Blob, bool Mapped, int Section,
                  std::size_t Off, const void *Bytes, std::size_t Len) {
  const std::size_t ElemBytes[] = {sizeof(CvrChunk), sizeof(CvrBand),
                                   sizeof(std::int32_t), sizeof(CvrRecord),
                                   sizeof(std::int32_t)};
  // The first section's u64 count follows magic, version, the 27-byte
  // header and its CRC; a Mapped section has a u8 pad length and that many
  // pad bytes before its payload.
  std::size_t At = 39;
  for (int I = 0;; ++I) {
    std::uint64_t Count = 0;
    std::memcpy(&Count, &Blob[At], sizeof(Count));
    At += sizeof(Count);
    if (Mapped)
      At += 1 + static_cast<unsigned char>(Blob[At]);
    const std::size_t Payload = Count * ElemBytes[I];
    if (I == Section) {
      std::memcpy(&Blob[At + Off], Bytes, Len);
      const std::uint32_t Crc = crc32c(Blob.data() + At, Payload);
      std::memcpy(&Blob[At + Payload], &Crc, sizeof(Crc));
      return;
    }
    At += Payload + sizeof(std::uint32_t);
  }
}

TEST_F(ServeTest, StructurallyCorruptBlobRejectedByEveryReader) {
  // CRC-consistent blobs of a real conversion, each breaking one structure
  // rule: a live tail slot naming a row past y (cvrSpmv would write
  // y[numRows + 100]), and chunk 0's tail range moved onto chunk 1's, in
  // bounds but not at chunk x lanes. Every reader runs the same structure
  // walk, so each rejects both, DATA_LOSS naming the rule: readBlob,
  // mapBlob, both checkBlob overloads, and the fleet, whose Compact (v3)
  // load takes the copying stream path.
  CvrOptions Opts;
  Opts.NumThreads = 4;
  const CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  ASSERT_GE(M.numChunks(), 2);
  std::size_t Slot = 0;
  while (Slot < M.chunks().size() * M.lanes() && M.tails()[Slot] < 0)
    ++Slot;
  ASSERT_LT(Slot, M.chunks().size() * M.lanes()) << "no tail slot in use";
  const std::int32_t WildRow = M.numRows() + 100;
  const std::int64_t ShiftedBase = M.lanes();
  const struct {
    const char *Rule;
    int Section;
    std::size_t Off;
    const void *Bytes;
    std::size_t Len;
  } Cases[] = {
      {"cvr.tail.row-range", 4, Slot * sizeof(std::int32_t), &WildRow,
       sizeof(WildRow)},
      {"cvr.chunk.layout", 0, offsetof(CvrChunk, TailBase), &ShiftedBase,
       sizeof(ShiftedBase)},
  };

  for (const auto &Case : Cases)
    for (BlobLayout Layout : {BlobLayout::Compact, BlobLayout::Mapped}) {
      const bool Mapped = Layout == BlobLayout::Mapped;
      SCOPED_TRACE(std::string(Case.Rule) + (Mapped ? " mapped" : " compact"));
      std::ostringstream OS;
      ASSERT_TRUE(M.writeBlob(OS, Layout).ok());
      std::string Blob = OS.str();
      patchSection(Blob, Mapped, Case.Section, Case.Off, Case.Bytes,
                   Case.Len);
      auto ExpectRejected = [&](const Status &S, const char *Reader) {
        EXPECT_EQ(S.code(), StatusCode::DataLoss) << Reader << ": "
                                                  << S.toString();
        EXPECT_NE(S.message().find(Case.Rule), std::string::npos)
            << Reader << ": " << S.toString();
      };
      auto ExpectViolation = [&](const std::vector<analysis::Violation> &Vs,
                                 const char *Reader) {
        ASSERT_EQ(Vs.size(), 1u) << Reader;
        EXPECT_EQ(Vs[0].Rule, Case.Rule) << Reader;
        EXPECT_EQ(Vs[0].Message.rfind("DATA_LOSS: ", 0), 0u) << Reader;
      };

      std::istringstream IS(Blob);
      ExpectRejected(CvrMatrix::readBlob(IS).status(), "readBlob");
      std::istringstream CheckIS(Blob);
      ExpectViolation(analysis::InvariantChecker::checkBlob(CheckIS),
                      "checkBlob(stream)");
      AlignedBuffer<char> Img(Blob.size());
      std::memcpy(Img.data(), Blob.data(), Blob.size());
      StatusOr<CvrMatrix> View = CvrMatrix::mapBlob(Img.data(), Blob.size());
      if (Mapped) {
        ExpectRejected(View.status(), "mapBlob");
        ExpectViolation(
            analysis::InvariantChecker::checkBlob(Img.data(), Blob.size()),
            "checkBlob(image)");
      } else {
        // The Compact layout cannot be mapped; the fleet streams it.
        EXPECT_EQ(View.status().code(), StatusCode::FailedPrecondition);
      }

      const std::string BadPath = test::uniqueTempPath(".bad.cvr");
      {
        std::ofstream Out(BadPath, std::ios::binary);
        Out.write(Blob.data(), static_cast<std::streamsize>(Blob.size()));
      }
      ExpectRejected(TheFleet->addBlob("bad", BadPath), "Fleet::addBlob");
      (void)std::remove(BadPath.c_str());
      EXPECT_EQ(TheFleet->find("bad"), nullptr);
    }
}

//===----------------------------------------------------------------------===//
// Oneshot transport (socketpair; the ctest smoke in miniature)
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, OneshotOverSocketpair) {
  Service Svc(*TheFleet);
  ServerOptions Opts;
  Opts.InstallSignalHandlers = false;
  Server Srv(Svc, Opts);

  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  Status ServeS = Status::okStatus();
  std::thread ServerSide([&] { ServeS = Srv.serveOneshot(Fds[1]); });

  Client C = Client::adopt(Fds[0]);
  Request R = multiplyRequest();
  Response Resp;
  Status CallS = C.call(R, Resp);
  ServerSide.join();
  (void)close(Fds[1]);

  ASSERT_TRUE(CallS.ok()) << CallS.toString();
  ASSERT_TRUE(ServeS.ok()) << ServeS.toString();
  expectMatchesReference(R, Resp);
}

TEST_F(ServeTest, OneshotRejectsGarbageFrame) {
  Service Svc(*TheFleet);
  ServerOptions Opts;
  Opts.InstallSignalHandlers = false;
  Server Srv(Svc, Opts);

  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  Status ServeS = Status::okStatus();
  std::thread ServerSide([&] { ServeS = Srv.serveOneshot(Fds[1]); });

  ASSERT_TRUE(writeFrame(Fds[0], "not a request").ok());
  std::string Body;
  Status ReadS = readFrame(Fds[0], Body);
  ServerSide.join();
  (void)close(Fds[1]);

  ASSERT_TRUE(ReadS.ok()) << ReadS.toString();
  Response Resp;
  ASSERT_TRUE(decodeResponse(Body.data(), Body.size(), Resp).ok());
  EXPECT_EQ(Resp.Code, StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Concurrency soak (the TSan leg's main course)
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ConcurrentSoakShedsCleanly) {
  ServiceOptions Opts;
  Opts.MaxInFlight = 3;
  Service Svc(*TheFleet, Opts);

  constexpr int Threads = 8;
  constexpr int PerThread = 40;
  std::atomic<int> OkCount{0}, ShedCount{0}, Other{0};
  std::vector<double> Ref = referenceSpmv(
      A, test::randomVector(static_cast<std::size_t>(A.numCols()), 5));

  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        Request R;
        if (I % 5 == 4) {
          R.Kind = Op::Stats; // Control traffic mixed in.
        } else {
          R = multiplyRequest();
        }
        Response Resp = Svc.handle(R);
        if (Resp.Code == StatusCode::Ok) {
          OkCount.fetch_add(1);
          if (R.Kind == Op::Multiply &&
              maxRelDiff(Ref, Resp.Y) > test::SpmvTolerance)
            Other.fetch_add(1); // Wrong answer counts as a failure.
        } else if (Resp.Code == StatusCode::ResourceExhausted) {
          ShedCount.fetch_add(1);
        } else {
          Other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(Other.load(), 0);
  EXPECT_EQ(OkCount.load() + ShedCount.load(), Threads * PerThread);
  EXPECT_GT(OkCount.load(), 0);
  EXPECT_EQ(Svc.admission().inFlight(), 0) << "a permit leaked";
  EXPECT_EQ(Svc.admission().shedCount(), ShedCount.load());
}

//===----------------------------------------------------------------------===//
// Fail-point hygiene the serving layer depends on
//===----------------------------------------------------------------------===//

TEST(ServeFailPointTest, ServeSitesAreCataloged) {
  const char *Expected[] = {"serve.mmap", "serve.accept", "serve.queue_full",
                            "serve.deadline"};
  for (const char *Name : Expected) {
    bool Found = false;
    for (const failpoint::SiteInfo &S : failpoint::catalog())
      Found |= std::string(S.Name) == Name;
    EXPECT_TRUE(Found) << Name << " missing from the fail-point catalog";
  }
}

TEST(ServeFailPointTest, MalformedSpecArmsNothing) {
  // Two-phase arming: the valid first site must NOT be armed when a later
  // clause is malformed — a drill never runs with half its fault set.
  EXPECT_FALSE(failpoint::armFromSpec("serve.mmap;serve.deadline=oops").ok());
  EXPECT_TRUE(failpoint::armedSites().empty());
  EXPECT_TRUE(failpoint::envSpecStatus().ok())
      << "tests must run without CVR_FAILPOINTS in the environment";
}

} // namespace
} // namespace serve
} // namespace cvr
