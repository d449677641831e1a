//===- serve/Service.cpp - Request execution with degradation -------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "obs/Telemetry.h"
#include "solvers/Solvers.h"
#include "support/FailPoint.h"
#include "support/Timer.h"

#include <sstream>

namespace cvr {
namespace serve {

Status deadlineCheckpoint(const Deadline &D, const char *Phase) {
  if (CVR_FAIL_POINT("serve.deadline"))
    return Status::deadlineExceeded(std::string(Phase) +
                                    ": request deadline expired (fail point)");
  return D.check(Phase);
}

Service::Service(Fleet &F, ServiceOptions O)
    : TheFleet(F), Opts(O), Admit(O.MaxInFlight) {}

namespace {

void bump(const char *Name) {
  if (obs::telemetryEnabled())
    obs::counter(Name).inc();
}

Response errorResponse(const Status &S) {
  Response R;
  R.Code = S.code();
  R.Message = S.message();
  return R;
}

/// Names of the value and index streams an entry stores ("-" for both
/// when the ladder moved a prepared entry off CVR).
struct StreamKinds {
  const char *Values = "-";
  const char *Indices = "-";
};

StreamKinds streamKinds(const ServedMatrix &E) {
  const CvrMatrix *M = E.cvr();
  if (!M)
    return {};
  return {valueKindName(M->valueKind()), colIndexKindName(M->colIndexKind())};
}

void recordDowngrade(Response &Resp, const std::string &From,
                     const std::string &To, const Status &Why) {
  Resp.Downgrades.push_back({From + " -> " + To + ": " + Why.toString()});
  bump("serve.degraded");
}

} // namespace

Response Service::handle(const Request &R) {
  bump("serve.requests");
  Timer T;
  Response Resp;
  switch (R.Kind) {
  case Op::Ping: {
    Resp.Variant = "ping";
    break;
  }
  case Op::Stats: {
    Resp.Variant = "stats";
    Resp.Text = statsJson();
    break;
  }
  case Op::List: {
    Resp.Variant = "list";
    std::ostringstream OS;
    for (const auto &E : TheFleet.list()) {
      const StreamKinds K = streamKinds(*E);
      OS << E->Name << ' ' << E->rows() << ' ' << E->cols() << ' '
         << E->nnz() << ' ' << loadModeName(E->Mode) << ' ' << K.Values
         << ' ' << K.Indices << ' ' << E->bytesPerNnz() << '\n';
    }
    Resp.Text = OS.str();
    break;
  }
  case Op::Multiply:
  case Op::Spmm:
  case Op::Solve: {
    // Admission first: shedding must cost nothing but this check.
    StatusOr<Permit> P = Admit.tryAcquire();
    if (!P.ok()) {
      bump("serve.shed");
      Resp = errorResponse(P.status());
      break;
    }
    std::uint64_t Budget =
        R.DeadlineMicros != 0 ? R.DeadlineMicros : Opts.DefaultDeadlineMicros;
    Deadline D = Budget != 0 ? Deadline::afterMicros(*Opts.ClockSource,
                                                     static_cast<std::int64_t>(
                                                         Budget))
                             : Deadline::never();
    Resp = handleCompute(R, D);
    break; // Permit releases here, after the response is built.
  }
  }
  if (obs::telemetryEnabled()) {
    static obs::Histogram &H = obs::histogram("serve.request_micros");
    H.observe(static_cast<std::int64_t>(T.seconds() * 1e6));
    if (Resp.Code == StatusCode::DeadlineExceeded)
      obs::counter("serve.deadline_exceeded").inc();
  }
  return Resp;
}

Response Service::handleCompute(const Request &R, const Deadline &D) {
  if (Status S = deadlineCheckpoint(D, "admit"); !S.ok())
    return errorResponse(S);
  std::shared_ptr<const ServedMatrix> Entry = TheFleet.find(R.Matrix);
  if (!Entry)
    return errorResponse(
        Status::notFound("no served matrix named '" + R.Matrix + "'"));
  switch (R.Kind) {
  case Op::Multiply:
    return handleMultiply(R, *Entry, D);
  case Op::Spmm:
    return handleSpmm(R, *Entry, D);
  case Op::Solve:
    return handleSolve(R, *Entry, D);
  default:
    return errorResponse(Status::internal("non-compute op in compute path"));
  }
}

Status Service::pickKernel(const ServedMatrix &Entry, const Deadline &D,
                           Execution &Out, Response &Resp, bool Tune) {
  if (Entry.Mode == LoadMode::Prepared) {
    // The ladder already ran at load time; surface its trail per request
    // so every response is self-describing.
    Out.K = Entry.Prepared.Kernel.get();
    Out.Variant = Entry.Prepared.Actual;
    for (const DowngradeStep &Step : Entry.Prepared.Downgrades)
      Resp.Downgrades.push_back(
          {Step.FromVariant + " -> " + Step.ToVariant + ": " +
           Step.Reason.toString()});
    return Status::okStatus();
  }

  // Blob entry: tuned-exec rung first (cached plan or a timed sweep),
  // plain view kernel as the floor, and the only rung without Tune.
  ExecPlan Plan;
  bool Tuned = false;
  if (Tune && TheFleet.kernelCache().lookup(Entry.Fingerprint, Plan)) {
    bump("serve.kernel_cache.hit");
    Tuned = true;
  } else if (Tune) {
    bump("serve.kernel_cache.miss");
    Status Gate = deadlineCheckpoint(D, "tune");
    if (Gate.ok() && D.remainingSeconds() < Opts.TuneMinRemainingSeconds &&
        !D.isNever())
      Gate = Status::deadlineExceeded(
          "tune: remaining budget below the tuning threshold");
    if (Gate.ok()) {
      Status S = TheFleet.tuneExec(Entry, D, Plan);
      if (S.ok()) {
        TheFleet.kernelCache().insert(Entry.Fingerprint, Plan);
        Tuned = true;
      } else {
        recordDowngrade(Resp, "CVR+tuned[exec]", "CVR[view]", S);
      }
    } else {
      // The expiring request skips tuning and rides the plain kernel —
      // degradation, not failure.
      recordDowngrade(Resp, "CVR+tuned[exec]", "CVR[view]", Gate);
    }
  }
  Out.Owned = std::make_unique<CvrViewKernel>(
      Entry.M, Tuned ? Plan.PrefetchDistance : 0);
  Out.K = Out.Owned.get();
  Out.Variant = Out.Owned->name();
  return Status::okStatus();
}

Response Service::handleMultiply(const Request &R, const ServedMatrix &Entry,
                                 const Deadline &D) {
  Response Resp;
  if (static_cast<std::int64_t>(R.X.size()) != Entry.cols())
    return errorResponse(Status::invalidArgument(
        "multiply: x has " + std::to_string(R.X.size()) + " elements, '" +
        Entry.Name + "' has " + std::to_string(Entry.cols()) + " columns"));
  Execution E;
  if (Status S = pickKernel(Entry, D, E, Resp); !S.ok())
    return errorResponse(S);
  if (Status S = deadlineCheckpoint(D, "execute"); !S.ok()) {
    Response Out = errorResponse(S);
    Out.Downgrades = std::move(Resp.Downgrades); // Keep the recorded trail.
    return Out;
  }
  Resp.Y.assign(static_cast<std::size_t>(Entry.rows()), 0.0);
  E.K->run(R.X.data(), Resp.Y.data());
  Resp.Variant = E.Variant;
  return Resp;
}

Response Service::handleSpmm(const Request &R, const ServedMatrix &Entry,
                             const Deadline &D) {
  Response Resp;
  const auto K = static_cast<std::size_t>(R.NumVectors);
  if (R.X.size() != static_cast<std::size_t>(Entry.cols()) * K)
    return errorResponse(Status::invalidArgument(
        "spmm: X has " + std::to_string(R.X.size()) + " elements, expected " +
        std::to_string(Entry.cols()) + " rows x " + std::to_string(K) +
        " columns"));
  Execution E;
  if (Status S = pickKernel(Entry, D, E, Resp, /*Tune=*/false); !S.ok())
    return errorResponse(S);
  if (Status S = deadlineCheckpoint(D, "execute"); !S.ok()) {
    Response Out = errorResponse(S);
    Out.Downgrades = std::move(Resp.Downgrades);
    return Out;
  }
  Resp.Y.assign(static_cast<std::size_t>(Entry.rows()) * K, 0.0);
  Resp.NumVectors = R.NumVectors;
  if (Status S = E.K->runBatch(R.X.data(), K, Resp.Y.data(), K,
                               R.NumVectors);
      !S.ok())
    return errorResponse(S);
  Resp.Variant = E.Variant;
  return Resp;
}

Response Service::handleSolve(const Request &R, const ServedMatrix &Entry,
                              const Deadline &D) {
  Response Resp;
  if (Entry.rows() != Entry.cols())
    return errorResponse(Status::failedPrecondition(
        "solve: '" + Entry.Name + "' is not square"));
  const auto N = static_cast<std::size_t>(Entry.rows());
  // Power iteration's start vector is optional; every other x is required.
  const bool Power = R.Solver == SolverKind::Power;
  if (!(Power && R.X.empty()) && R.X.size() != N)
    return errorResponse(Status::invalidArgument(
        std::string("solve: ") +
        (Power ? "start vector" : "right-hand side") + " has " +
        std::to_string(R.X.size()) + " elements, matrix dimension is " +
        std::to_string(N)));
  Execution E;
  if (Status S = pickKernel(Entry, D, E, Resp); !S.ok())
    return errorResponse(S);
  if (Status S = deadlineCheckpoint(D, "execute"); !S.ok()) {
    Response Out = errorResponse(S);
    Out.Downgrades = std::move(Resp.Downgrades);
    return Out;
  }

  SolverOptions SOpts;
  SOpts.MaxIterations = R.MaxIterations;
  SOpts.Tolerance = R.Tolerance;
  SolveResult SR;
  switch (R.Solver) {
  case SolverKind::Cg: {
    Resp.Y.assign(N, 0.0);
    SR = conjugateGradient(*E.K, R.X, Resp.Y, SOpts);
    break;
  }
  case SolverKind::BiCgStab: {
    Resp.Y.assign(N, 0.0);
    SR = biCgStab(*E.K, R.X, Resp.Y, SOpts);
    break;
  }
  case SolverKind::Power: {
    Resp.Y.assign(N, 0.0);
    if (!R.X.empty())
      Resp.Y = R.X; // Caller-provided starting vector.
    double Eigenvalue = 0.0;
    SR = powerIteration(*E.K, Eigenvalue, Resp.Y, SOpts);
    std::ostringstream OS;
    OS << "eigenvalue=" << Eigenvalue;
    Resp.Text = OS.str();
    break;
  }
  }
  Resp.Converged = SR.Converged;
  Resp.Iterations = SR.Iterations;
  Resp.Residual = SR.Residual;
  Resp.Variant = E.Variant;
  return Resp;
}

//===----------------------------------------------------------------------===//
// /stats
//===----------------------------------------------------------------------===//

namespace {

void jsonEscape(std::ostringstream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (C == '\n')
      OS << "\\n";
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << ' ';
    else
      OS << C;
  }
}

} // namespace

std::string Service::statsJson() const {
  std::ostringstream OS;
  OS << "{\"admission\":{\"capacity\":" << Admit.capacity()
     << ",\"in_flight\":" << Admit.inFlight()
     << ",\"shed\":" << Admit.shedCount() << "}";

  const KernelCache &C = TheFleet.kernelCache();
  OS << ",\"kernel_cache\":{\"entries\":" << C.size()
     << ",\"hits\":" << C.hits() << ",\"misses\":" << C.misses()
     << ",\"evictions\":" << C.evictions() << "}";

  OS << ",\"fleet\":[";
  bool First = true;
  for (const auto &E : TheFleet.list()) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"name\":\"";
    jsonEscape(OS, E->Name);
    const StreamKinds K = streamKinds(*E);
    OS << "\",\"rows\":" << E->rows() << ",\"cols\":" << E->cols()
       << ",\"nnz\":" << E->nnz() << ",\"mode\":\"" << loadModeName(E->Mode)
       << "\",\"value_kind\":\"" << K.Values << "\",\"index_kind\":\""
       << K.Indices << "\",\"bytes_per_nnz\":" << E->bytesPerNnz() << "}";
  }
  OS << "]";

  OS << ",\"metrics\":{";
  First = true;
  for (const obs::MetricSnapshot &M : obs::snapshotTelemetry()) {
    if (!First)
      OS << ',';
    First = false;
    OS << '"';
    jsonEscape(OS, M.Name);
    OS << "\":";
    if (M.Kind == obs::MetricKind::Histogram) {
      // The obs::HistogramBuckets log2 cells, lowest first.
      OS << "{\"count\":" << M.Count << ",\"sum\":" << M.Sum
         << ",\"buckets\":[";
      for (std::size_t B = 0; B < M.Buckets.size(); ++B)
        OS << (B ? "," : "") << M.Buckets[B];
      OS << "]}";
    } else {
      OS << M.Value;
    }
  }
  OS << "}}";
  return OS.str();
}

} // namespace serve
} // namespace cvr
