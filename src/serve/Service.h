//===- serve/Service.h - Request execution with degradation -----*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's brain: one `handle(Request) -> Response` call, transport
/// agnostic (the socket server, the oneshot smoke mode, and the unit tests
/// all feed it directly). Three robustness mechanisms compose here:
///
///  * **Admission** — compute ops (Multiply/Spmm/Solve) acquire an
///    in-flight token first; no capacity means an immediate
///    RESOURCE_EXHAUSTED response. Control ops (Ping/Stats/List) bypass
///    admission so the daemon stays observable exactly when it is
///    overloaded.
///  * **Deadlines** — the request's budget is bound to the service clock
///    (injectable: tests use ManualClock and never sleep) and checked at
///    phase boundaries: admit, tune, execute. An expiring request rides
///    the ladder down instead of blocking: skip exec-tuning -> plain CVR
///    view kernel; only a budget that is exhausted before execution even
///    starts returns DEADLINE_EXCEEDED. A request that expires *during*
///    execution still returns its finished result — kernels are never
///    interrupted mid-flight.
///  * **Degradation records** — every step down (deadline-skipped tuning,
///    load-time ladder downgrades of .mtx entries) is recorded in the
///    response, so clients can distinguish a full-fidelity answer from a
///    degraded one.
///
/// Blob-served entries degrade along execution-time rungs (tuned prefetch
/// -> plain view kernel): their conversion-time parameters are fixed by
/// the blob, and the plain CVR view kernel cannot fail at runtime, so the
/// ladder needs no CSR rung. Matrix Market entries carry the full
/// prepareKernel ladder (CVR -> CSR), walked at load time.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_SERVE_SERVICE_H
#define CVR_SERVE_SERVICE_H

#include "serve/Admission.h"
#include "serve/Fleet.h"
#include "serve/Protocol.h"
#include "support/Deadline.h"

namespace cvr {
namespace serve {

/// Phase-boundary deadline check, drillable: the `serve.deadline` fail
/// point forces the expired outcome regardless of the real budget, so the
/// whole degradation path is exercisable without timing games.
[[nodiscard]] Status deadlineCheckpoint(const Deadline &D, const char *Phase);

struct ServiceOptions {
  /// In-flight compute-request ceiling (admission tokens).
  int MaxInFlight = 8;
  /// Deadline clock; injectable for tests. Never null.
  const Clock *ClockSource = &steadyClock();
  /// Applied when a request carries no budget of its own; 0 = unlimited.
  std::uint64_t DefaultDeadlineMicros = 0;
  /// Exec-tuning is skipped (a recorded downgrade) when less than this
  /// many seconds remain — tuning a dying request is wasted work.
  double TuneMinRemainingSeconds = 0.05;
};

class Service {
public:
  Service(Fleet &F, ServiceOptions Opts = {});

  /// Executes one request. Never throws; every failure mode is a Response
  /// with the appropriate code (the transport sends it verbatim).
  Response handle(const Request &R);

  AdmissionController &admission() { return Admit; }
  const ServiceOptions &options() const { return Opts; }

  /// The /stats payload: telemetry snapshot plus admission, kernel-cache,
  /// and fleet state, as one JSON object.
  std::string statsJson() const;

private:
  Response handleCompute(const Request &R, const Deadline &D);
  Response handleMultiply(const Request &R, const ServedMatrix &Entry,
                          const Deadline &D);
  Response handleSpmm(const Request &R, const ServedMatrix &Entry,
                      const Deadline &D);
  Response handleSolve(const Request &R, const ServedMatrix &Entry,
                       const Deadline &D);

  /// Chooses the execution rung for \p Entry under \p D, recording any
  /// step down in \p Out (shared by all three compute ops). \p Tune runs a
  /// blob entry's tuned-exec rung; Spmm skips it, since the SpMV prefetch
  /// distance it tunes does not apply to the panel kernel.
  struct Execution {
    std::unique_ptr<SpmvKernel> Owned; ///< View kernel for blob entries.
    const SpmvKernel *K = nullptr;     ///< The kernel to run.
    std::string Variant;
  };
  [[nodiscard]] Status pickKernel(const ServedMatrix &Entry, const Deadline &D,
                                  Execution &Out, Response &Resp,
                                  bool Tune = true);

  Fleet &TheFleet;
  ServiceOptions Opts;
  AdmissionController Admit;
};

} // namespace serve
} // namespace cvr

#endif // CVR_SERVE_SERVICE_H
