//===- obs/Trace.h - Span tracing with chrome-trace export ------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped spans recording the phase structure of a run — convert →
/// execute → fused-epilogue — into per-thread buffers, exported as
/// chrome-trace JSON (the `about://tracing` / Perfetto "traceEvents"
/// format, complete "X" events with microsecond timestamps).
///
/// A span is an RAII object:
///
///   {
///     obs::TraceSpan Span("convert/cvr", "convert");
///     Span.arg("nnz", A.nnz());
///     ... work ...
///   } // span recorded here, if a session is active
///
/// Outside an active session a span costs one relaxed atomic load.
/// Sessions are process-global: traceStart() clears the buffers and
/// arms collection, traceStopToJson()/traceStopToFile() disarm it and
/// merge every thread's events (sorted by timestamp, so the output is
/// deterministic for a quiesced process). Span names and categories
/// must be string literals (the buffers store the pointers).
///
//===----------------------------------------------------------------------===//

#ifndef CVR_OBS_TRACE_H
#define CVR_OBS_TRACE_H

#include "support/Status.h"

#include <cstdint>
#include <string>

namespace cvr {
namespace obs {

/// Structural validator for chrome-trace JSON: top-level object with a
/// "traceEvents" array; every event an object with a string "name" and
/// "ph" and numeric "ts"; complete ("X") events also need a numeric
/// "dur". Returns InvalidArgument describing the first violation. Used
/// by the trace tests for round-tripping and by `cvr_tool trace` before
/// it writes anything to disk.
[[nodiscard]] Status validateChromeTrace(const std::string &Json);

/// True while a trace session is collecting (one relaxed atomic load).
bool traceActive();

/// Clears all buffered events and starts a collection session.
void traceStart();

/// Stops the session and renders every buffered event as chrome-trace
/// JSON. Call after parallel work has joined; collection that races a
/// stop is dropped, not torn.
std::string traceStopToJson();

/// Number of events buffered so far (approximate while threads run).
std::size_t traceEventCount();

/// Scoped span. Records a complete event over its lifetime when a
/// session is active; otherwise costs one atomic load in the
/// constructor and one in the destructor.
class TraceSpan {
public:
  TraceSpan(const char *Name, const char *Category);
  ~TraceSpan();
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attaches a key → integer argument (shown in the trace viewer's
  /// detail pane). At most 4 per span; extras are ignored. \p Key must
  /// be a string literal.
  void arg(const char *Key, std::int64_t Value);

private:
  const char *Name;
  const char *Category;
  std::int64_t StartNs; // -1: session inactive at construction
  int NumArgs = 0;
  const char *ArgKeys[4];
  std::int64_t ArgVals[4];
};

/// Stops the session and writes the JSON to \p Path (Unavailable when
/// the file cannot be written).
[[nodiscard]] Status traceStopToFile(const std::string &Path);

} // namespace obs
} // namespace cvr

#endif // CVR_OBS_TRACE_H
