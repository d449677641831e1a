//===- perfbench/SpanLog.h - In-memory span recorder ------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. The benchmark opens a span around each call
/// it makes into a layer's public functions; spans nest through a stack,
/// so each records the span that caused it, and every span of one request
/// carries that request's id. One log belongs to one thread. Spans stay in
/// memory until the run ends, then go to a JSON file, and a layer's self
/// time is its spans' durations minus the part their children cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANLOG_H
#define PERFBENCH_SPANLOG_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  int Parent = -1;           ///< Index in the same log; -1 for a root.
  std::int64_t RequestId = 0;
};

class SpanLog {
public:
  explicit SpanLog(int Thread) : Thread(Thread) {}

  int begin(const char *Name, std::int64_t RequestId);
  void end(int Index);

  const std::vector<Span> &spans() const { return Spans; }
  int thread() const { return Thread; }

  /// Nanoseconds on the clock spans are stamped with.
  static std::int64_t nowNs();

private:
  int Thread;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Opens a span on construction and closes it on destruction; a null log
/// records nothing (the untraced path).
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, std::int64_t RequestId)
      : Log(Log), Index(Log ? Log->begin(Name, RequestId) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  int Index;
};

/// Per span name: total self time in microseconds and span count.
struct SelfTime {
  double Micros = 0.0;
  std::int64_t Count = 0;
};
std::map<std::string, SelfTime> selfTimes(const std::vector<SpanLog> &Logs);

/// Writes every span of \p Logs as one JSON document (chrome-trace "X"
/// events, with parent and request id in args). False on I/O failure.
bool writeSpans(const std::vector<SpanLog> &Logs, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_SPANLOG_H
