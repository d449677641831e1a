//===- perfbench/SpanLog.cpp - In-memory span recorder --------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "SpanLog.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::int64_t SpanLog::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::begin(const char *Name, std::int64_t RequestId) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.RequestId = RequestId;
  Spans.push_back(S);
  int Index = static_cast<int>(Spans.size()) - 1;
  Open.push_back(Index);
  Spans[Index].StartNs = nowNs(); // Last, so set-up is not inside the span.
  return Index;
}

void SpanLog::end(int Index) {
  Spans[Index].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

std::map<std::string, SelfTime> selfTimes(const std::vector<SpanLog> &Logs) {
  std::map<std::string, SelfTime> Out;
  for (const SpanLog &L : Logs) {
    const std::vector<Span> &S = L.spans();
    // Spans of one log never overlap their siblings (one thread), so a
    // parent's children cover exactly the sum of their durations.
    std::vector<std::int64_t> ChildNs(S.size(), 0);
    for (const Span &Sp : S)
      if (Sp.Parent >= 0)
        ChildNs[Sp.Parent] += Sp.EndNs - Sp.StartNs;
    for (std::size_t I = 0; I < S.size(); ++I) {
      SelfTime &T = Out[S[I].Name];
      T.Micros += static_cast<double>(S[I].EndNs - S[I].StartNs - ChildNs[I]) /
                  1e3;
      ++T.Count;
    }
  }
  return Out;
}

bool writeSpans(const std::vector<SpanLog> &Logs, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::int64_t Origin = INT64_MAX;
  for (const SpanLog &L : Logs)
    for (const Span &S : L.spans())
      Origin = S.StartNs < Origin ? S.StartNs : Origin;
  std::fprintf(F, "{\"traceEvents\":[");
  bool First = true;
  for (const SpanLog &L : Logs) {
    for (std::size_t I = 0; I < L.spans().size(); ++I) {
      const Span &S = L.spans()[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%" PRId64 "}}",
                   First ? "" : ",", S.Name, L.thread(),
                   static_cast<double>(S.StartNs - Origin) / 1e3,
                   static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                   S.Parent, S.RequestId);
      First = false;
    }
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
