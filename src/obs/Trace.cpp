//===- obs/Trace.cpp - Span tracing with chrome-trace export --------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

namespace cvr {
namespace obs {

//===----------------------------------------------------------------------===//
// Chrome-trace structural validator (compiled in every build mode).
//===----------------------------------------------------------------------===//

namespace {

/// Minimal recursive-descent JSON reader: just enough structure to walk
/// the document and answer the validator's questions. Numbers are not
/// range-checked and strings are not un-escaped beyond skipping \x
/// pairs — the validator only needs shape, not values.
class JsonCursor {
public:
  explicit JsonCursor(const std::string &Text) : Text(Text) {}

  bool failed() const { return Failed; }
  const std::string &error() const { return Error; }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  char peek() {
    skipWs();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  bool atEnd() {
    skipWs();
    return Pos >= Text.size();
  }

  void fail(const std::string &Why) {
    if (!Failed) {
      Failed = true;
      Error = Why + " (near byte " + std::to_string(Pos) + ")";
    }
  }

  /// Parses a string; returns its raw (still-escaped) contents.
  std::string parseString() {
    if (!consume('"')) {
      fail("expected string");
      return "";
    }
    std::string Out;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\') {
        if (Pos + 1 >= Text.size()) {
          fail("dangling escape");
          return Out;
        }
        Out += Text[Pos];
        Out += Text[Pos + 1];
        Pos += 2;
      } else {
        Out += Text[Pos++];
      }
    }
    if (!consume('"'))
      fail("unterminated string");
    return Out;
  }

  bool parseNumber() {
    skipWs();
    std::size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    bool SawDigit = false;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(Text[Pos])))
        SawDigit = true;
      ++Pos;
    }
    if (!SawDigit) {
      Pos = Start;
      fail("expected number");
      return false;
    }
    return true;
  }

  /// Skips any JSON value. Set \p IsNumber / \p IsString to learn the
  /// kind that was skipped.
  void skipValue(bool *IsNumber = nullptr, bool *IsString = nullptr) {
    char C = peek();
    if (C == '"') {
      parseString();
      if (IsString)
        *IsString = true;
    } else if (C == '{') {
      consume('{');
      if (peek() != '}')
        do {
          parseString();
          if (!consume(':')) {
            fail("expected ':'");
            return;
          }
          skipValue();
        } while (!Failed && consume(','));
      if (!consume('}'))
        fail("unterminated object");
    } else if (C == '[') {
      consume('[');
      if (peek() != ']')
        do
          skipValue();
        while (!Failed && consume(','));
      if (!consume(']'))
        fail("unterminated array");
    } else if (C == 't' || C == 'f' || C == 'n') {
      while (Pos < Text.size() &&
             std::isalpha(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    } else {
      if (parseNumber() && IsNumber)
        *IsNumber = true;
    }
  }

private:
  const std::string &Text;
  std::size_t Pos = 0;
  bool Failed = false;
  std::string Error;
};

[[nodiscard]] Status validateEvent(JsonCursor &C, std::size_t Index) {
  auto eventError = [&](const std::string &Why) {
    return Status::invalidArgument("trace event " + std::to_string(Index) +
                                   ": " + Why);
  };
  if (!C.consume('{'))
    return eventError("not an object");
  bool HasName = false, HasPh = false, HasTs = false, HasDur = false;
  std::string Ph;
  if (C.peek() != '}') {
    do {
      std::string Key = C.parseString();
      if (!C.consume(':'))
        return eventError("missing ':' after key '" + Key + "'");
      bool IsNumber = false, IsString = false;
      if (Key == "ph") {
        Ph = C.parseString();
        HasPh = true;
      } else {
        C.skipValue(&IsNumber, &IsString);
      }
      if (C.failed())
        return eventError(C.error());
      if (Key == "name" && IsString)
        HasName = true;
      if (Key == "ts" && IsNumber)
        HasTs = true;
      if (Key == "dur" && IsNumber)
        HasDur = true;
    } while (C.consume(','));
  }
  if (!C.consume('}'))
    return eventError("unterminated object");
  if (!HasName)
    return eventError("missing string 'name'");
  if (!HasPh)
    return eventError("missing string 'ph'");
  if (Ph != "M" && !HasTs)
    return eventError("missing numeric 'ts'");
  if (Ph == "X" && !HasDur)
    return eventError("complete event missing numeric 'dur'");
  return Status::okStatus();
}

} // namespace

Status validateChromeTrace(const std::string &Json) {
  JsonCursor C(Json);
  if (!C.consume('{'))
    return Status::invalidArgument("trace: top level is not an object");
  bool SawEvents = false;
  if (C.peek() != '}') {
    do {
      std::string Key = C.parseString();
      if (!C.consume(':'))
        return Status::invalidArgument("trace: missing ':' after top-level "
                                       "key '" +
                                       Key + "'");
      if (Key == "traceEvents") {
        if (!C.consume('['))
          return Status::invalidArgument("trace: traceEvents is not an array");
        SawEvents = true;
        std::size_t Index = 0;
        if (C.peek() != ']') {
          do {
            Status S = validateEvent(C, Index++);
            if (!S.ok())
              return S;
          } while (C.consume(','));
        }
        if (!C.consume(']'))
          return Status::invalidArgument("trace: unterminated traceEvents");
      } else {
        C.skipValue();
      }
      if (C.failed())
        return Status::invalidArgument("trace: " + C.error());
    } while (C.consume(','));
  }
  if (!C.consume('}'))
    return Status::invalidArgument("trace: unterminated top-level object");
  if (!C.atEnd())
    return Status::invalidArgument("trace: trailing content after document");
  if (!SawEvents)
    return Status::invalidArgument("trace: no traceEvents array");
  return Status::okStatus();
}

//===----------------------------------------------------------------------===//
// Collection
//===----------------------------------------------------------------------===//

namespace {

struct TraceEvent {
  const char *Name;
  const char *Category;
  std::int64_t TsNs;
  std::int64_t DurNs;
  int Tid;
  int NumArgs;
  const char *ArgKeys[4];
  std::int64_t ArgVals[4];
};

struct TraceBuffer {
  std::vector<TraceEvent> Events;
  int Tid = 0;
};

std::atomic<bool> GActive{false};
std::atomic<std::int64_t> GEpochNs{0};
std::atomic<std::size_t> GEventCount{0};

std::mutex &traceMutex() {
  static std::mutex *Mu = new std::mutex;
  return *Mu;
}

struct TraceState {
  std::vector<TraceBuffer *> Live;
  std::vector<TraceEvent> Retired;
  int NextTid = 0;
};

TraceState &traceState() {
  static TraceState *S = new TraceState; // leaked: see Telemetry Registry
  return *S;
}

struct BufferHolder {
  TraceBuffer *B = nullptr;
  ~BufferHolder() {
    if (!B)
      return;
    std::lock_guard<std::mutex> Lock(traceMutex());
    TraceState &S = traceState();
    S.Retired.insert(S.Retired.end(), B->Events.begin(), B->Events.end());
    S.Live.erase(std::remove(S.Live.begin(), S.Live.end(), B), S.Live.end());
    delete B;
  }
};

TraceBuffer &localBuffer() {
  thread_local BufferHolder Holder;
  if (!Holder.B) {
    Holder.B = new TraceBuffer;
    std::lock_guard<std::mutex> Lock(traceMutex());
    TraceState &S = traceState();
    Holder.B->Tid = S.NextTid++;
    S.Live.push_back(Holder.B);
  }
  return *Holder.B;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    char C = *S;
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
}

void appendMicros(std::string &Out, std::int64_t Ns) {
  // Fixed-point microseconds with nanosecond precision: deterministic
  // formatting, no double rounding.
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%lld.%03lld",
                static_cast<long long>(Ns / 1000),
                static_cast<long long>(Ns % 1000));
  Out += Buf;
}

} // namespace

bool traceActive() { return GActive.load(std::memory_order_relaxed); }

void traceStart() {
  std::lock_guard<std::mutex> Lock(traceMutex());
  TraceState &S = traceState();
  S.Retired.clear();
  for (TraceBuffer *B : S.Live)
    B->Events.clear();
  GEventCount.store(0, std::memory_order_relaxed);
  GEpochNs.store(nowNs(), std::memory_order_relaxed);
  GActive.store(true, std::memory_order_release);
}

std::size_t traceEventCount() {
  return GEventCount.load(std::memory_order_relaxed);
}

std::string traceStopToJson() {
  GActive.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(traceMutex());
  TraceState &S = traceState();
  std::vector<TraceEvent> All = S.Retired;
  for (TraceBuffer *B : S.Live)
    All.insert(All.end(), B->Events.begin(), B->Events.end());
  std::sort(All.begin(), All.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.TsNs != B.TsNs)
                return A.TsNs < B.TsNs;
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              return std::strcmp(A.Name, B.Name) < 0;
            });

  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"cvr\"}}";
  for (const TraceEvent &E : All) {
    Out += ",\n{\"name\":\"";
    appendEscaped(Out, E.Name);
    Out += "\",\"cat\":\"";
    appendEscaped(Out, E.Category);
    Out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    Out += std::to_string(E.Tid);
    Out += ",\"ts\":";
    appendMicros(Out, E.TsNs);
    Out += ",\"dur\":";
    appendMicros(Out, E.DurNs);
    if (E.NumArgs > 0) {
      Out += ",\"args\":{";
      for (int I = 0; I < E.NumArgs; ++I) {
        if (I)
          Out += ',';
        Out += '"';
        appendEscaped(Out, E.ArgKeys[I]);
        Out += "\":";
        Out += std::to_string(E.ArgVals[I]);
      }
      Out += '}';
    }
    Out += '}';
  }
  Out += "\n]}\n";
  return Out;
}

TraceSpan::TraceSpan(const char *Name, const char *Category)
    : Name(Name), Category(Category),
      StartNs(traceActive() ? nowNs() : std::int64_t{-1}) {}

void TraceSpan::arg(const char *Key, std::int64_t Value) {
  if (StartNs < 0 || NumArgs >= 4)
    return;
  ArgKeys[NumArgs] = Key;
  ArgVals[NumArgs] = Value;
  ++NumArgs;
}

TraceSpan::~TraceSpan() {
  if (StartNs < 0 || !traceActive())
    return;
  std::int64_t End = nowNs();
  std::int64_t Epoch = GEpochNs.load(std::memory_order_relaxed);
  TraceBuffer &B = localBuffer();
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.TsNs = StartNs - Epoch;
  E.DurNs = End - StartNs;
  E.Tid = B.Tid;
  E.NumArgs = NumArgs;
  for (int I = 0; I < NumArgs; ++I) {
    E.ArgKeys[I] = ArgKeys[I];
    E.ArgVals[I] = ArgVals[I];
  }
  B.Events.push_back(E);
  GEventCount.fetch_add(1, std::memory_order_relaxed);
}

Status traceStopToFile(const std::string &Path) {
  std::string Json = traceStopToJson();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::unavailable("trace: cannot open '" + Path +
                               "' for writing");
  std::size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  if (std::fclose(F) != 0 || Written != Json.size())
    return Status::unavailable("trace: short write to '" + Path + "'");
  return Status::okStatus();
}

} // namespace obs
} // namespace cvr
