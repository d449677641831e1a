//===- support/FailPoint.cpp - Fault-injection sites ----------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace cvr {
namespace failpoint {

namespace {

struct Site {
  int Remaining = -1; ///< Firings left; -1 = unlimited. 0 = disarmed.
  int Skip = 0;       ///< Hits to let pass before firing.
  long Hits = 0;      ///< Total hits observed (fired or not).
};

struct Registry {
  std::mutex M;
  std::unordered_map<std::string, Site> Sites;
  /// Armed-site count mirrored outside the lock so unarmed builds pay one
  /// relaxed load per site hit, nothing more.
  std::atomic<int> ArmedCount{0};

  static Registry &instance() {
    static Registry R;
    return R;
  }

  /// Recounts armed sites; call with M held.
  void refreshArmedCount() {
    int N = 0;
    for (const auto &KV : Sites)
      if (KV.second.Remaining != 0)
        ++N;
    ArmedCount.store(N, std::memory_order_relaxed);
  }
};

/// Outcome of the one-time CVR_FAILPOINTS environment parse. Read through
/// envSpecStatus(); a malformed spec arms nothing (armFromSpec validates
/// the whole spec before arming), and tools refuse to start on it rather
/// than running a drill with silently missing faults.
Status &envStatusSlot() {
  static Status S = Status::okStatus();
  return S;
}

void loadEnvOnce() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    if (const char *Spec = std::getenv("CVR_FAILPOINTS"))
      envStatusSlot() = armFromSpec(Spec).withContext("CVR_FAILPOINTS");
  });
}

} // namespace

bool shouldFail(const char *Name) {
  loadEnvOnce();
  Registry &R = Registry::instance();
  if (R.ArmedCount.load(std::memory_order_relaxed) == 0)
    return false;
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Sites.find(Name);
  if (It == R.Sites.end())
    return false;
  Site &S = It->second;
  ++S.Hits;
  if (S.Remaining == 0)
    return false;
  if (S.Skip > 0) {
    --S.Skip;
    return false;
  }
  if (S.Remaining > 0 && --S.Remaining == 0)
    R.refreshArmedCount();
  return true;
}

void arm(const std::string &Name, int Count, int SkipFirst) {
  Registry &R = Registry::instance();
  std::lock_guard<std::mutex> Lock(R.M);
  Site &S = R.Sites[Name];
  S.Remaining = Count == 0 ? -1 : Count; // count 0 would be a silent no-op.
  S.Skip = SkipFirst;
  R.refreshArmedCount();
}

void disarm(const std::string &Name) {
  Registry &R = Registry::instance();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Sites.find(Name);
  if (It != R.Sites.end())
    It->second.Remaining = 0;
  R.refreshArmedCount();
}

void disarmAll() {
  Registry &R = Registry::instance();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &KV : R.Sites)
    KV.second.Remaining = 0;
  R.refreshArmedCount();
}

Status armFromSpec(const std::string &Spec) {
  // Two-phase: parse and validate every item first, then arm. A malformed
  // spec therefore arms nothing — a drill either runs exactly as written
  // or refuses to run, never a partial fault set.
  struct ParsedArm {
    std::string Name;
    int Count;
    int Skip;
  };
  std::vector<ParsedArm> Arms;

  std::size_t I = 0;
  while (I < Spec.size()) {
    std::size_t End = Spec.find_first_of(";,", I);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Item = Spec.substr(I, End - I);
    I = End + 1;
    // Trim surrounding spaces.
    std::size_t B = Item.find_first_not_of(" \t");
    std::size_t E = Item.find_last_not_of(" \t");
    if (B == std::string::npos)
      continue;
    Item = Item.substr(B, E - B + 1);

    std::string Name = Item;
    int Count = -1, Skip = 0;
    std::size_t Eq = Item.find('=');
    if (Eq != std::string::npos) {
      Name = Item.substr(0, Eq);
      std::string CountStr = Item.substr(Eq + 1);
      std::size_t At = CountStr.find('@');
      std::string SkipStr;
      if (At != std::string::npos) {
        SkipStr = CountStr.substr(At + 1);
        CountStr = CountStr.substr(0, At);
      }
      char *Rest = nullptr;
      Count = static_cast<int>(std::strtol(CountStr.c_str(), &Rest, 10));
      if (CountStr.empty() || *Rest != '\0' || Count < 0)
        return Status::invalidArgument("fail-point spec '" + Item +
                                       "': bad count '" + CountStr + "'");
      if (!SkipStr.empty()) {
        Skip = static_cast<int>(std::strtol(SkipStr.c_str(), &Rest, 10));
        if (*Rest != '\0' || Skip < 0)
          return Status::invalidArgument("fail-point spec '" + Item +
                                         "': bad skip '" + SkipStr + "'");
      }
    }
    if (Name.empty())
      return Status::invalidArgument("fail-point spec '" + Item +
                                     "': empty site name");
    Arms.push_back({std::move(Name), Count, Skip});
  }
  for (const ParsedArm &A : Arms)
    arm(A.Name, A.Count, A.Skip);
  return Status::okStatus();
}

Status envSpecStatus() {
  loadEnvOnce();
  return envStatusSlot();
}

long hitCount(const std::string &Name) {
  Registry &R = Registry::instance();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Sites.find(Name);
  return It == R.Sites.end() ? 0 : It->second.Hits;
}

std::vector<std::string> armedSites() {
  Registry &R = Registry::instance();
  std::vector<std::string> Names;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    for (const auto &KV : R.Sites)
      if (KV.second.Remaining != 0)
        Names.push_back(KV.first);
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

const std::vector<SiteInfo> &catalog() {
  static const std::vector<SiteInfo> Sites = {
      {"alloc.aligned-buffer",
       "AlignedBuffer allocation returns nullptr (recoverable OOM)"},
      {"io.mm.short-read",
       "Matrix Market reader hits end-of-stream mid-parse"},
      {"serialize.write.short", "blob writer stops mid-write (short write)"},
      {"serialize.read.short", "blob reader sees a truncated stream"},
      {"serialize.read.bitflip",
       "one bit of a blob section flips after read (CRC must catch it)"},
      {"convert.cvr.fail",
       "CVR conversion reports an internal failure (pathological input)"},
      {"obs.perf.open",
       "perf_event_open is refused (locked-down container / no PMU)"},
      {"serve.mmap",
       "mmap of a serving blob fails transiently (busy file / exhausted "
       "maps); the fleet loader retries with backoff, then falls back to a "
       "stream read"},
      {"serve.accept",
       "accept() on the serving socket fails transiently; the listener "
       "backs off and keeps serving instead of exiting"},
      {"serve.queue_full",
       "admission control sees no capacity; the request is shed with "
       "RESOURCE_EXHAUSTED instead of queuing unboundedly"},
      {"serve.deadline",
       "a request deadline reads as already expired at the next phase "
       "boundary; the pipeline degrades (skip tuning -> plain CVR) or "
       "answers DEADLINE_EXCEEDED"},
  };
  return Sites;
}

void corrupt(const char *Name, void *Data, std::size_t Bytes) {
  if (Bytes == 0 || Data == nullptr)
    return;
  if (!shouldFail(Name))
    return;
  static_cast<unsigned char *>(Data)[Bytes / 2] ^= 0x01;
}

} // namespace failpoint
} // namespace cvr
