//===- support/FailPoint.h - Fault-injection sites --------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named fault-injection sites threaded through the failure-prone layers
/// (allocation, Matrix Market parsing, blob serialization, CVR conversion,
/// serving).
/// A site is a `CVR_FAIL_POINT("name")` check that normally costs one
/// relaxed atomic load; arming it — via the API or the `CVR_FAILPOINTS`
/// environment variable — makes the surrounding code take its failure path
/// as if the real fault had happened, so the Status plumbing and the
/// registry's degradation ladder can be exercised deterministically in
/// tests and CI.
///
/// Spec syntax (environment variable and armFromSpec):
///
///   CVR_FAILPOINTS="site[=count[@skip]][;site...]"
///
///   * `count`  fire this many times, then disarm (default: every hit);
///   * `skip`   let this many hits pass before the first firing.
///
/// Example: `CVR_FAILPOINTS="alloc.aligned-buffer=1@2;convert.cvr.fail"`
/// fails the third allocation once and every CVR conversion.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_SUPPORT_FAILPOINT_H
#define CVR_SUPPORT_FAILPOINT_H

#include "support/Status.h"

#include <cstddef>
#include <string>
#include <vector>

namespace cvr {
namespace failpoint {

/// True when the site should take its failure path on this hit. Consumes
/// one firing of a counted arm. Thread-safe; never fires when nothing is
/// armed (fast path: one relaxed atomic load).
bool shouldFail(const char *Name);

/// Arms \p Name. \p Count < 0 fires on every hit; otherwise fires \p Count
/// times then disarms. The first \p SkipFirst hits pass through unharmed.
void arm(const std::string &Name, int Count = -1, int SkipFirst = 0);

/// Disarms one site / every site (test teardown).
void disarm(const std::string &Name);
void disarmAll();

/// Parses and arms a `site[=count[@skip]][;site...]` spec (also accepts
/// ',' as separator). Unknown site names are accepted — the catalog is
/// advisory — but malformed counts are an InvalidArgument error. The spec
/// is validated in full before any site is armed, so an error means
/// nothing changed.
[[nodiscard]] Status armFromSpec(const std::string &Spec);

/// Outcome of parsing the CVR_FAILPOINTS environment variable (forces the
/// one-time parse if it has not happened yet). A malformed env spec arms
/// nothing and surfaces here as INVALID_ARGUMENT; long-running tools check
/// this at startup and refuse to run a drill with a silently empty fault
/// set.
[[nodiscard]] Status envSpecStatus();

/// Total hits (fired or not) a site has seen since process start.
long hitCount(const std::string &Name);

/// Names currently armed, sorted.
std::vector<std::string> armedSites();

/// One documented site.
struct SiteInfo {
  const char *Name;
  const char *Effect;
};

/// The sites this codebase defines, for `cvr_tool inject --list` and docs.
const std::vector<SiteInfo> &catalog();

/// Flips one bit of \p Data (deterministically: bit 0 of the middle byte)
/// when the site fires; used to inject payload corruption that integrity
/// checks must catch. No-op on empty buffers or unarmed sites.
void corrupt(const char *Name, void *Data, std::size_t Bytes);

} // namespace failpoint
} // namespace cvr

#define CVR_FAIL_POINT(NAME) (::cvr::failpoint::shouldFail(NAME))
#define CVR_FAIL_POINT_CORRUPT(NAME, DATA, BYTES)                              \
  (::cvr::failpoint::corrupt(NAME, DATA, BYTES))

#endif // CVR_SUPPORT_FAILPOINT_H
