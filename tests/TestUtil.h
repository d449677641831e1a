//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef CVR_TESTS_TESTUTIL_H
#define CVR_TESTS_TESTUTIL_H

#include "matrix/Coo.h"
#include "matrix/Csr.h"
#include "matrix/Reference.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <unistd.h>

namespace cvr {
namespace test {

/// Deterministic random dense vector in [-1, 1].
inline std::vector<double> randomVector(std::size_t N, std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = Rng.nextDouble(-1.0, 1.0);
  return V;
}

/// Random COO matrix with ~Density fraction of entries present.
inline CsrMatrix randomCsr(std::int32_t Rows, std::int32_t Cols,
                           double Density, std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  CooMatrix Coo(Rows, Cols);
  for (std::int32_t R = 0; R < Rows; ++R)
    for (std::int32_t C = 0; C < Cols; ++C)
      if (Rng.nextDouble() < Density)
        Coo.add(R, C, Rng.nextDouble(-1.0, 1.0));
  return CsrMatrix::fromCoo(Coo);
}

/// Tolerance for comparing SpMV results; reassociation across lanes and
/// threads perturbs the last few bits, scaled by row length.
inline constexpr double SpmvTolerance = 1e-10;

/// A file path no other test process shares: under ::testing::TempDir(),
/// named after the running test and the process id. ctest runs every case
/// as its own process, in parallel, so a fixed name would let one case
/// rewrite a file another has mapped.
inline std::string uniqueTempPath(const std::string &Suffix) {
  const ::testing::TestInfo *T =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Name = std::string(T->test_suite_name()) + "." + T->name();
  std::replace(Name.begin(), Name.end(), '/', '_');
  std::string Dir = ::testing::TempDir();
  if (!Dir.empty() && Dir.back() != '/')
    Dir += '/';
  return Dir + Name + "." + std::to_string(::getpid()) + Suffix;
}

/// Binary-wide heap-allocation counters, ticked by the global operator
/// new replacement in SolversTest.cpp. Allocation audits read them before
/// and after the code under measurement.
std::size_t globalAllocCount();
std::size_t globalAllocBytes();

} // namespace test
} // namespace cvr

#endif // CVR_TESTS_TESTUTIL_H
