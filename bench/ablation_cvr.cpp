//===- bench/ablation_cvr.cpp - CVR design-choice ablations ---------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Ablation study of the design decisions DESIGN.md calls out (not a paper
// figure; supports Section 4's design rationale):
//
//   1. vectorization: the one 8-lane kernel on this build's SIMD tier. Run
//      the program from a native build (AVX-512 tier) and from a
//      CVR_NATIVE=OFF build (emulated tier) and compare the row (the
//      payoff of principle 1/2);
//   2. stealing on/off: tail imbalance cost on skewed matrices;
//   3. chunk (thread) count sweep: conversion + kernel scaling;
//   4. feeding order: matrix order (the paper's choice) vs longest-first;
//   5. value stream: f64 values vs f32 values (ValueKind::F32x64), through
//      the same kernel, on an R-MAT whose values are exact in fp32 (an
//      explicit F32x64 on other values is refused).
//
// The lane count is not an axis: omega = 8 for f64 is fixed by the format
// (CvrMatrix::lanes()). Every configuration's y is compared against the
// scalar reference to 1e-10; the program exits 1 if any disagrees.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Equations.h"
#include "benchlib/SuiteRunner.h"
#include "core/Cvr.h"
#include "gen/Generators.h"
#include "matrix/Reference.h"
#include "simd/Simd.h"
#include "support/Random.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

using namespace cvr;

namespace {

/// One input matrix with its x and the scalar reference y = A x, computed
/// once and compared against every configuration's output.
struct Input {
  CsrMatrix A;
  std::vector<double> X;
  std::vector<double> Ref;
  double RefScale = 1.0; ///< max(1, |Ref|_inf).

  explicit Input(CsrMatrix M) : A(std::move(M)) {
    Xoshiro256 Rng(7);
    X.resize(static_cast<std::size_t>(A.numCols()));
    for (double &V : X)
      V = Rng.nextDouble(-1.0, 1.0);
    Ref = referenceSpmv(A, X);
    for (double V : Ref)
      RefScale = std::max(RefScale, std::fabs(V));
  }
};

struct AblationRow {
  std::string Config;
  double PreprocessMs;
  double Gflops;
  double MaxErr; ///< max |y - Ref| / max(1, |Ref|_inf).
};

/// Agreement bound: every conversion is exact, so every configuration
/// matches the reference to round-off.
constexpr double Tolerance = 1e-10;

/// Set when any configuration's y disagrees with the reference.
bool AnyDisagreement = false;

AblationRow measure(const Input &In, const CvrOptions &Opts,
                    std::string Config) {
  Timer Pre;
  CvrMatrix M = CvrMatrix::fromCsr(In.A, Opts);
  double PreSec = Pre.seconds();

  std::vector<double> Y(static_cast<std::size_t>(In.A.numRows()), 0.0);
  for (int I = 0; I < 3; ++I)
    cvrSpmv(M, In.X.data(), Y.data());
  int Iters = 0;
  Timer Run;
  do {
    cvrSpmv(M, In.X.data(), Y.data());
    ++Iters;
  } while (Iters < 5 || Run.seconds() < 0.05);
  double Sec = Run.seconds() / Iters;

  double MaxErr = maxAbsDiff(In.Ref, Y) / In.RefScale;
  if (!(MaxErr <= Tolerance)) {
    std::fprintf(stderr,
                 "error: '%s' disagrees with the reference (max error %.3e, "
                 "bound %.0e)\n",
                 Config.c_str(), MaxErr, Tolerance);
    AnyDisagreement = true;
  }
  return {std::move(Config), PreSec * 1e3,
          spmvGflops(In.A.numNonZeros(), Sec), MaxErr};
}

void section(const char *Title, const Input &In,
             const std::vector<std::pair<std::string, CvrOptions>> &Configs) {
  TextTable T;
  T.setHeader({"config", "preprocess (ms)", "GFlop/s", "max error"});
  for (const auto &[Name, Opts] : Configs) {
    AblationRow R = measure(In, Opts, Name);
    char Err[32];
    std::snprintf(Err, sizeof(Err), "%.1e", R.MaxErr);
    T.addRow({R.Config, TextTable::fmt(R.PreprocessMs, 3),
              TextTable::fmt(R.Gflops, 2), Err});
  }
  std::cout << Title << "\n\n";
  T.print(std::cout);
  std::cout << '\n';
}

} // namespace

int main() {
  // A skewed scale-free matrix (stresses stealing + locality) and a regular
  // HPC one.
  Input ScaleFree(genRmat(13, 16, 601));
  Input Hpc(genStencil27(18, 18, 18));

  // The same row in both builds; the title names the tier that ran it.
  section(simd::hasAvx512()
              ? "Ablation 1: vectorization, AVX-512 tier (R-MAT scale 13)"
              : "Ablation 1: vectorization, emulated tier (R-MAT scale 13)",
          ScaleFree, {{"AVX-512 kernel", CvrOptions{}}});

  {
    CvrOptions On;
    CvrOptions Off;
    Off.EnableStealing = false;
    // Stealing matters at the end of chunks; amplify with many chunks.
    On.NumThreads = Off.NumThreads = 8;
    section("Ablation 2: tracker stealing on/off (R-MAT, 8 chunks)",
            ScaleFree, {{"stealing on", On}, {"stealing off", Off}});
  }

  {
    std::vector<std::pair<std::string, CvrOptions>> Configs;
    for (int Threads : {1, 2, 4, 8}) {
      CvrOptions O;
      O.NumThreads = Threads;
      Configs.push_back({std::to_string(Threads) + " chunk(s)", O});
    }
    section("Ablation 3: chunk-count sweep (27-point stencil)", Hpc,
            Configs);
  }

  {
    CvrOptions Plain;
    CvrOptions Sorted;
    Sorted.SortFeedRows = true;
    section("Ablation 4: matrix-order vs sorted feeding (R-MAT)", ScaleFree,
            {{"matrix order (paper)", Plain},
             {"longest-first (sort-first)", Sorted}});
  }

  {
    CvrOptions F64;
    F64.Values = ValueKind::F64;
    CvrOptions F32;
    F32.Values = ValueKind::F32x64;
    section("Ablation 5: f64 vs f32 value stream (fp32-exact R-MAT)",
            Input(roundedToFp32(genRmat(13, 16, 601))),
            {{"f64 values", F64}, {"f32 values (F32x64)", F32}});
  }

  std::cout << "expectation: the AVX-512 tier well above the emulated tier "
               "(compare ablation 1 of a\nCVR_NATIVE=OFF build); stealing "
               "never hurts and helps on skew; chunk count flat\non a single "
               "core; f32 values within run-to-run noise of f64 on this "
               "L2-resident\nR-MAT. Feeding order is host-dependent: "
               "memory-bound machines (the paper's KNL)\nsee no kernel gain "
               "to offset the sort's preprocessing cost, while compute-bound\n"
               "hosts batch finish events better when similar-length rows "
               "share the lanes.\nEvery row's y is checked against the "
               "scalar reference (max error column); any\ndisagreement "
               "exits 1.\n";
  if (AnyDisagreement) {
    std::fprintf(stderr, "ablation_cvr: a configuration disagreed with the "
                         "reference\n");
    return 1;
  }
  return 0;
}
