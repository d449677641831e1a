//===- bench/roofline_sweep.cpp - Stream-compression roofline sweep -------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Sweeps the stream-compression plans (DESIGN.md section 17) — value kind
// {f64, f32x64} x index kind {u32, u16-band} — over matrices chosen to
// exercise both the unblocked and the band-blocked kernels, and reports for
// each plan (the generated values are rounded to fp32, so every plan is an
// exact conversion; stream bytes and traced traffic do not depend on
// values):
//
//   * the bandwidth-roofline prediction of DRAM bytes per iteration
//     (analysis/Roofline.h), with the x re-fetch factor alpha derived once
//     per build shape from the uncompressed plan's locality probe;
//   * the traced DRAM-side bytes of one steady-state iteration through the
//     cache model (the "measured LLC traffic" the prediction is judged
//     against);
//   * wall-clock GFlop/s of the real kernel.
//
// The --json output (schema cvr-bench-3) feeds scripts/perf_trajectory.py,
// which gates the u16 bytes-per-nnz reduction and the predicted-vs-measured
// accuracy against results/bench_baseline.json.
//
//===----------------------------------------------------------------------===//

#include "analysis/Roofline.h"
#include "benchlib/Equations.h"
#include "benchlib/SuiteRunner.h"
#include "core/Cvr.h"
#include "gen/Generators.h"
#include "support/Random.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <cstdio>
#include <iostream>
#include <vector>

using namespace cvr;

namespace {

struct SweepMatrix {
  std::string Name;
  CsrMatrix A;
  std::int64_t ColBlockBytes; ///< 0 = unblocked plans.
};

struct PlanSpec {
  const char *Label;
  ValueKind Values;
  ColIndexKind Indices;
};

constexpr PlanSpec Plans[] = {
    {"f64/u32", ValueKind::F64, ColIndexKind::U32},
    {"f64/u16", ValueKind::F64, ColIndexKind::U16Band},
    {"f32x64/u32", ValueKind::F32x64, ColIndexKind::U32},
    {"f32x64/u16", ValueKind::F32x64, ColIndexKind::U16Band},
};

double timedGflops(const CvrMatrix &M, const std::vector<double> &X,
                   std::vector<double> &Y) {
  for (int I = 0; I < 3; ++I)
    cvrSpmv(M, X.data(), Y.data());
  int Iters = 0;
  Timer Run;
  do {
    cvrSpmv(M, X.data(), Y.data());
    ++Iters;
  } while (Iters < 5 || Run.seconds() < 0.05);
  return spmvGflops(M.numNonZeros(), Run.seconds() / Iters);
}

} // namespace

int main(int Argc, char **Argv) {
  SuiteOptions Opts = parseSuiteOptions(Argc, Argv);
  const int Threads =
      Opts.Measure.NumThreads > 0 ? Opts.Measure.NumThreads : 0;

  // The blocked entry's x vector (1 MiB) overflows the simulated L2, so
  // banding pays and every 256 KiB band (32768 columns) fits the uint16
  // delta range — the acceptance case for the narrow-index plan. The
  // unblocked entries stay under 65536 columns so u16 applies without
  // banding.
  std::vector<SweepMatrix> Suite;
  Suite.push_back({"rmat14", roundedToFp32(genRmat(14, 16, 601)), 0});
  Suite.push_back(
      {"stencil27", roundedToFp32(genStencil27(24, 24, 24)), 0});
  Suite.push_back(
      {"rmat17_blocked", roundedToFp32(genRmat(17, 8, 31)), 256 * 1024});

  std::vector<BenchRecord> Records;
  for (const SweepMatrix &SM : Suite) {
    const CsrMatrix &A = SM.A;
    Xoshiro256 Rng(7);
    std::vector<double> X(static_cast<std::size_t>(A.numCols()));
    for (double &V : X)
      V = Rng.nextDouble(-1.0, 1.0);
    std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.0);

    // Alpha is derived once from the uncompressed plan's probe and applied
    // to every plan of the same build shape: the prediction for the
    // compressed streams must transfer, not be re-fit per plan.
    CvrOptions Base;
    Base.NumThreads = Threads;
    Base.ColBlockBytes = SM.ColBlockBytes;
    Base.Values = ValueKind::F64; // The default would narrow the streams.
    Base.Indices = ColIndexKind::U32;
    double Alpha = 1.0;
    {
      CvrKernel K(Base);
      if (K.prepareStatus(A).ok()) {
        StatusOr<CvrMatrix> MB = CvrMatrix::tryFromCsr(A, Base);
        if (MB.ok()) {
          const analysis::RooflinePrediction Comp =
              analysis::predictCvr(*MB);
          Alpha = analysis::alphaFromLocality(probeLocality(K, A, X.data()),
                                              Comp, A.numNonZeros());
        }
      }
    }

    TextTable T;
    T.setHeader({"plan", "pred B/nnz", "meas B/nnz", "pred/meas",
                 "GFlop/s"});
    for (const PlanSpec &PS : Plans) {
      CvrOptions P = Base;
      P.Values = PS.Values;
      P.Indices = PS.Indices;
      StatusOr<CvrMatrix> MB = CvrMatrix::tryFromCsr(A, P);
      if (!MB.ok()) {
        std::fprintf(stderr, "warning: %s %s: %s\n", SM.Name.c_str(),
                     PS.Label, MB.status().toString().c_str());
        continue;
      }
      const CvrMatrix &M = *MB;

      const analysis::RooflinePrediction RP = analysis::predictCvr(M, Alpha);

      CvrKernel K(P);
      analysis::MeasuredTraffic MT;
      if (K.prepareStatus(A).ok())
        MT = analysis::measureDramTraffic(K, A, X.data());

      BenchRecord R;
      R.Matrix = SM.Name;
      R.Rows = A.numRows();
      R.Cols = A.numCols();
      R.Nnz = A.numNonZeros();
      R.Format = "CVR";
      R.M.VariantName = PS.Label;
      R.M.Gflops = timedGflops(M, X, Y);
      R.M.SecondsPerIteration =
          R.M.Gflops > 0.0
              ? 2.0 * static_cast<double>(A.numNonZeros()) / 1e9 / R.M.Gflops
              : 0.0;
      R.PredictedBytesPerIter = RP.TotalBytes;
      R.PredictedBytesPerNnz = RP.BytesPerNnz;
      R.RooflineAlpha = RP.Alpha;
      if (MT.Supported) {
        R.MeasuredBytesPerIter = MT.DramBytes;
        R.MeasuredBytesPerNnz = MT.BytesPerNnz;
        R.L2MissRatio = MT.L2MissRatio;
      }
      Records.push_back(R);

      char Ratio[32];
      std::snprintf(Ratio, sizeof(Ratio), "%.3f",
                    MT.Supported && MT.DramBytes > 0.0
                        ? RP.TotalBytes / MT.DramBytes
                        : 0.0);
      T.addRow({PS.Label, TextTable::fmt(RP.BytesPerNnz, 2),
                TextTable::fmt(MT.Supported ? MT.BytesPerNnz : -1.0, 2),
                Ratio, TextTable::fmt(R.M.Gflops, 2)});
    }
    std::cout << SM.Name << " (" << A.numRows() << "x" << A.numCols()
              << ", nnz=" << A.numNonZeros()
              << (SM.ColBlockBytes > 0 ? ", blocked)" : ")") << "  alpha="
              << Alpha << "\n\n";
    T.print(std::cout);
    std::cout << '\n';
  }

  if (!Opts.JsonPath.empty() &&
      !writeBenchJson(Opts.JsonPath, Records, Opts.SizeScale,
                      Opts.Measure.NumThreads))
    return 1;
  return 0;
}
