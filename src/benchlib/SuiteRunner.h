//===- benchlib/SuiteRunner.h - Suite-wide experiment driver ----*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the six formats over the dataset suite and aggregates results by
/// the paper's application domains. Every table/figure bench binary is a
/// thin presentation layer over this runner.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_BENCHLIB_SUITERUNNER_H
#define CVR_BENCHLIB_SUITERUNNER_H

#include "benchlib/Measure.h"
#include "gen/DatasetSuite.h"
#include "matrix/MatrixStats.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cvr {

/// Per-(matrix, format) outcome.
struct FormatResult {
  Measurement Best;          ///< Best variant's numbers.
  double L2MissRatio = -1.0; ///< From the cache model; -1 if not probed.
  /// Measured LLC miss ratio from hardware counters; -1 when the PMU is
  /// unavailable (then HwWhy says why) or counters were not requested.
  double HwLlcMissRatio = -1.0;
  std::string HwWhy;
};

/// One suite matrix with all its format results.
struct MatrixResult {
  std::string Name;
  Domain Dom = Domain::WebGraph;
  bool ScaleFree = false;
  MatrixStats Stats;
  std::map<FormatId, FormatResult> ByFormat;
};

/// Suite-runner options, including the command-line conveniences shared by
/// all bench binaries.
struct SuiteOptions {
  double SizeScale = 1.0;  ///< Shrinks every matrix (--quick sets 0.35).
  bool Smoke = false;      ///< Run the 8-matrix smoke subset only.
  bool ProbeLocality = false; ///< Also run the cache-model probe.
  bool Csv = false;        ///< Emit CSV instead of aligned tables.
  bool Verbose = false;    ///< Progress lines on stderr.
  std::string JsonPath;    ///< --json <path>: machine-readable records.
  std::string TraceOutPath; ///< --trace-out <path>: chrome-trace JSON.
  bool HwCounters = false; ///< Also read hardware LLC counters per format.
  MeasureConfig Measure;
  std::vector<FormatId> Formats = allFormats();
};

/// One machine-readable benchmark record: a (matrix, variant) pair with its
/// measured numbers, for the --json output that CI and external analysis
/// consume. The suite runner emits one per (matrix, format) best variant;
/// micro_kernels emits one per variant.
struct BenchRecord {
  std::string Matrix;
  std::string Domain;    ///< Empty when the source has no domain notion.
  bool ScaleFree = false;
  std::int64_t Rows = 0;
  std::int64_t Cols = 0;
  std::int64_t Nnz = 0;
  std::string Format;
  Measurement M;             ///< VariantName, timings, GFlop/s, plan.
  double L2MissRatio = -1.0; ///< From the cache model; -1 if not probed.
  double HwLlcMissRatio = -1.0; ///< Measured by the PMU; -1 if unavailable.
  /// Bandwidth-roofline accounting (schema v3, analysis/Roofline.h):
  /// predicted DRAM bytes one iteration moves, the traced DRAM-side bytes
  /// of one iteration through the cache model, both also per nonzero, and
  /// the x re-fetch factor the prediction used. All negative when the
  /// producing bench did not run the roofline.
  double PredictedBytesPerIter = -1.0;
  double MeasuredBytesPerIter = -1.0;
  double PredictedBytesPerNnz = -1.0;
  double MeasuredBytesPerNnz = -1.0;
  double RooflineAlpha = -1.0;
};

/// Writes `{"schema": "cvr-bench-3", ..., "records": [...]}` to \p Path.
/// Schema v2 added a top-level "telemetry" object — the merged counter
/// snapshot at write time (histograms appear as `<name>.count` and
/// `<name>.sum`) — and optional per-record "hw_llc_miss_ratio" fields.
/// Schema v3 adds the optional per-record roofline fields
/// ("predicted_bytes_per_iteration", "measured_bytes_per_iteration",
/// "predicted_bytes_per_nnz", "measured_bytes_per_nnz", "roofline_alpha").
/// Every earlier field is preserved. Returns false (with a stderr
/// diagnostic) if the file cannot be written.
bool writeBenchJson(const std::string &Path,
                    const std::vector<BenchRecord> &Records,
                    double SizeScale, int NumThreads);

/// Parses the common bench flags (--quick, --smoke, --scale=X, --csv,
/// --threads=N, --trace-out <path>, --verbose); unknown flags print usage
/// and exit.
SuiteOptions parseSuiteOptions(int Argc, char **Argv);

/// Measured LLC miss ratio of a few SpMV sweeps of \p K, from the
/// hardware counters. Returns -1 and fills \p Why when the PMU is
/// unavailable (non-Linux, locked-down perf_event_paranoid, fail point).
double measuredLlcMissRatio(const SpmvKernel &K, const CsrMatrix &A,
                            std::string *Why = nullptr);

/// Rounds every value of \p A to fp32, so an explicit ValueKind::F32x64
/// conversion of it is exact. Benches and tests that time or check an f32
/// plan build their inputs with it; stream bytes and traced traffic do not
/// depend on values.
CsrMatrix roundedToFp32(CsrMatrix A);

/// Runs every requested format on every suite matrix.
std::vector<MatrixResult> runSuite(const std::vector<DatasetSpec> &Suite,
                                   const SuiteOptions &Opts);

/// Means of \p Extract over the results in \p Dom (skips negatives).
double domainMean(const std::vector<MatrixResult> &Results, Domain Dom,
                  FormatId F, double (*Extract)(const FormatResult &));

} // namespace cvr

#endif // CVR_BENCHLIB_SUITERUNNER_H
