//===- benchlib/SuiteRunner.cpp - Suite-wide experiment driver ------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "benchlib/SuiteRunner.h"

#include "cachesim/LocalityProbe.h"
#include "obs/PerfCounters.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace cvr {

CsrMatrix roundedToFp32(CsrMatrix A) {
  for (std::int64_t I = 0; I < A.numNonZeros(); ++I)
    A.vals()[I] = static_cast<float>(A.vals()[I]);
  return A;
}

SuiteOptions parseSuiteOptions(int Argc, char **Argv) {
  SuiteOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--quick") == 0) {
      Opts.SizeScale = 0.35;
    } else if (std::strcmp(Arg, "--smoke") == 0) {
      Opts.Smoke = true;
      Opts.SizeScale = 0.35;
    } else if (std::strncmp(Arg, "--scale=", 8) == 0) {
      Opts.SizeScale = std::atof(Arg + 8);
      if (Opts.SizeScale <= 0.0 || Opts.SizeScale > 1.0) {
        std::fprintf(stderr, "error: --scale must be in (0, 1]\n");
        std::exit(2);
      }
    } else if (std::strncmp(Arg, "--threads=", 10) == 0) {
      Opts.Measure.NumThreads = std::atoi(Arg + 10);
    } else if (std::strcmp(Arg, "--json") == 0 && I + 1 < Argc) {
      Opts.JsonPath = Argv[++I];
    } else if (std::strncmp(Arg, "--json=", 7) == 0) {
      Opts.JsonPath = Arg + 7;
    } else if (std::strcmp(Arg, "--trace-out") == 0 && I + 1 < Argc) {
      Opts.TraceOutPath = Argv[++I];
    } else if (std::strncmp(Arg, "--trace-out=", 12) == 0) {
      Opts.TraceOutPath = Arg + 12;
    } else if (std::strcmp(Arg, "--csv") == 0) {
      Opts.Csv = true;
    } else if (std::strcmp(Arg, "--verbose") == 0) {
      Opts.Verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--smoke] [--scale=X] "
                   "[--threads=N] [--csv] [--json <path>] "
                   "[--trace-out <path>] [--verbose]\n",
                   Argv[0]);
      std::exit(std::strcmp(Arg, "--help") == 0 ? 0 : 2);
    }
  }
  return Opts;
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// enough for matrix/variant names and plan descriptions.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      (Out += '\\') += C;
    else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else
      Out += C;
  }
  return Out;
}

} // namespace

bool writeBenchJson(const std::string &Path,
                    const std::vector<BenchRecord> &Records,
                    double SizeScale, int NumThreads) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "error: cannot write json to '%s'\n", Path.c_str());
    return false;
  }
  char Buf[256];
  OS << "{\n  \"schema\": \"cvr-bench-3\",\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"size_scale\": %g,\n  \"threads\": %d,\n", SizeScale,
                NumThreads);
  OS << Buf << "  \"records\": [";
  for (std::size_t I = 0; I < Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "    {\"matrix\": \"" << jsonEscape(R.Matrix) << "\"";
    if (!R.Domain.empty())
      OS << ", \"domain\": \"" << jsonEscape(R.Domain) << "\", "
         << "\"scale_free\": " << (R.ScaleFree ? "true" : "false");
    std::snprintf(Buf, sizeof(Buf),
                  ", \"rows\": %lld, \"cols\": %lld, \"nnz\": %lld",
                  static_cast<long long>(R.Rows),
                  static_cast<long long>(R.Cols),
                  static_cast<long long>(R.Nnz));
    OS << Buf;
    OS << ", \"format\": \"" << jsonEscape(R.Format) << "\", \"variant\": \""
       << jsonEscape(R.M.VariantName) << "\"";
    std::snprintf(Buf, sizeof(Buf),
                  ", \"preprocess_seconds\": %.9g, "
                  "\"seconds_per_iteration\": %.9g, \"gflops\": %.6g, "
                  "\"max_rel_error\": %.6g, \"format_bytes\": %zu",
                  R.M.PreprocessSeconds, R.M.SecondsPerIteration, R.M.Gflops,
                  R.M.MaxRelError, R.M.FormatBytes);
    OS << Buf;
    if (R.L2MissRatio >= 0.0) {
      std::snprintf(Buf, sizeof(Buf), ", \"l2_miss_ratio\": %.6g",
                    R.L2MissRatio);
      OS << Buf;
    }
    if (R.HwLlcMissRatio >= 0.0) {
      std::snprintf(Buf, sizeof(Buf), ", \"hw_llc_miss_ratio\": %.6g",
                    R.HwLlcMissRatio);
      OS << Buf;
    }
    // Schema v3: roofline accounting, only when the bench computed it.
    if (R.PredictedBytesPerIter >= 0.0) {
      std::snprintf(Buf, sizeof(Buf),
                    ", \"predicted_bytes_per_iteration\": %.9g, "
                    "\"predicted_bytes_per_nnz\": %.6g",
                    R.PredictedBytesPerIter, R.PredictedBytesPerNnz);
      OS << Buf;
    }
    if (R.MeasuredBytesPerIter >= 0.0) {
      std::snprintf(Buf, sizeof(Buf),
                    ", \"measured_bytes_per_iteration\": %.9g, "
                    "\"measured_bytes_per_nnz\": %.6g",
                    R.MeasuredBytesPerIter, R.MeasuredBytesPerNnz);
      OS << Buf;
    }
    if (R.RooflineAlpha >= 0.0) {
      std::snprintf(Buf, sizeof(Buf), ", \"roofline_alpha\": %.6g",
                    R.RooflineAlpha);
      OS << Buf;
    }
    OS << "}";
  }
  OS << "\n  ],\n  \"telemetry\": {";
  // Schema v2: the merged counter snapshot rides along with the records,
  // so a BENCH_*.json artifact explains *what ran* (conversions, steal
  // records, SpMV runs) next to how fast it ran.
  bool FirstMetric = true;
  for (const obs::MetricSnapshot &MS : obs::snapshotTelemetry()) {
    auto emit = [&](const std::string &Key, std::int64_t V) {
      OS << (FirstMetric ? "\n" : ",\n");
      FirstMetric = false;
      OS << "    \"" << jsonEscape(Key)
         << "\": " << static_cast<long long>(V);
    };
    if (MS.Kind == obs::MetricKind::Histogram) {
      emit(MS.Name + ".count", MS.Count);
      emit(MS.Name + ".sum", MS.Sum);
    } else {
      emit(MS.Name, MS.Value);
    }
  }
  OS << "\n  }\n}\n";
  return static_cast<bool>(OS);
}

double measuredLlcMissRatio(const SpmvKernel &K, const CsrMatrix &A,
                            std::string *Why) {
  std::vector<double> X(static_cast<std::size_t>(A.numCols()));
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()), 0.0);
  for (std::size_t I = 0; I < X.size(); ++I)
    X[I] = 1.0 + 0.0001 * static_cast<double>(I % 1024);
  K.run(X.data(), Y.data()); // Warm-up: page faults, caches, branch state.
  StatusOr<obs::PerfSample> S = obs::measurePerf([&] {
    for (int R = 0; R < 3; ++R)
      K.run(X.data(), Y.data());
  });
  if (!S.ok()) {
    if (Why)
      *Why = S.status().message();
    return -1.0;
  }
  return S.value().missRatio();
}

std::vector<MatrixResult> runSuite(const std::vector<DatasetSpec> &Suite,
                                   const SuiteOptions &Opts) {
  if (!Opts.TraceOutPath.empty())
    obs::traceStart();
  std::vector<MatrixResult> Results;
  Results.reserve(Suite.size());
  for (const DatasetSpec &D : Suite) {
    if (Opts.Verbose)
      std::fprintf(stderr, "[suite] building %s\n", D.Name.c_str());
    CsrMatrix A = D.Build();

    MatrixResult R;
    R.Name = D.Name;
    R.Dom = D.Dom;
    R.ScaleFree = D.ScaleFree;
    R.Stats = computeStats(A);

    for (FormatId F : Opts.Formats) {
      if (Opts.Verbose)
        std::fprintf(stderr, "[suite]   %s ...\n", formatName(F));
      FormatResult FR;
      FR.Best = measureBestOf(F, A, Opts.Measure);
      if (Opts.ProbeLocality) {
        LocalityResult L = probeLocality(*FR.Best.Kernel, A);
        if (L.Supported)
          FR.L2MissRatio = L.L2MissRatio;
      }
      if (Opts.HwCounters && FR.Best.Kernel)
        FR.HwLlcMissRatio =
            measuredLlcMissRatio(*FR.Best.Kernel, A, &FR.HwWhy);
      // Kernels hold sizable converted copies; release before the next
      // format to keep peak memory near one format's footprint.
      if (!Opts.ProbeLocality && !Opts.HwCounters)
        FR.Best.Kernel.reset();
      R.ByFormat.emplace(F, std::move(FR));
    }
    // Drop kernels after locality probing too.
    for (auto &[F, FR] : R.ByFormat)
      FR.Best.Kernel.reset();
    Results.push_back(std::move(R));
  }
  if (!Opts.JsonPath.empty()) {
    std::vector<BenchRecord> Records;
    for (const MatrixResult &R : Results)
      for (const auto &[F, FR] : R.ByFormat) {
        BenchRecord Rec;
        Rec.Matrix = R.Name;
        Rec.Domain = domainName(R.Dom);
        Rec.ScaleFree = R.ScaleFree;
        Rec.Rows = R.Stats.NumRows;
        Rec.Cols = R.Stats.NumCols;
        Rec.Nnz = R.Stats.Nnz;
        Rec.Format = formatName(F);
        Rec.M = FR.Best;
        Rec.L2MissRatio = FR.L2MissRatio;
        Rec.HwLlcMissRatio = FR.HwLlcMissRatio;
        Records.push_back(std::move(Rec));
      }
    writeBenchJson(Opts.JsonPath, Records, Opts.SizeScale,
                   Opts.Measure.NumThreads);
  }
  if (!Opts.TraceOutPath.empty()) {
    Status S = obs::traceStopToFile(Opts.TraceOutPath);
    if (!S.ok())
      std::fprintf(stderr, "warning: %s\n", S.toString().c_str());
    else if (Opts.Verbose)
      std::fprintf(stderr, "[suite] trace written to %s\n",
                   Opts.TraceOutPath.c_str());
  }
  return Results;
}

double domainMean(const std::vector<MatrixResult> &Results, Domain Dom,
                  FormatId F, double (*Extract)(const FormatResult &)) {
  double Sum = 0.0;
  int N = 0;
  for (const MatrixResult &R : Results) {
    if (R.Dom != Dom)
      continue;
    auto It = R.ByFormat.find(F);
    if (It == R.ByFormat.end())
      continue;
    double V = Extract(It->second);
    if (V < 0.0)
      continue;
    Sum += V;
    ++N;
  }
  return N == 0 ? 0.0 : Sum / N;
}

} // namespace cvr
