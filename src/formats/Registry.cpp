//===- formats/Registry.cpp - Kernel factory registry ---------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "formats/Registry.h"

#include "core/CvrSpmv.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "formats/Csr5.h"
#include "formats/CsrInspector.h"
#include "formats/CsrSpmv.h"
#include "formats/Esb.h"
#include "formats/Vhcc.h"

namespace cvr {

const char *formatName(FormatId F) {
  switch (F) {
  case FormatId::Mkl:
    return "MKL";
  case FormatId::CsrI:
    return "CSR(I)";
  case FormatId::Esb:
    return "ESB";
  case FormatId::Vhcc:
    return "VHCC";
  case FormatId::Csr5:
    return "CSR5";
  case FormatId::Cvr:
    return "CVR";
  }
  return "?";
}

const std::vector<FormatId> &allFormats() {
  static const std::vector<FormatId> Formats = {
      FormatId::Mkl,  FormatId::CsrI, FormatId::Esb,
      FormatId::Vhcc, FormatId::Csr5, FormatId::Cvr};
  return Formats;
}

std::vector<KernelVariant> variantsOf(FormatId F, int NumThreads) {
  std::vector<KernelVariant> Vs;
  switch (F) {
  case FormatId::Mkl:
    Vs.push_back({F, "MKL", [=] {
                    return std::make_unique<CsrSpmv>(NumThreads);
                  }});
    break;
  case FormatId::CsrI:
    for (CsrISchedule S : {CsrISchedule::StaticRows, CsrISchedule::StaticNnz,
                           CsrISchedule::Dynamic})
      Vs.push_back({F, std::string("CSR(I)/") + csrIScheduleName(S), [=] {
                      return std::make_unique<CsrInspector>(S, NumThreads);
                    }});
    break;
  case FormatId::Esb:
    for (EsbSort S : {EsbSort::NoSort, EsbSort::Windowed, EsbSort::Global})
      Vs.push_back({F, std::string("ESB/") + esbSortName(S), [=] {
                      return std::make_unique<Esb>(S, NumThreads);
                    }});
    break;
  case FormatId::Vhcc:
    for (int P : Vhcc::panelSweep())
      Vs.push_back({F, "VHCC/p" + std::to_string(P), [=] {
                      return std::make_unique<Vhcc>(P, NumThreads);
                    }});
    break;
  case FormatId::Csr5:
    Vs.push_back({F, "CSR5", [=] {
                    return std::make_unique<Csr5>(/*Sigma=*/0, NumThreads);
                  }});
    break;
  case FormatId::Cvr:
    Vs.push_back({F, "CVR", [=] {
                    CvrOptions Opts;
                    Opts.NumThreads = NumThreads;
                    return std::make_unique<CvrKernel>(Opts);
                  }});
    break;
  }
  return Vs;
}

std::unique_ptr<SpmvKernel> makeKernel(FormatId F, int NumThreads) {
  return variantsOf(F, NumThreads).front().Make();
}

StatusOr<PreparedKernel> prepareKernel(FormatId F, const CsrMatrix &A,
                                       const PrepareOptions &Opts) {
  const int Threads = Opts.NumThreads;

  std::vector<KernelVariant> Ladder = {variantsOf(F, Threads).front()};
  // Terminal safety net: the zero-preprocessing CSR baseline runs the
  // matrix in place, so it survives the failures that kill conversion-
  // heavy formats (and the MKL stand-in IS this kernel already).
  if (F != FormatId::Mkl)
    Ladder.push_back({FormatId::Mkl, "CSR",
                      [&] { return std::make_unique<CsrSpmv>(Threads); }});

  obs::TraceSpan Span("prepare/ladder", "prepare");
  Span.arg("rows", A.numRows());
  Span.arg("nnz", A.numNonZeros());

  PreparedKernel PK;
  PK.Requested = Ladder.front().VariantName;
  Status LastErr = Status::okStatus();
  for (std::size_t I = 0; I < Ladder.size(); ++I) {
    std::unique_ptr<SpmvKernel> K = Ladder[I].Make();
    Status S = K->prepareStatus(A);
    if (S.ok()) {
      PK.Kernel = std::move(K);
      PK.Actual = Ladder[I].VariantName;
      if (obs::telemetryEnabled()) {
        static obs::Counter &Prepares = obs::counter("ladder.prepares");
        static obs::Counter &Downgrades = obs::counter("ladder.downgrades");
        Prepares.inc();
        Downgrades.add(static_cast<std::int64_t>(PK.Downgrades.size()));
      }
      return PK;
    }
    LastErr = S;
    PK.Downgrades.push_back(
        {Ladder[I].VariantName,
         I + 1 < Ladder.size() ? Ladder[I + 1].VariantName
                               : std::string("(none)"),
         S});
  }
  if (obs::telemetryEnabled()) {
    static obs::Counter &Exhausted = obs::counter("ladder.exhausted");
    Exhausted.inc();
  }
  return LastErr.withContext("every rung of the degradation ladder failed");
}

} // namespace cvr
