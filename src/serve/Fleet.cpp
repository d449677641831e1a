//===- serve/Fleet.cpp - Served matrices, view kernels, kernel cache ------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/Fleet.h"

#include "analysis/InvariantChecker.h"
#include "io/MatrixMarket.h"
#include "obs/Telemetry.h"
#include "support/FailPoint.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace cvr {
namespace serve {

const char *loadModeName(LoadMode M) {
  switch (M) {
  case LoadMode::Mapped:
    return "mapped";
  case LoadMode::Stream:
    return "stream";
  case LoadMode::Prepared:
    return "prepared";
  }
  return "?";
}

std::int32_t ServedMatrix::rows() const {
  return Mode == LoadMode::Prepared ? (Csr ? Csr->numRows() : 0)
                                    : M.numRows();
}
std::int32_t ServedMatrix::cols() const {
  return Mode == LoadMode::Prepared ? (Csr ? Csr->numCols() : 0)
                                    : M.numCols();
}
std::int64_t ServedMatrix::nnz() const {
  return Mode == LoadMode::Prepared ? (Csr ? Csr->numNonZeros() : 0)
                                    : M.numNonZeros();
}

const CvrMatrix *ServedMatrix::cvr() const {
  if (Mode != LoadMode::Prepared)
    return &M;
  const auto *Src =
      dynamic_cast<const CvrMatrixSource *>(Prepared.Kernel.get());
  return Src ? &Src->cvrMatrix() : nullptr;
}

double ServedMatrix::bytesPerNnz() const {
  const CvrMatrix *C = cvr();
  const std::size_t Bytes =
      C ? C->formatBytes()
        : (Prepared.Kernel ? Prepared.Kernel->formatBytes() : 0);
  return nnz() > 0 ? static_cast<double>(Bytes) / static_cast<double>(nnz())
                   : 0.0;
}

std::uint64_t fingerprintBytes(const void *Data, std::size_t Bytes) {
  const auto *P = static_cast<const unsigned char *>(Data);
  std::uint64_t H = 1469598103934665603ULL; // FNV offset basis.
  for (std::size_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL; // FNV prime.
  }
  return H;
}

//===----------------------------------------------------------------------===//
// KernelCache
//===----------------------------------------------------------------------===//

bool KernelCache::lookup(std::uint64_t Key, ExecPlan &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second); // Touch: move to MRU.
  Out = It->second->second;
  Hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void KernelCache::insert(std::uint64_t Key, const ExecPlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->second = Plan;
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  if (Lru.size() >= Cap) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  Lru.emplace_front(Key, Plan);
  Index[Key] = Lru.begin();
}

std::size_t KernelCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Lru.size();
}

//===----------------------------------------------------------------------===//
// Fleet
//===----------------------------------------------------------------------===//

Fleet::Fleet(FleetOptions O)
    : Opts(std::move(O)), Cache(Opts.KernelCacheEntries) {}

Fleet::~Fleet() = default;

namespace {

/// Blob version at offset 4, or 0 when the image is too short / not CVRF.
std::uint32_t blobVersionOf(const void *Data, std::size_t Bytes) {
  if (Bytes < 8 || std::memcmp(Data, "CVRF", 4) != 0)
    return 0;
  std::uint32_t V = 0;
  std::memcpy(&V, static_cast<const char *>(Data) + 4, 4);
  return V;
}

void bumpCounter(const char *Name) {
  if (obs::telemetryEnabled())
    obs::counter(Name).inc();
}

} // namespace

Status Fleet::addBlob(const std::string &Name, const std::string &Path) {
  auto Entry = std::make_shared<ServedMatrix>();
  Entry->Name = Name;

  // Zero-copy attempt: mmap with bounded retry (serve.mmap models
  // transient map failures), then full validation against the mapped
  // bytes under the SIGBUS guard.
  if (Opts.PreferMmap) {
    StatusOr<io::MmapFile> MapOr = io::MmapFile::open(Path);
    for (int Attempt = 0;
         !MapOr.ok() && MapOr.status().code() == StatusCode::Unavailable &&
         Opts.MmapBackoff.shouldRetry(Attempt);
         ++Attempt) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(Opts.MmapBackoff.delayMicros(Attempt)));
      MapOr = io::MmapFile::open(Path);
    }
    if (MapOr.ok() &&
        blobVersionOf(MapOr->data(), MapOr->size()) == 4) {
      io::MmapFile Map = std::move(*MapOr);
      // One decode, validated before any pointer is trusted: checkBlob
      // runs mapBlob (every CRC, bound, pad and structure check against
      // the mapped bytes) and hands the decoded matrix over only if all
      // pass. It runs under the SIGBUS
      // guard, so a file truncated between fstat and here reports
      // DATA_LOSS instead of killing the daemon.
      Status V = io::withSigbusGuard(Path.c_str(), [&] {
        std::vector<analysis::Violation> Vs =
            analysis::InvariantChecker::checkBlob(Map.data(), Map.size(),
                                                  &Entry->M);
        if (!Vs.empty())
          return Status::dataLoss("blob '" + Path + "' failed validation: " +
                                  analysis::formatViolations(Vs));
        return Status::okStatus();
      });
      if (!V.ok())
        return V; // Corrupt bytes are corrupt in any load mode: reject.
      Entry->Fingerprint = fingerprintBytes(Map.data(), Map.size());
      Entry->Map = std::move(Map);
      Entry->Mode = LoadMode::Mapped;
      bumpCounter("serve.fleet.mapped");
    } else if (!MapOr.ok() &&
               MapOr.status().code() == StatusCode::NotFound) {
      return MapOr.status(); // A missing file is missing either way.
    }
    // Any other outcome (retries exhausted, v3 blob, short file)
    // falls through to the copying stream reader.
  }

  if (Entry->Mode != LoadMode::Mapped) {
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return Status::notFound("cannot open blob '" + Path + "'");
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Bytes = Buf.str();
    Entry->Fingerprint = fingerprintBytes(Bytes.data(), Bytes.size());
    std::istringstream BS(Bytes);
    StatusOr<CvrMatrix> MOr = CvrMatrix::readBlob(BS);
    if (!MOr.ok())
      return MOr.status().withContext("blob '" + Path + "'");
    Entry->M = std::move(*MOr);
    Entry->Mode = LoadMode::Stream;
    bumpCounter("serve.fleet.stream");
  }

  std::lock_guard<std::mutex> Lock(Mu);
  Entries[Name] = std::move(Entry);
  return Status::okStatus();
}

Status Fleet::addMatrixMarket(const std::string &Name,
                              const std::string &Path) {
  StatusOr<CooMatrix> Coo = readMatrixMarketFile(Path);
  if (!Coo.ok())
    return Coo.status().withContext("matrix '" + Path + "'");
  auto Entry = std::make_shared<ServedMatrix>();
  Entry->Name = Name;
  Entry->Mode = LoadMode::Prepared;
  Entry->Csr = std::make_unique<CsrMatrix>(CsrMatrix::fromCoo(*Coo));
  StatusOr<PreparedKernel> PK =
      prepareKernel(FormatId::Cvr, *Entry->Csr, Opts.Prepare);
  if (!PK.ok())
    return PK.status().withContext("preparing '" + Name + "'");
  Entry->Prepared = std::move(*PK);
  Entry->Fingerprint =
      fingerprintBytes(Name.data(), Name.size()); // No blob bytes to hash.
  bumpCounter("serve.fleet.prepared");

  std::lock_guard<std::mutex> Lock(Mu);
  Entries[Name] = std::move(Entry);
  return Status::okStatus();
}

std::shared_ptr<const ServedMatrix>
Fleet::find(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(Name);
  return It == Entries.end() ? nullptr : It->second;
}

std::vector<std::shared_ptr<const ServedMatrix>> Fleet::list() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::shared_ptr<const ServedMatrix>> Out;
  Out.reserve(Entries.size());
  for (const auto &KV : Entries)
    Out.push_back(KV.second);
  return Out;
}

Status Fleet::tuneExec(const ServedMatrix &Entry, const Deadline &D,
                       ExecPlan &Out) {
  const CvrMatrix &M = Entry.M;
  std::vector<double> X(static_cast<std::size_t>(M.numCols()), 1.0);
  std::vector<double> Y(static_cast<std::size_t>(M.numRows()), 0.0);
  constexpr int Distances[] = {0, 2, 4, 8};
  constexpr int RunsPerVariant = 3;

  Out = ExecPlan{};
  // Untimed warm-up: the first run pays first touch of X, Y and the mapped
  // blob, which would otherwise be charged to whichever variant goes first.
  CvrViewKernel(M).run(X.data(), Y.data());
  bool HaveBest = false;
  for (int Dist : Distances) {
    // Between-variant boundary: an expiring request keeps whatever the
    // sweep has already measured instead of burning its remaining budget.
    if (Status S = D.check("tune"); !S.ok())
      return S;
    CvrViewKernel K(M, Dist);
    // A variant's runs stay back to back, as serving runs them; taking the
    // variants in turn instead crowned slow prefetch plans more often. A
    // variant is scored by its fastest run: a run the host slowed inflates
    // a mean but not the minimum.
    double Secs = std::numeric_limits<double>::infinity();
    for (int R = 0; R < RunsPerVariant; ++R) {
      Timer T;
      K.run(X.data(), Y.data());
      Secs = std::min(Secs, T.seconds());
    }
    if (!HaveBest || Secs < Out.BestSecondsPerRun) {
      Out.PrefetchDistance = Dist;
      Out.BestSecondsPerRun = Secs;
      HaveBest = true;
    }
  }
  return Status::okStatus();
}

} // namespace serve
} // namespace cvr
