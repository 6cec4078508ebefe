// The benchmark's own statistics, counting, table algebra and output
// checks. Nothing here calls into the program's counting or projection
// code: the checks must hold against an independent computation.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "bench.h"
#include "data/synthetic.h"

namespace perfbench {

namespace {

uint64_t Pext(uint64_t x, uint64_t mask) {
#if defined(__BMI2__)
  return _pext_u64(x, mask);
#else
  uint64_t out = 0;
  for (int bit = 0; mask != 0; mask &= mask - 1, ++bit) {
    if (x & mask & -mask) out |= uint64_t{1} << bit;
  }
  return out;
#endif
}

uint64_t Pdep(uint64_t x, uint64_t mask) {
#if defined(__BMI2__)
  return _pdep_u64(x, mask);
#else
  uint64_t out = 0;
  for (int bit = 0; mask != 0; mask &= mask - 1, ++bit) {
    if ((x >> bit) & 1) out |= mask & -mask;
  }
  return out;
#endif
}

std::string Fmt(const char* what, double got, double want, double tol) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": got " << got << " want " << want << " (tol " << tol << ")";
  return out.str();
}

}  // namespace

std::pair<double, double> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  double total = 0.0;
  double steal = 0.0;
  double value = 0.0;
  for (int field = 0; field < 10 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

uint64_t Mix::Next() {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Mix mix(seed * 0x100000001b3ULL + stream);
  mix.Next();
  return mix.Next();
}

AttrSet RandomScope(Mix* rng, int d, int k) {
  return RandomSubset(rng, AttrSet::Full(d), k);
}

AttrSet RandomSubset(Mix* rng, AttrSet within, int k) {
  std::vector<int> attrs = within.ToIndices();
  for (int i = 0; i < k; ++i) {
    std::swap(attrs[i], attrs[i + rng->Below(attrs.size() - i)]);
  }
  attrs.resize(k);
  return AttrSet::FromIndices(attrs);
}

bool Covered(const std::vector<AttrSet>& views, AttrSet scope) {
  for (AttrSet view : views) {
    if (scope.IsSubsetOf(view)) return true;
  }
  return false;
}

std::vector<MarginalTable> NaiveCounts(const std::vector<uint64_t>& records,
                                       const std::vector<AttrSet>& scopes) {
  std::vector<std::vector<double>> cells(scopes.size());
  std::vector<uint64_t> masks(scopes.size());
  for (size_t s = 0; s < scopes.size(); ++s) {
    cells[s].assign(size_t{1} << scopes[s].size(), 0.0);
    masks[s] = scopes[s].mask();
  }
  for (uint64_t record : records) {
    for (size_t s = 0; s < scopes.size(); ++s) {
      cells[s][Pext(record, masks[s])] += 1.0;
    }
  }
  std::vector<MarginalTable> out;
  out.reserve(scopes.size());
  for (size_t s = 0; s < scopes.size(); ++s) {
    out.emplace_back(scopes[s], std::move(cells[s]));
  }
  return out;
}

MarginalTable OwnProject(const MarginalTable& table, AttrSet keep) {
  std::vector<double> cells(size_t{1} << keep.size(), 0.0);
  const uint64_t scope = table.attrs().mask();
  for (uint64_t c = 0; c < table.size(); ++c) {
    cells[Pext(Pdep(c, scope), keep.mask())] += table.At(c);
  }
  return MarginalTable(keep, std::move(cells));
}

MarginalTable OwnSlice(const MarginalTable& table, int attr, int value) {
  const AttrSet rest = table.attrs().Minus(AttrSet::FromIndices({attr}));
  std::vector<double> cells(size_t{1} << rest.size(), 0.0);
  const uint64_t scope = table.attrs().mask();
  for (uint64_t c = 0; c < table.size(); ++c) {
    const uint64_t full = Pdep(c, scope);
    if (int((full >> attr) & 1) != value) continue;
    cells[Pext(full, rest.mask())] = table.At(c);
  }
  return MarginalTable(rest, std::move(cells));
}

double OwnTotal(const MarginalTable& table) {
  double sum = 0.0;
  for (double cell : table.cells()) sum += cell;
  return sum;
}

double NormalizedL2(const MarginalTable& a, const MarginalTable& b, double n) {
  double sq = 0.0;
  for (size_t c = 0; c < a.size(); ++c) {
    const double diff = a.At(c) - b.At(c);
    sq += diff * diff;
  }
  return std::sqrt(sq) / n;
}

double MaxAbsDiff(const MarginalTable& a, const MarginalTable& b) {
  if (a.attrs() != b.attrs() || a.size() != b.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (size_t c = 0; c < a.size(); ++c) {
    const double diff = std::fabs(a.At(c) - b.At(c));
    if (!(diff <= worst)) worst = std::isnan(diff) ? INFINITY : diff;
  }
  return worst;
}

// ---- checks -----------------------------------------------------------------

std::string CheckCoverage(const std::vector<AttrSet>& views, int d, int t) {
  if (t < 1 || t > d) return "coverage: bad t " + std::to_string(t);
  // Gosper's hack over every t-subset of {0..d-1}.
  const uint64_t limit = uint64_t{1} << d;
  for (uint64_t s = (uint64_t{1} << t) - 1; s < limit;) {
    bool found = false;
    for (AttrSet view : views) {
      if ((s & ~view.mask()) == 0) {
        found = true;
        break;
      }
    }
    if (!found) return "coverage: t-subset " + AttrSet(s).ToString() +
                       " lies in no view";
    const uint64_t c = s & -s;
    const uint64_t r = s + c;
    s = (((r ^ s) >> 2) / c) | r;
  }
  return "";
}

std::string CheckPairwiseAgreement(const std::vector<MarginalTable>& views,
                                   double tol) {
  for (size_t i = 0; i < views.size(); ++i) {
    for (size_t j = i + 1; j < views.size(); ++j) {
      const AttrSet common = views[i].attrs().Intersect(views[j].attrs());
      if (common.empty()) continue;
      const double diff = MaxAbsDiff(OwnProject(views[i], common),
                                     OwnProject(views[j], common));
      if (!(diff <= tol)) {
        return Fmt(("agreement on " + common.ToString()).c_str(), diff, 0.0,
                   tol);
      }
    }
  }
  return "";
}

std::string CheckCommonTotal(const std::vector<MarginalTable>& views,
                             double total, double tol) {
  for (const MarginalTable& view : views) {
    const double sum = OwnTotal(view);
    if (!(std::fabs(sum - total) <= tol)) {
      return Fmt(("view total " + view.attrs().ToString()).c_str(), sum, total,
                 tol);
    }
  }
  return "";
}

std::string CheckExactCounts(const std::vector<MarginalTable>& got,
                             const std::vector<MarginalTable>& want) {
  if (got.size() != want.size()) return "exact counts: table count differs";
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].attrs() != want[i].attrs() ||
        got[i].cells() != want[i].cells()) {
      return "exact counts: " + want[i].attrs().ToString() +
             " differs from the naive count (max diff " +
             std::to_string(MaxAbsDiff(got[i], want[i])) + ")";
    }
  }
  return "";
}

std::string CheckBitIdentical(const std::vector<MarginalTable>& a,
                              const std::vector<MarginalTable>& b) {
  if (a.size() != b.size()) return "recover: view count differs";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].attrs() != b[i].attrs() || a[i].size() != b[i].size() ||
        std::memcmp(a[i].cells().data(), b[i].cells().data(),
                    a[i].size() * sizeof(double)) != 0) {
      return "recover: view " + a[i].attrs().ToString() + " not bit-identical";
    }
  }
  return "";
}

std::string CheckErrorBelowUniform(double l2, double uniform_l2) {
  if (!(l2 < uniform_l2 / 10.0)) {
    return Fmt("l2 vs uniform/10", l2, uniform_l2 / 10.0, 0.0);
  }
  return "";
}

std::string CheckSumsToTotal(const MarginalTable& answer, double total) {
  const double sum = OwnTotal(answer);
  const double tol = kSumRelTol * std::fabs(total);
  if (!(std::fabs(sum - total) <= tol)) {
    return Fmt(("sum of " + answer.attrs().ToString()).c_str(), sum, total,
               tol);
  }
  return "";
}

std::string CheckMatches(const MarginalTable& answer,
                         const MarginalTable& expected, double tol,
                         const char* what) {
  const double diff = MaxAbsDiff(answer, expected);
  if (!(diff <= tol)) {
    return Fmt((std::string(what) + " " + expected.attrs().ToString()).c_str(),
               diff, 0.0, tol);
  }
  return "";
}

std::string CheckValue(double got, double want, double tol, const char* what) {
  if (!(std::fabs(got - want) <= tol)) return Fmt(what, got, want, tol);
  return "";
}

std::string CheckProjections(const MarginalTable& answer,
                             const std::vector<MarginalTable>& views,
                             double tol) {
  for (const MarginalTable& view : views) {
    const AttrSet common = view.attrs().Intersect(answer.attrs());
    if (common.empty()) continue;
    const double diff =
        MaxAbsDiff(OwnProject(answer, common), OwnProject(view, common));
    if (!(diff <= tol)) {
      return Fmt(("projection of " + answer.attrs().ToString() + " on " +
                  common.ToString())
                     .c_str(),
                 diff, 0.0, tol);
    }
  }
  return "";
}

std::string CheckEpochsIncrease(const std::vector<uint64_t>& epochs) {
  for (size_t i = 1; i < epochs.size(); ++i) {
    if (epochs[i] <= epochs[i - 1]) {
      return "epochs: " + std::to_string(epochs[i]) + " follows " +
             std::to_string(epochs[i - 1]);
    }
  }
  return "";
}

std::string CheckReadEpochs(const std::vector<uint64_t>& read_epochs,
                            const std::vector<uint64_t>& installed) {
  std::vector<uint64_t> sorted = installed;
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t epoch : read_epochs) {
    if (!std::binary_search(sorted.begin(), sorted.end(), epoch)) {
      return "read names epoch " + std::to_string(epoch) +
             " that was never installed";
    }
  }
  return "";
}

std::string CheckEpsilonSpent(double spent, int64_t epochs,
                              double epoch_epsilon) {
  const double want = double(epochs) * epoch_epsilon;
  return CheckValue(spent, want, 1e-9 * std::max(1.0, want), "epsilon spent");
}

// ---- set-up helpers ----------------------------------------------------------

Dataset MakeData(uint64_t seed, bool small) {
  priview::Rng rng(SubSeed(seed, 1));
  return priview::MakeKosarakLike(&rng, small ? kN / 16 : kN);
}

priview::StatusOr<priview::PipelineResult> Release(const Dataset& data,
                                                   uint64_t seed,
                                                   bool add_noise) {
  priview::PipelineOptions options;
  options.total_epsilon = kEpsilon;
  options.synopsis.add_noise = add_noise;
  priview::Rng rng(seed);
  return priview::BuildPriViewPipeline(data, options, &rng);
}

ScratchDir::ScratchDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  path_ = ".bench_run/" + tag + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::remove(".bench_run", ec);  // only when empty
}

priview::StatusOr<std::unique_ptr<Hosted>> Host(const PriViewSynopsis& synopsis,
                                                const std::string& tag,
                                                size_t history_depth,
                                                int retention_depth) {
  auto hosted = std::make_unique<Hosted>();
  hosted->dir = std::make_unique<ScratchDir>(tag);
  priview::store::StoreOptions store_options;
  store_options.dir = hosted->dir->path() + "/store";
  store_options.retention_depth = retention_depth;
  hosted->store = std::make_unique<priview::store::SynopsisStore>(store_options);
  priview::Status status = hosted->store->Open();
  if (status.ok()) status = hosted->store->Install(kSynopsisName, synopsis);
  if (!status.ok()) return status;

  priview::serve::ServerOptions options;
  hosted->socket = hosted->dir->path() + "/s.sock";
  options.socket_path = hosted->socket;
  options.history_depth = history_depth;
  hosted->server = std::make_unique<priview::serve::PriViewServer>(options);
  auto report = hosted->store->Recover(&hosted->server->registry());
  if (!report.ok()) return report.status();
  hosted->server->SetStoreRecovered(true);
  status = hosted->server->Start();
  if (!status.ok()) return status;
  hosted->views = synopsis.views();
  for (const MarginalTable& view : hosted->views) {
    hosted->scopes.push_back(view.attrs());
  }
  hosted->total = synopsis.total();
  return hosted;
}

}  // namespace perfbench
