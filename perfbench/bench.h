// Shared pieces of the PriView end-to-end benchmark: run arguments, the
// result record, timing and order statistics, the benchmark's own
// (program-independent) counting and projection code, and the output
// checks every workload applies.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/synopsis.h"
#include "serve/server.h"
#include "store/synopsis_store.h"
#include "table/attr_set.h"
#include "table/dataset.h"
#include "table/marginal_table.h"

namespace perfbench {

using priview::AttrSet;
using priview::Dataset;
using priview::MarginalTable;
using priview::PriViewSynopsis;

// ---- fixed workload shape (README "Inputs") ------------------------------
inline constexpr int kD = 32;             // Kosarak-like attributes
inline constexpr size_t kN = 912627;      // Kosarak-like records
inline constexpr double kEpsilon = 1.0;   // total ε of one release
inline constexpr int kClientThreads = 2;  // serve-hot / serve-cold (README "Inputs")
inline constexpr int kSetupRepeats = 5;   // set-ups per run (setup_s median)

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced input sizes (the benchmark's self-test only).
  bool small = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few check failures, printed before the JSON line.
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one operation; a non-empty `failure` marks it failed.
  void Count(const std::string& failure) {
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      if (failures.size() < 8) failures.push_back(failure);
    }
  }
};

// ---- time and statistics ---------------------------------------------------
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// (steal, total) jiffies of all CPUs from /proc/stat: how much CPU time
/// the hypervisor gave to other tenants while this machine wanted it.
std::pair<double, double> StealJiffies();
/// Share of CPU time stolen between two StealJiffies() readings.
inline double StealShare(std::pair<double, double> a,
                         std::pair<double, double> b) {
  return b.second > a.second ? (b.first - a.first) / (b.second - a.second)
                             : 0.0;
}

/// Quantile by linear interpolation between order statistics; 0 if empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v);

/// SplitMix64 — the benchmark's own generator for everything except the
/// dataset itself (which comes from the program's Kosarak-like model).
struct Mix {
  uint64_t state;
  explicit Mix(uint64_t seed) : state(seed) {}
  uint64_t Next();
  double Uniform() { return double(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }
};
/// Deterministic sub-seed `stream` of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Random k-subset of {0..d-1}.
AttrSet RandomScope(Mix* rng, int d, int k);
/// Random non-empty subset of `within` with exactly k attributes.
AttrSet RandomSubset(Mix* rng, AttrSet within, int k);
/// True when some view contains `scope`.
bool Covered(const std::vector<AttrSet>& views, AttrSet scope);

// ---- the benchmark's own counting and table algebra ------------------------
/// Exact counts of `scopes` over `records`, one table per scope, by a
/// plain per-record loop (no program code involved).
std::vector<MarginalTable> NaiveCounts(const std::vector<uint64_t>& records,
                                       const std::vector<AttrSet>& scopes);
/// Projection of `table` onto `keep` ⊆ table.attrs(), by a plain loop.
MarginalTable OwnProject(const MarginalTable& table, AttrSet keep);
/// Slice of `table` at attr = value (scope drops attr).
MarginalTable OwnSlice(const MarginalTable& table, int attr, int value);
double OwnTotal(const MarginalTable& table);
/// sqrt(Σ (a-b)²) / n — the paper's normalized L2 error.
double NormalizedL2(const MarginalTable& a, const MarginalTable& b, double n);
/// Largest |a-b| over cells; infinity on a scope or size mismatch.
double MaxAbsDiff(const MarginalTable& a, const MarginalTable& b);

// ---- output checks (return "" when the check holds) -------------------------
std::string CheckCoverage(const std::vector<AttrSet>& views, int d, int t);
std::string CheckPairwiseAgreement(const std::vector<MarginalTable>& views,
                                   double tol);
std::string CheckCommonTotal(const std::vector<MarginalTable>& views,
                             double total, double tol);
std::string CheckExactCounts(const std::vector<MarginalTable>& got,
                             const std::vector<MarginalTable>& want);
std::string CheckBitIdentical(const std::vector<MarginalTable>& a,
                              const std::vector<MarginalTable>& b);
std::string CheckErrorBelowUniform(double l2, double uniform_l2);
std::string CheckSumsToTotal(const MarginalTable& answer, double total);
std::string CheckMatches(const MarginalTable& answer,
                         const MarginalTable& expected, double tol,
                         const char* what);
std::string CheckValue(double got, double want, double tol, const char* what);
/// The answer's projection onto its intersection with every view it meets
/// lies within `tol` of that view's projection.
std::string CheckProjections(const MarginalTable& answer,
                             const std::vector<MarginalTable>& views,
                             double tol);
std::string CheckEpochsIncrease(const std::vector<uint64_t>& epochs);
std::string CheckReadEpochs(const std::vector<uint64_t>& read_epochs,
                            const std::vector<uint64_t>& installed);
std::string CheckEpsilonSpent(double spent, int64_t epochs,
                              double epoch_epsilon);

/// Bound on an uncovered answer's disagreement with the views it meets,
/// as a share of N (README "Checks").
inline constexpr double kProjectionBoundShare = 5e-3;
/// Released views agree on common attributes within this share of N.
inline constexpr double kAgreementShare = 1e-6;
/// Answer sums match the hosted total within this relative error.
inline constexpr double kSumRelTol = 1e-9;

// ---- program set-up shared by the workloads ---------------------------------
/// The Kosarak-like dataset of a run (the program's own generator).
Dataset MakeData(uint64_t seed, bool small);
/// One §4.5 release of `data` at ε = 1 (BuildPriViewPipeline).
priview::StatusOr<priview::PipelineResult> Release(const Dataset& data,
                                                   uint64_t seed,
                                                   bool add_noise = true);

/// A scratch directory inside the working directory, removed on
/// destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A live server hosting one release recovered from a durable store — the
/// serving set-up of serve-hot, serve-cold and stream-rollover.
struct Hosted {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<priview::store::SynopsisStore> store;
  std::unique_ptr<priview::serve::PriViewServer> server;
  std::string socket;
  std::vector<MarginalTable> views;  // the release as installed
  std::vector<AttrSet> scopes;
  double total = 0.0;
};
inline const char* kSynopsisName = "kosarak";
/// Installs `synopsis` durably, starts a server on a Unix socket and
/// recovers the store into its registry. `history_depth` retains epochs
/// for series reads.
priview::StatusOr<std::unique_ptr<Hosted>> Host(const PriViewSynopsis& synopsis,
                                                const std::string& tag,
                                                size_t history_depth,
                                                int retention_depth);

// ---- workloads and the traced probes ----------------------------------------
Result RunRelease(const Args& args);
Result RunServeHot(const Args& args);
Result RunServeCold(const Args& args);
Result RunStream(const Args& args);
/// Appends every per-layer metric (traced mode) to `result`.
void RunLayerProbes(const Args& args, Result* result);
/// Prints the host reference figures the README quotes.
void PrintReferenceFigures(uint64_t seed);
/// Feeds corrupted answers and synopses to every check; returns the
/// number of checks that failed to flag them.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
