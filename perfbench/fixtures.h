// Set-ups and load generation shared by the workloads and the traced
// per-layer probes: the serving set-up (release → durable store → server),
// the hot cube pool, the cold target list, the streaming publisher with
// its filled window, and closed-loop client threads.
#ifndef PERFBENCH_FIXTURES_H_
#define PERFBENCH_FIXTURES_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "serve/client.h"
#include "stream/stream_publisher.h"

namespace perfbench {

using priview::serve::PriViewClient;

template <typename Fn>
double TimeMs(Fn&& fn) {
  const double t0 = NowS();
  fn();
  return (NowS() - t0) * 1e3;
}

std::string Describe(const priview::Status& status);
void SetTracer(bool armed);

/// Median normalized L2 error of `answers` against `truth`.
double MedianL2(const std::vector<MarginalTable>& answers,
                const std::vector<MarginalTable>& truth, double n);

/// Validates one served table: its sum, then the benchmark's own roll-up
/// of a covering view, or — uncovered — its projection onto every view it
/// meets.
std::string CheckServedTable(const MarginalTable& answer, const Hosted& hosted);

// ---- serving set-up -----------------------------------------------------------

struct ServeSetup {
  explicit ServeSetup(Dataset d) : data(std::move(d)) {}
  virtual ~ServeSetup() = default;
  Dataset data;
  std::unique_ptr<Hosted> hosted;
  double publish_ms = 0.0;     // initial release + durable install
  double publish_steal = 0.0;  // host steal share while it ran
};

/// Data, the initial release (durably installed), store recovery and
/// server start. Set-up `repeat` r releases with its own seed, so the
/// publish time of the serving workloads is a median over releases.
std::unique_ptr<ServeSetup> StartServing(const Args& args, int repeat,
                                         const std::string& tag,
                                         size_t history_depth,
                                         int retention_depth);

/// A cube of the hot pool and the answers its requests must return.
struct Cube {
  AttrSet scope;
  MarginalTable reference;  // validated at warm-up
  /// Sub-scopes asked as roll-up marginals, and for each the benchmark's
  /// own projection of every pool cube containing it: the cache answers
  /// from one cached superset, and reconstructions of different supersets
  /// agree only up to solver tolerance.
  std::vector<AttrSet> rollup_scopes;
  std::vector<std::vector<MarginalTable>> rollups;
  std::vector<MarginalTable> slices;  // [2 * attr_pos + value]
};

/// Zipf exponent of the hot draws. No query log of a marginal-serving
/// system is public; Breslau et al., "Web Caching and Zipf-like
/// Distributions: Evidence and Implications" (INFOCOM 1999), fit
/// exponents of 0.64-0.83 to six web proxy traces, and 0.8 lies in that
/// range (README "Inputs").
inline constexpr double kZipfExponent = 0.8;
/// Pool size: the engine's default cache capacity, so the whole pool is
/// cached after warm-up and only hits are timed.
inline const int kHotPool = int(priview::QueryEngineOptions{}.cache_capacity);

struct HotSetup : ServeSetup {
  using ServeSetup::ServeSetup;
  std::vector<Cube> cubes;
  std::vector<double> zipf_cdf;
  std::vector<std::string> warm_failures;
};

/// Serving set-up plus the warmed hot pool.
std::unique_ptr<HotSetup> StartHot(const Args& args, int repeat);

/// One hot request on a Zipf-drawn cube — an exact marginal, a roll-up
/// marginal, a conjunction or a slice, a quarter each — checked; the round
/// trip (without the check) goes to `ms`.
std::string HotRequest(const HotSetup& s, PriViewClient& client, Mix& rng,
                       double* ms);

/// Distinct uncovered 8-way scopes (the cold requests) in a seeded order,
/// handed out lazily: a seeded permutation of all C(32,8) = 10,518,300
/// 8-subsets, so the supply does not run out within a run and no seen-set
/// grows with the program's throughput. Thread-safe.
class ColdTargets {
 public:
  ColdTargets(std::vector<AttrSet> views, uint64_t seed);
  /// The next target and its position in the order; nullopt once every
  /// 8-subset has been handed out.
  std::optional<std::pair<uint64_t, AttrSet>> Next();
  /// The next `count` targets.
  std::vector<AttrSet> Take(size_t count);

 private:
  uint64_t Permute(uint64_t rank) const;

  std::vector<AttrSet> views_;
  uint64_t keys_[4];
  std::atomic<uint64_t> next_{0};
};

// ---- streaming set-up ----------------------------------------------------------

/// The window holds as many records as the static release (N), in 16
/// batches, so each epoch replaces 1/16 of it.
inline constexpr int kWindowBatches = 16;
inline constexpr size_t kBatchRecords = kN / kWindowBatches;
inline constexpr double kEpochEpsilon = 1.0;
inline constexpr int kHistoryDepth = 4;
inline constexpr int kReaders = 2;
inline constexpr int kEpochPeriodMs = 200;

struct StreamSetup : ServeSetup {
  using ServeSetup::ServeSetup;
  priview::Rng publish_rng{0};
  std::unique_ptr<priview::stream::StreamPublisher> publisher;
  std::vector<uint64_t> installed;  // every epoch ever installed
  uint64_t next_batch = 0;
  uint64_t seed = 0;
  bool small = false;
  double fill_s = 0.0;

  /// Batch `b` of Kosarak-like records (batch b is the same in every run
  /// with this seed).
  std::vector<uint64_t> Batch(uint64_t b) const;
  /// Ingests the next batch and publishes one epoch; the PublishEpoch call
  /// alone is timed into `publish_ms`.
  priview::StatusOr<priview::stream::EpochReport> Epoch(double* publish_ms,
                                                        double* ingest_us);
  /// The first batch of the current window.
  uint64_t WindowStart() const;
  /// The records of the window starting at batch `first`, made anew.
  std::vector<uint64_t> WindowRecords(uint64_t first) const;
  /// Fills the sliding window with kWindowBatches epochs, timed into
  /// `fill_s`. These are the PublishEpoch calls publish_ms times, so the
  /// fill is not part of setup_s.
  priview::Status Fill();
};

/// Serving set-up plus a sliding-window publisher over the release's
/// views (window still empty).
std::unique_ptr<StreamSetup> StartStream(const Args& args, int repeat);

// ---- load ----------------------------------------------------------------------------

/// Latencies of one measured run, also cut into one-second slices: the
/// p50 is reported as a median over slices, so a burst of host
/// interference in one slice does not decide the run.
struct LoadSamples {
  std::vector<double> ms;                   // tracer disarmed (all, untraced)
  std::vector<double> armed_ms;             // issued with the tracer armed
  std::vector<std::vector<double>> slices;  // latencies per slice
  std::vector<double> slice_rates;          // completions per second, per slice
  std::vector<double> slice_steal;          // host steal share, per slice
};

/// Closed-loop client threads over the Unix socket. Each thread owns one
/// connection and issues its next request only after the previous answer
/// arrived and was checked. Samples go to fixed, pre-touched buffers (a
/// reservoir once full), so the benchmark's own memory does not grow with
/// the program's throughput.
class ClientPool {
 public:
  /// Issues one request; returns "" or a check failure and stores the
  /// request's round-trip time (excluding the check) in `ms`. Returns
  /// nullopt, without sending, when it has nothing left to ask; the thread
  /// then stops and records no sample.
  using Request = std::function<std::optional<std::string>(
      int thread, PriViewClient& client, Mix& rng, double* ms)>;

  ClientPool(const std::string& socket, int threads, uint64_t seed,
             Request request);
  ~ClientPool();

  void Start();
  void Stop();
  /// Counts every request in `result` (attempted/failed) and returns the
  /// kept samples.
  LoadSamples Collect(Result* result) const;

  struct Sample {
    uint64_t start_ns;  // since Start()
    float ms;
    bool traced;
  };
  /// Kept samples of thread `i`.
  std::vector<Sample> samples(int i) const;
  uint64_t start_ns() const { return start_ns_; }
  int threads() const { return int(lanes_.size()); }

 private:
  static constexpr size_t kCapacity = size_t{1} << 18;  // per thread
  static constexpr int kMaxSlices = 64;
  struct Lane {
    int index = 0;
    std::unique_ptr<PriViewClient> client;
    Mix rng{0};
    std::vector<Sample> kept;
    uint64_t seen = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<uint64_t> per_slice;
  };
  void Loop(Lane* lane);

  Request request_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::thread monitor_;  // reads host steal at every slice boundary
  std::vector<std::pair<double, double>> steal_marks_;
  std::atomic<bool> stop_{false};
  uint64_t start_ns_ = 0;
  uint64_t elapsed_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURES_H_
