#include "fixtures.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "data/synthetic.h"
#include "obs/tracer.h"

namespace perfbench {

std::string Describe(const priview::Status& status) {
  return status.ok() ? "" : status.ToString();
}

void SetTracer(bool armed) {
  if (armed) {
    priview::obs::Tracer::Global().Arm();
  } else {
    priview::obs::Tracer::Global().Disarm();
  }
}

double MedianL2(const std::vector<MarginalTable>& answers,
                const std::vector<MarginalTable>& truth, double n) {
  std::vector<double> errors;
  for (size_t i = 0; i < answers.size(); ++i) {
    errors.push_back(NormalizedL2(answers[i], truth[i], n));
  }
  return Median(errors);
}

std::string CheckServedTable(const MarginalTable& answer, const Hosted& hosted) {
  std::string failure = CheckSumsToTotal(answer, hosted.total);
  if (!failure.empty()) return failure;
  const double n = std::fabs(hosted.total);
  for (const MarginalTable& view : hosted.views) {
    if (answer.attrs().IsSubsetOf(view.attrs())) {
      return CheckMatches(answer, OwnProject(view, answer.attrs()), 1e-9 * n,
                          "roll-up of view");
    }
  }
  return CheckProjections(answer, hosted.views, kProjectionBoundShare * n);
}

// ---- serving set-up -----------------------------------------------------------

std::unique_ptr<ServeSetup> StartServing(const Args& args, int repeat,
                                         const std::string& tag,
                                         size_t history_depth,
                                         int retention_depth) {
  auto s = std::make_unique<ServeSetup>(MakeData(args.seed, args.small));
  priview::StatusOr<std::unique_ptr<Hosted>> hosted =
      priview::Status::Internal("not run");
  const auto steal_before = StealJiffies();
  s->publish_ms = TimeMs([&] {
    auto release = Release(s->data, SubSeed(args.seed, 10 + repeat));
    hosted = release.ok() ? Host(release.value().synopsis, tag, history_depth,
                                 retention_depth)
                          : release.status();
  });
  s->publish_steal = StealShare(steal_before, StealJiffies());
  if (!hosted.ok()) return nullptr;
  s->hosted = std::move(hosted).value();
  return s;
}

namespace {

/// The hot pool, in Zipf rank order. Rank r is a random k-way scope with
/// k = 4, 6, 8 for r % 3 = 0, 1, 2: the paper evaluates random k-way
/// marginals for k in {4, 6, 8} (§5), and fixing k by rank gives every
/// seed the same mix of answer sizes; only the attributes change. No cube
/// contains another: the broker would answer the smaller from a concurrent
/// request for the larger, and those answers differ by more than rounding
/// (README "Inputs").
std::vector<AttrSet> HotScopes(Mix* rng) {
  std::vector<AttrSet> scopes;
  auto nested = [&](AttrSet scope) {
    for (AttrSet other : scopes) {
      if (scope.IsSubsetOf(other) || other.IsSubsetOf(scope)) return true;
    }
    return false;
  };
  for (int rank = 0; rank < kHotPool; ++rank) {
    AttrSet scope;
    do {
      scope = RandomScope(rng, kD, 4 + 2 * (rank % 3));
    } while (nested(scope));
    scopes.push_back(scope);
  }
  return scopes;
}

size_t ZipfRank(const std::vector<double>& cdf, Mix& rng) {
  const size_t rank =
      std::lower_bound(cdf.begin(), cdf.end(), rng.Uniform()) - cdf.begin();
  return std::min(rank, cdf.size() - 1);
}

}  // namespace

std::unique_ptr<HotSetup> StartHot(const Args& args, int repeat) {
  std::unique_ptr<ServeSetup> base = StartServing(args, repeat, "hot", 1, 1);
  if (base == nullptr) return nullptr;
  auto s = std::make_unique<HotSetup>(std::move(base->data));
  s->hosted = std::move(base->hosted);
  s->publish_ms = base->publish_ms;
  s->publish_steal = base->publish_steal;
  Mix rng(SubSeed(args.seed, 20));
  auto client = PriViewClient::Connect(s->hosted->socket);
  if (!client.ok()) return nullptr;
  double weight_sum = 0.0;
  for (AttrSet scope : HotScopes(&rng)) {
    // Warm-up: the first request of each cube fills the cache.
    auto answer = client.value().Marginal(kSynopsisName, scope);
    Cube cube{scope, MarginalTable(scope, 0.0), {}, {}, {}};
    std::string failure = Describe(answer.status());
    if (failure.empty()) {
      cube.reference = answer.value().table;
      failure = CheckServedTable(cube.reference, *s->hosted);
    }
    s->warm_failures.push_back(failure);
    for (int i = 0; i < 4; ++i) {
      cube.rollup_scopes.push_back(
          RandomSubset(&rng, scope, 2 + i % (scope.size() - 2)));
    }
    for (int attr : scope.ToIndices()) {
      for (int value : {0, 1}) {
        cube.slices.push_back(OwnSlice(cube.reference, attr, value));
      }
    }
    s->cubes.push_back(std::move(cube));
    weight_sum += std::pow(double(s->cubes.size()), -kZipfExponent);
    s->zipf_cdf.push_back(weight_sum);
  }
  for (double& c : s->zipf_cdf) c /= weight_sum;
  for (Cube& cube : s->cubes) {
    for (AttrSet sub : cube.rollup_scopes) {
      std::vector<MarginalTable> accepted;
      for (const Cube& other : s->cubes) {
        if (sub.IsSubsetOf(other.scope)) {
          accepted.push_back(OwnProject(other.reference, sub));
        }
      }
      cube.rollups.push_back(std::move(accepted));
    }
  }
  return s;
}

std::string HotRequest(const HotSetup& s, PriViewClient& client, Mix& rng,
                       double* ms) {
  const Cube& cube = s.cubes[ZipfRank(s.zipf_cdf, rng)];
  const double total = s.hosted->total;
  const double tol = 1e-9 * std::fabs(total);
  const uint64_t kind = rng.Below(4);
  const uint64_t t0 = NowNs();
  if (kind == 0) {
    auto answer = client.Marginal(kSynopsisName, cube.scope);
    *ms = double(NowNs() - t0) * 1e-6;
    if (!answer.ok()) return answer.status().ToString();
    std::string failure = CheckSumsToTotal(answer.value().table, total);
    return failure.empty() ? CheckMatches(answer.value().table, cube.reference,
                                          tol, "marginal")
                           : failure;
  }
  if (kind == 1) {
    const size_t i = rng.Below(cube.rollup_scopes.size());
    auto answer = client.Marginal(kSynopsisName, cube.rollup_scopes[i]);
    *ms = double(NowNs() - t0) * 1e-6;
    if (!answer.ok()) return answer.status().ToString();
    std::string failure = CheckSumsToTotal(answer.value().table, total);
    if (!failure.empty()) return failure;
    for (const MarginalTable& want : cube.rollups[i]) {
      failure = CheckMatches(answer.value().table, want, tol, "roll-up");
      if (failure.empty()) break;
    }
    return failure;
  }
  if (kind == 2) {
    const uint64_t cell = rng.Below(cube.reference.size());
    auto answer = client.Conjunction(kSynopsisName, cube.scope, cell);
    *ms = double(NowNs() - t0) * 1e-6;
    if (!answer.ok()) return answer.status().ToString();
    return CheckValue(answer.value().value, cube.reference.At(cell), tol,
                      "conjunction");
  }
  const std::vector<int> attrs = cube.scope.ToIndices();
  const size_t pos = rng.Below(attrs.size());
  const int value = int(rng.Below(2));
  auto answer = client.Slice(kSynopsisName, cube.scope, attrs[pos], value);
  *ms = double(NowNs() - t0) * 1e-6;
  if (!answer.ok()) return answer.status().ToString();
  return CheckMatches(answer.value().table, cube.slices[2 * pos + value], tol,
                      "slice");
}

namespace {

constexpr int kColdK = 8;
constexpr int kRankBits = 24;  // 2^24 > C(32, 8)

/// C(n, k) for n <= kD, k <= kColdK (Pascal's triangle).
constexpr auto kChoose = [] {
  std::array<std::array<uint64_t, kColdK + 1>, kD + 1> c{};
  c[0][0] = 1;
  for (int n = 1; n <= kD; ++n) {
    c[n][0] = 1;
    for (int k = 1; k <= kColdK; ++k) c[n][k] = c[n - 1][k - 1] + c[n - 1][k];
  }
  return c;
}();
constexpr uint64_t kColdCount = kChoose[kD][kColdK];

}  // namespace

ColdTargets::ColdTargets(std::vector<AttrSet> views, uint64_t seed)
    : views_(std::move(views)) {
  Mix rng(seed);
  for (uint64_t& key : keys_) key = rng.Next();
}

/// A bijection of [0, C(32,8)): a 4-round Feistel network on 24 bits,
/// walked until it lands inside the range.
uint64_t ColdTargets::Permute(uint64_t rank) const {
  constexpr int kHalf = kRankBits / 2;
  constexpr uint64_t kHalfMask = (uint64_t{1} << kHalf) - 1;
  do {
    uint64_t left = rank >> kHalf;
    uint64_t right = rank & kHalfMask;
    for (uint64_t key : keys_) {
      const uint64_t mixed = Mix(right ^ key).Next() & kHalfMask;
      left = std::exchange(right, left ^ mixed);
    }
    rank = (left << kHalf) | right;
  } while (rank >= kColdCount);
  return rank;
}

std::optional<std::pair<uint64_t, AttrSet>> ColdTargets::Next() {
  for (;;) {
    const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= kColdCount) return std::nullopt;
    // Unrank in the combinatorial number system.
    uint64_t rank = Permute(i);
    uint64_t mask = 0;
    int top = kD;
    for (int k = kColdK; k > 0; --k) {
      do --top; while (kChoose[top][k] > rank);
      rank -= kChoose[top][k];
      mask |= uint64_t{1} << top;
    }
    const AttrSet scope(mask);
    if (!Covered(views_, scope)) return std::make_pair(i, scope);
  }
}

std::vector<AttrSet> ColdTargets::Take(size_t count) {
  std::vector<AttrSet> targets;
  while (targets.size() < count) {
    auto next = Next();
    if (!next) break;
    targets.push_back(next->second);
  }
  return targets;
}

// ---- streaming set-up ----------------------------------------------------------

std::vector<uint64_t> StreamSetup::Batch(uint64_t b) const {
  priview::Rng rng(SubSeed(seed, 100000 + b));
  return priview::MakeKosarakLike(&rng,
                                  small ? kBatchRecords / 16 : kBatchRecords)
      .records();
}

priview::StatusOr<priview::stream::EpochReport> StreamSetup::Epoch(
    double* publish_ms, double* ingest_us) {
  const std::vector<uint64_t> batch = Batch(next_batch++);
  const double t0 = NowS();
  priview::Status ingested = publisher->Ingest(batch);
  if (ingest_us != nullptr) *ingest_us = (NowS() - t0) * 1e6;
  if (!ingested.ok()) return ingested;
  priview::StatusOr<priview::stream::EpochReport> report =
      priview::Status::Internal("not run");
  *publish_ms = TimeMs([&] { report = publisher->PublishEpoch(); });
  if (report.ok()) installed.push_back(report.value().epoch);
  return report;
}

uint64_t StreamSetup::WindowStart() const {
  return next_batch - std::min<uint64_t>(next_batch, kWindowBatches);
}

std::vector<uint64_t> StreamSetup::WindowRecords(uint64_t first) const {
  std::vector<uint64_t> all;
  for (uint64_t b = first; b < first + kWindowBatches && b < next_batch; ++b) {
    const std::vector<uint64_t> batch = Batch(b);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

std::unique_ptr<StreamSetup> StartStream(const Args& args, int repeat) {
  std::unique_ptr<ServeSetup> base =
      StartServing(args, repeat, "stream", kHistoryDepth, kHistoryDepth);
  if (base == nullptr) return nullptr;
  auto s = std::make_unique<StreamSetup>(std::move(base->data));
  s->hosted = std::move(base->hosted);
  s->publish_ms = base->publish_ms;
  s->publish_steal = base->publish_steal;
  s->seed = args.seed;
  s->small = args.small;
  s->publish_rng = priview::Rng(SubSeed(args.seed, 40));
  s->installed.push_back(s->hosted->store->last_durable_seq());

  priview::stream::StreamOptions options;
  options.name = kSynopsisName;
  options.d = kD;
  options.mode = priview::WindowMode::kSliding;
  options.window_batches = kWindowBatches;
  options.views = s->hosted->scopes;
  options.epoch_epsilon = kEpochEpsilon;
  options.total_epsilon = kEpochEpsilon * 1e6;  // never refuses an epoch
  auto publisher = priview::stream::StreamPublisher::Create(
      options, s->hosted->store.get(), &s->hosted->server->registry(),
      &s->publish_rng);
  if (!publisher.ok()) return nullptr;
  s->publisher = std::make_unique<priview::stream::StreamPublisher>(
      std::move(publisher).value());
  return s;
}

priview::Status StreamSetup::Fill() {
  const double t0 = NowS();
  for (int e = 0; e < kWindowBatches; ++e) {
    double ms = 0.0;
    priview::Status status = Epoch(&ms, nullptr).status();
    if (!status.ok()) return status;
  }
  fill_s = NowS() - t0;
  return priview::Status::OK();
}

// ---- load ----------------------------------------------------------------------------

ClientPool::ClientPool(const std::string& socket, int threads, uint64_t seed,
                       Request request)
    : request_(std::move(request)) {
  for (int i = 0; i < threads; ++i) {
    auto lane = std::make_unique<Lane>();
    auto client = PriViewClient::Connect(socket);
    if (client.ok()) {
      lane->client = std::make_unique<PriViewClient>(std::move(client).value());
    }
    lane->index = i;
    lane->rng = Mix(SubSeed(seed, 7000 + i));
    lane->kept.resize(kCapacity);  // touched now, not while measuring
    lane->per_slice.assign(kMaxSlices, 0);
    lanes_.push_back(std::move(lane));
  }
}

ClientPool::~ClientPool() {
  if (monitor_.joinable()) Stop();
}

void ClientPool::Start() {
  start_ns_ = NowNs();
  steal_marks_.assign(1, StealJiffies());
  for (auto& lane : lanes_) {
    threads_.emplace_back([this, l = lane.get()] { Loop(l); });
  }
  monitor_ = std::thread([this] {
    while (!stop_.load() && steal_marks_.size() < kMaxSlices) {
      const uint64_t next = start_ns_ + steal_marks_.size() * 1000000000ULL;
      while (!stop_.load() && NowNs() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!stop_.load()) steal_marks_.push_back(StealJiffies());
    }
  });
}

void ClientPool::Stop() {
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  monitor_.join();
  elapsed_ns_ = NowNs() - start_ns_;
}

void ClientPool::Loop(Lane* lane) {
  if (lane->client == nullptr) return;
  Mix reservoir(lane->rng.Next());
  while (!stop_.load(std::memory_order_relaxed)) {
    const bool traced = priview::obs::Tracer::Global().armed();
    const uint64_t start = NowNs() - start_ns_;
    double ms = 0.0;
    std::optional<std::string> failure =
        request_(lane->index, *lane->client, lane->rng, &ms);
    if (!failure) break;  // nothing left to ask
    if (!failure->empty()) {
      ++lane->failed;
      if (lane->failures.size() < 8) {
        lane->failures.push_back(*std::move(failure));
      }
    }
    const size_t slot = lane->seen < kCapacity
                            ? size_t(lane->seen)
                            : size_t(reservoir.Below(lane->seen + 1));
    if (slot < kCapacity) lane->kept[slot] = {start, float(ms), traced};
    ++lane->seen;
    ++lane->per_slice[std::min<uint64_t>(start / 1000000000, kMaxSlices - 1)];
  }
}

std::vector<ClientPool::Sample> ClientPool::samples(int i) const {
  const Lane& lane = *lanes_[i];
  return {lane.kept.begin(),
          lane.kept.begin() + std::min<uint64_t>(lane.seen, kCapacity)};
}

LoadSamples ClientPool::Collect(Result* result) const {
  LoadSamples load;
  // Whole one-second slices only; the run's ragged end is left out.
  const size_t slices = std::min<uint64_t>(elapsed_ns_ / 1000000000, kMaxSlices - 1);
  load.slices.resize(slices);
  load.slice_rates.assign(slices, 0.0);
  for (size_t s = 0; s < slices; ++s) {
    load.slice_steal.push_back(s + 1 < steal_marks_.size()
                                   ? StealShare(steal_marks_[s], steal_marks_[s + 1])
                                   : 0.0);
  }
  for (int i = 0; i < threads(); ++i) {
    const Lane& lane = *lanes_[i];
    if (lane.client == nullptr) result->Count("client could not connect");
    result->attempted += lane.seen;
    result->failed += lane.failed;
    for (const std::string& failure : lane.failures) {
      if (result->failures.size() < 8) result->failures.push_back(failure);
    }
    for (size_t s = 0; s < slices; ++s) {
      load.slice_rates[s] += double(lane.per_slice[s]);
    }
    for (const Sample& sample : samples(i)) {
      (sample.traced ? load.armed_ms : load.ms).push_back(sample.ms);
      const size_t s = sample.start_ns / 1000000000;
      if (s < slices && !sample.traced) load.slices[s].push_back(sample.ms);
    }
  }
  return load;
}

}  // namespace perfbench
