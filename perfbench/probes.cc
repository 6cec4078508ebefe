// Traced mode: per-layer metrics. Every layer is measured from outside,
// by timing calls into its public functions on the run's own inputs and
// seeds, and by reading counters the program already exposes
// (ServerMetrics, MarginalCache::Stats, SolverDiagnostics, EpochReport,
// parallel::*Count()). The spans the program records while the tracer was
// armed during the workload loop are printed as notes.
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "core/consistency.h"
#include "core/nonneg.h"
#include "core/reconstruct.h"
#include "core/serialization.h"
#include "data/synthetic.h"
#include "design/view_selection.h"
#include "dp/mechanisms.h"
#include "fixtures.h"
#include "obs/metrics_registry.h"
#include "serve/wire_protocol.h"

namespace perfbench {

namespace {

using priview::obs::Histogram;
namespace serve = priview::serve;

/// Percentile (bucket upper bound, µs) of the observations added between
/// two snapshots of a power-of-two histogram.
double DeltaPercentile(const Histogram::Snapshot& before,
                       const Histogram::Snapshot& after, double p) {
  uint64_t total = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    total += after.counts[b] - before.counts[b];
  }
  if (total == 0) return 0.0;
  const double rank = p * double(total);
  uint64_t seen = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    seen += after.counts[b] - before.counts[b];
    if (double(seen) >= rank) return double(Histogram::BucketUpperBound(b));
  }
  return double(Histogram::BucketUpperBound(Histogram::kBuckets - 1));
}

/// Median per-call time (ns) of `fn`, timed in batches of `batch` calls.
template <typename Fn>
double MedianCallNs(int batches, int batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const uint64_t t0 = NowNs();
    for (int i = 0; i < batch; ++i) fn(b * batch + i);
    per_call.push_back(double(NowNs() - t0) / batch);
  }
  return Median(per_call);
}

size_t FrameBytes(const serve::WireResponse& response) {
  return 4 + serve::EncodeResponse(response).size();
}

// ---- publish layers ------------------------------------------------------------

/// The §4.5 release taken apart: each layer's public call timed alone, on
/// the same data and seeds as the release workload's first releases.
void ProbePublish(const Args& args, const Dataset& data, Result* result) {
  std::vector<double> select_ms, count_ms, count_1t_ms, build_ms, noise_ms,
      consistency_ms, nonneg_ms, serialize_ms, bytes, install_ms, recover_ms,
      built, used, steals, overflows, spent;
  ScratchDir dir("probe");
  priview::store::StoreOptions store_options;
  store_options.dir = dir.path() + "/store";
  priview::store::SynopsisStore store(store_options);
  result->Count(Describe(store.Open()));
  const double n = double(data.size());
  const int threads = priview::parallel::ThreadCount();
  for (int round = 0; round < 3; ++round) {
    priview::Rng rng(SubSeed(args.seed, 1000 + round));
    priview::BudgetAccountant budget(kEpsilon);
    std::string failure = Describe(budget.Spend(0.001));
    const double noisy_n =
        std::max(1.0, priview::NoisyCount(n, 1.0, 0.001, &rng));
    const double views_epsilon = budget.remaining();
    priview::ViewSelection selection;
    select_ms.push_back(TimeMs([&] {
      selection = priview::SelectViews(data.d(), noisy_n, views_epsilon, &rng);
    }));
    double candidate_blocks = 0.0;
    for (const auto& candidate : selection.candidates) {
      candidate_blocks += candidate.design.w();
    }
    built.push_back(candidate_blocks);
    used.push_back(selection.design.w());
    if (failure.empty()) failure = Describe(budget.Spend(views_epsilon));
    spent.push_back(budget.spent());
    if (failure.empty()) {
      failure = CheckValue(budget.spent(), kEpsilon, 1e-9, "epsilon spent");
    }

    const std::vector<AttrSet>& views = selection.design.blocks;
    const uint64_t steals0 = priview::parallel::StealCount();
    const uint64_t overflows0 = priview::parallel::OverflowCount();
    std::vector<MarginalTable> counts;
    count_ms.push_back(TimeMs([&] { counts = data.CountMarginals(views); }));
    steals.push_back(double(priview::parallel::StealCount() - steals0));
    overflows.push_back(double(priview::parallel::OverflowCount() - overflows0));
    priview::parallel::SetThreadCount(1);
    count_1t_ms.push_back(TimeMs([&] { (void)data.CountMarginals(views); }));
    priview::parallel::SetThreadCount(threads);

    priview::PriViewOptions options;
    options.epsilon = views_epsilon;
    priview::StatusOr<PriViewSynopsis> synopsis =
        priview::Status::Internal("not run");
    build_ms.push_back(TimeMs([&] {
      synopsis = PriViewSynopsis::TryBuildFromCounts(data.d(), counts, options,
                                                     &rng);
    }));
    if (failure.empty()) failure = Describe(synopsis.status());

    // The post-processing stages one by one, on copies.
    std::vector<MarginalTable> noisy = counts;
    priview::Rng noise_rng(SubSeed(args.seed, 2000 + round));
    const double w = double(noisy.size());
    noise_ms.push_back(TimeMs([&] {
      for (MarginalTable& view : noisy) {
        priview::AddLaplaceNoise(&view, w, views_epsilon, &noise_rng);
      }
    }));
    consistency_ms.push_back(TimeMs([&] { priview::MakeConsistent(&noisy); }));
    nonneg_ms.push_back(TimeMs([&] {
      for (MarginalTable& view : noisy) {
        priview::ApplyNonNegativity(&view, priview::NonNegMethod::kRipple);
      }
    }));

    if (synopsis.ok()) {
      std::ostringstream out;
      serialize_ms.push_back(TimeMs(
          [&] { failure += Describe(priview::WriteSynopsis(synopsis.value(), &out)); }));
      bytes.push_back(double(out.str().size()));
      install_ms.push_back(TimeMs([&] {
        failure += Describe(store.Install(kSynopsisName, synopsis.value()));
      }));
      recover_ms.push_back(TimeMs([&] {
        priview::store::SynopsisStore reopened(store_options);
        serve::SynopsisRegistry registry;
        priview::Status status = reopened.Open();
        if (status.ok()) status = reopened.Recover(&registry).status();
        failure += Describe(status);
      }));
    }
    result->Count(failure);
  }
  result->Add("design.select_views_ms", Median(select_ms), "ms");
  result->Add("design.blocks_built", Median(built), "count");
  result->Add("design.blocks_used", Median(used), "count");
  result->Add("table.count_ms", Median(count_ms), "ms");
  result->Add("table.count_1t_ms", Median(count_1t_ms), "ms");
  result->Add("common.parallel.steals", Median(steals), "count");
  result->Add("common.parallel.overflows", Median(overflows), "count");
  result->Add("dp.noise_ms", Median(noise_ms), "ms");
  result->Add("dp.epsilon_spent", Median(spent), "epsilon");
  result->Add("core.build_from_counts_ms", Median(build_ms), "ms");
  result->Add("core.consistency_ms", Median(consistency_ms), "ms");
  result->Add("core.nonneg_ms", Median(nonneg_ms), "ms");
  result->Add("core.serialize_ms", Median(serialize_ms), "ms");
  result->Add("core.synopsis_bytes", Median(bytes), "bytes");
  result->Add("store.install_ms", Median(install_ms), "ms");
  result->Add("store.recover_ms", Median(recover_ms), "ms");
}

// ---- hot serving path ------------------------------------------------------------

/// Round trip of a raw socketpair with the hot path's frame sizes: the
/// floor any transport over a local stream socket pays.
double SocketFloorUs(size_t request_bytes, size_t response_bytes) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0.0;
  auto exchange = [](int fd, std::vector<char>* buf, size_t in, size_t out) {
    size_t got = 0;
    while (got < in) {
      const ssize_t r = ::read(fd, buf->data() + got, in - got);
      if (r <= 0) return false;
      got += size_t(r);
    }
    size_t sent = 0;
    while (sent < out) {
      const ssize_t r = ::write(fd, buf->data() + sent, out - sent);
      if (r <= 0) return false;
      sent += size_t(r);
    }
    return true;
  };
  constexpr int kRounds = 4000;
  std::thread echo([&] {
    std::vector<char> buf(std::max(request_bytes, response_bytes));
    for (int i = 0; i < kRounds; ++i) {
      if (!exchange(fds[1], &buf, request_bytes, response_bytes)) break;
    }
  });
  std::vector<char> buf(std::max(request_bytes, response_bytes));
  std::vector<double> us;
  for (int i = 0; i < kRounds; ++i) {
    const uint64_t t0 = NowNs();
    size_t sent = 0;
    while (sent < request_bytes) {
      const ssize_t r = ::write(fds[0], buf.data() + sent, request_bytes - sent);
      if (r <= 0) break;
      sent += size_t(r);
    }
    size_t got = 0;
    while (got < response_bytes) {
      const ssize_t r = ::read(fds[0], buf.data() + got, response_bytes - got);
      if (r <= 0) break;
      got += size_t(r);
    }
    us.push_back(double(NowNs() - t0) * 1e-3);
  }
  ::close(fds[0]);
  echo.join();
  ::close(fds[1]);
  return Median(us);
}

void ProbeHot(const Args& args, HotSetup& hot, Result* result) {
  serve::PriViewServer& server = *hot.hosted->server;
  auto hosted = server.registry().Acquire(kSynopsisName);
  if (!hosted.ok()) {
    result->Count("acquire: " + hosted.status().ToString());
    return;
  }
  const priview::QueryEngine& engine = hosted.value()->engine();
  const size_t pool = hot.cubes.size();

  result->Add("core.cache_hit_ns", MedianCallNs(200, 100, [&](int i) {
                (void)engine.TryMarginal(hot.cubes[i % pool].scope);
              }),
              "ns");
  result->Add("serve.broker_ask_us",
              MedianCallNs(100, 20,
                           [&](int i) {
                             (void)server.broker().Ask(
                                 kSynopsisName, hot.cubes[i % pool].scope);
                           }) *
                  1e-3,
              "us");
  auto client = PriViewClient::Connect(hot.hosted->socket);
  if (client.ok()) {
    result->Add("serve.health_rtt_us",
                MedianCallNs(100, 20,
                             [&](int) { (void)client.value().Health(); }) *
                    1e-3,
                "us");
  } else {
    result->Count("connect: " + client.status().ToString());
    result->Add("serve.health_rtt_us", 0.0, "us");
  }

  // Mean response frame of the hot mix, weighted by the Zipf draw.
  double response_bytes = 0.0;
  for (size_t i = 0; i < pool; ++i) {
    const Cube& cube = hot.cubes[i];
    const double p = hot.zipf_cdf[i] - (i == 0 ? 0.0 : hot.zipf_cdf[i - 1]);
    double rollup = 0.0;
    for (const auto& accepted : cube.rollups) {
      rollup += double(FrameBytes(serve::MakeTableResponse(accepted[0], 0, false, 1)));
    }
    double slice = 0.0;
    for (const MarginalTable& table : cube.slices) {
      slice += double(FrameBytes(serve::MakeTableResponse(table, 0, false, 1)));
    }
    serve::WireResponse value;
    value.type = serve::MessageType::kValue;
    // A quarter each: marginal, roll-up, conjunction, slice.
    response_bytes +=
        p * 0.25 *
        (double(FrameBytes(
             serve::MakeTableResponse(cube.reference, 0, false, 1))) +
         rollup / double(cube.rollups.size()) + double(FrameBytes(value)) +
         slice / double(cube.slices.size()));
  }
  result->Add("serve.response_bytes", response_bytes, "bytes");
  serve::WireRequest request;
  request.type = serve::MessageType::kMarginal;
  request.synopsis = kSynopsisName;
  request.target_mask = hot.cubes[0].scope.mask();
  result->Add("serve.socket_floor_us",
              SocketFloorUs(4 + serve::EncodeRequest(request).size(),
                            size_t(std::lround(response_bytes))),
              "us");

  // A one-second burst of the hot workload, read through the server's
  // and the cache's own counters.
  const serve::ServerMetrics::Snapshot before = server.metrics().TakeSnapshot();
  const Histogram::Snapshot wait_before = server.metrics().QueueWaitSnapshot();
  const priview::MarginalCache::Stats cache_before = engine.cache_stats();
  ClientPool burst(hot.hosted->socket, kClientThreads, SubSeed(args.seed, 50),
                   [&](int, PriViewClient& c, Mix& rng, double* ms) {
                     return HotRequest(hot, c, rng, ms);
                   });
  burst.Start();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  burst.Stop();
  (void)burst.Collect(result);
  const serve::ServerMetrics::Snapshot after = server.metrics().TakeSnapshot();
  const Histogram::Snapshot wait_after = server.metrics().QueueWaitSnapshot();
  const priview::MarginalCache::Stats cache_after = engine.cache_stats();
  result->Add("serve.queue_wait_us_p50",
              DeltaPercentile(wait_before, wait_after, 0.5), "us");
  result->Add("serve.queue_wait_us_p99",
              DeltaPercentile(wait_before, wait_after, 0.99), "us");
  const double admitted = double(after.admitted - before.admitted);
  result->Add("serve.coalesced_ratio",
              admitted > 0 ? double(after.coalesced - before.coalesced) / admitted
                           : 0.0,
              "ratio");
  const double lookups = double(cache_after.lookups() - cache_before.lookups());
  const double hits =
      double(cache_after.exact_hits + cache_after.rollup_hits -
             cache_before.exact_hits - cache_before.rollup_hits);
  result->Add("core.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
              "ratio");
}

// ---- cold serving path ----------------------------------------------------------

void ProbeCold(const Args& args, HotSetup& hot, Result* result) {
  serve::PriViewServer& server = *hot.hosted->server;
  auto hosted = server.registry().Acquire(kSynopsisName);
  if (!hosted.ok()) {
    result->Count("acquire: " + hosted.status().ToString());
    return;
  }
  const priview::QueryEngine& engine = hosted.value()->engine();
  const std::vector<MarginalTable>& views = hot.hosted->views;
  // The cold workload's targets (same views, same seed), in order.
  ColdTargets cold(hot.hosted->scopes, SubSeed(args.seed, 30));
  constexpr int kSolves = 200;
  const std::vector<AttrSet> targets = cold.Take(2 * kSolves);

  std::vector<double> constraints_ms, solve_ms, iterations;
  double converged = 0.0;
  double fallback = 0.0;
  for (int i = 0; i < kSolves; ++i) {
    constraints_ms.push_back(
        TimeMs([&] { (void)priview::ConstraintsFor(views, targets[i]); }));
    priview::StatusOr<priview::ReconstructionResult> solved =
        priview::Status::Internal("not run");
    solve_ms.push_back(
        TimeMs([&] { solved = engine.TryQueryWithDiagnostics(targets[i]); }));
    if (!solved.ok()) {
      result->Count("solve: " + solved.status().ToString());
      continue;
    }
    const priview::SolverDiagnostics& diag = solved.value().diagnostics;
    iterations.push_back(diag.iterations);
    converged += diag.converged ? 1.0 : 0.0;
    fallback += diag.fallbacks > 0 || diag.used_uniform_fallback ? 1.0 : 0.0;
    result->Count(CheckServedTable(solved.value().table, *hot.hosted));
  }
  result->Add("core.constraints_ms", Median(constraints_ms), "ms");
  result->Add("opt.solve_ms_p50", Median(solve_ms), "ms");
  result->Add("opt.solve_ms_p99", Quantile(solve_ms, 0.99), "ms");
  result->Add("opt.iterations_mean", Mean(iterations), "count");
  result->Add("opt.converged_ratio", converged / kSolves, "ratio");
  result->Add("opt.fallback_ratio", fallback / kSolves, "ratio");

  std::vector<double> ask_ms;
  for (int i = kSolves; i < 2 * kSolves; ++i) {
    ask_ms.push_back(
        TimeMs([&] { (void)server.broker().Ask(kSynopsisName, targets[i]); }));
  }
  result->Add("serve.broker_ask_ms", Median(ask_ms), "ms");

  const Histogram::Snapshot wait_before = server.metrics().QueueWaitSnapshot();
  ClientPool burst(hot.hosted->socket, kClientThreads, SubSeed(args.seed, 51),
                   [&](int, PriViewClient& c, Mix&,
                       double* ms) -> std::optional<std::string> {
                     const auto target = cold.Next();
                     if (!target) return std::nullopt;
                     const uint64_t t0 = NowNs();
                     auto answer = c.Marginal(kSynopsisName, target->second);
                     *ms = double(NowNs() - t0) * 1e-6;
                     return answer.ok() ? std::string()
                                        : answer.status().ToString();
                   });
  burst.Start();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  burst.Stop();
  (void)burst.Collect(result);
  result->Add("serve.queue_wait_ms_p99",
              DeltaPercentile(wait_before, server.metrics().QueueWaitSnapshot(),
                              0.99) *
                  1e-3,
              "ms");
}

// ---- stream-rollover -------------------------------------------------------------

void ProbeStream(const Args& args, Result* result) {
  std::unique_ptr<StreamSetup> s = StartStream(args, kSetupRepeats - 1);
  if (s == nullptr || !s->Fill().ok()) {
    result->Count("stream set-up failed");
    return;
  }
  Mix rng(SubSeed(args.seed, 41));
  std::vector<AttrSet> scopes;
  for (int i = 0; i < 16; ++i) {
    scopes.push_back(RandomSubset(
        &rng, s->hosted->scopes[rng.Below(s->hosted->scopes.size())], 4));
  }
  ClientPool readers(s->hosted->socket, kReaders, SubSeed(args.seed, 52),
                     [&](int, PriViewClient& c, Mix& r, double* ms) {
                       const uint64_t t0 = NowNs();
                       auto answer = c.Marginal(kSynopsisName, scopes[r.Below(16)]);
                       *ms = double(NowNs() - t0) * 1e-6;
                       return answer.ok() ? std::string()
                                          : answer.status().ToString();
                     });
  std::vector<double> ingest_us, recount_us, recounted, persist_us, swap_us;
  std::vector<std::pair<uint64_t, uint64_t>> swaps;  // [begin, end] ns
  readers.Start();
  for (int e = 0; e < 12; ++e) {
    double ms = 0.0;
    double us = 0.0;
    auto report = s->Epoch(&ms, &us);
    const uint64_t end = NowNs();
    result->Count(Describe(report.status()));
    if (!report.ok()) continue;
    const priview::stream::EpochReport& r = report.value();
    ingest_us.push_back(us);
    recount_us.push_back(double(r.recount_us));
    recounted.push_back(double(r.views_recounted) /
                        double(r.views_recounted + r.views_shifted));
    persist_us.push_back(double(r.persist_us));
    swap_us.push_back(double(r.install_us));
    // The swap is PublishEpoch's last step; its window ends at the return.
    swaps.emplace_back(end - r.install_us * 1000 - 1000, end);
  }
  readers.Stop();
  (void)readers.Collect(result);
  double during_swap = 0.0;
  for (int i = 0; i < readers.threads(); ++i) {
    for (const ClientPool::Sample& sample : readers.samples(i)) {
      const uint64_t read_start = readers.start_ns() + sample.start_ns;
      const uint64_t read_end = read_start + uint64_t(sample.ms * 1e6);
      for (const auto& [begin, end] : swaps) {
        if (read_start <= end && read_end >= begin) {
          during_swap = std::max(during_swap, double(sample.ms) * 1e3);
        }
      }
    }
  }
  result->Add("stream.ingest_us", Median(ingest_us), "us");
  result->Add("stream.recount_us", Median(recount_us), "us");
  result->Add("stream.views_recounted_ratio", Median(recounted), "ratio");
  result->Add("store.persist_us", Median(persist_us), "us");
  result->Add("serve.swap_us", Median(swap_us), "us");
  result->Add("serve.read_during_swap_max_us", during_swap, "us");
}

/// Notes: the spans the program recorded while the tracer was armed.
void PrintSpans() {
  for (const char* span :
       {"publish", "publish/count", "publish/noise/view", "publish/ripple",
        "publish/consistency", "pipeline/select-views", "query/marginal",
        "query/solve", "broker/dispatch"}) {
    const Histogram::Snapshot snap =
        priview::obs::MetricsRegistry::Global()
            .GetHistogram("priview_span_duration_us", {{"span", span}})
            ->TakeSnapshot();
    if (snap.total == 0) continue;
    std::printf("# span %-22s n=%-8llu mean_us=%.1f\n", span,
                static_cast<unsigned long long>(snap.total),
                double(snap.sum) / double(snap.total));
  }
}

}  // namespace

void PrintReferenceFigures(uint64_t seed) {
  const Dataset kosarak = MakeData(seed, false);
  priview::Rng aol_rng(SubSeed(seed, 90));
  const Dataset aol = priview::MakeAolLike(&aol_rng);
  const int threads = priview::parallel::ThreadCount();
  // One full release (records to durable install) at 1 and at 4 threads.
  ScratchDir dir("reference");
  priview::store::StoreOptions store_options;
  store_options.dir = dir.path() + "/store";
  priview::store::SynopsisStore store(store_options);
  if (!store.Open().ok()) return;
  for (int t : {1, threads}) {
    priview::parallel::SetThreadCount(t);
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      ms.push_back(TimeMs([&] {
        auto release = Release(kosarak, SubSeed(seed, 1000 + i));
        if (release.ok()) (void)store.Install(kSynopsisName, release.value().synopsis);
      }));
    }
    std::printf("release d=32 threads=%d: median %.1f ms of 3\n", t, Median(ms));
  }
  priview::parallel::SetThreadCount(threads);
  // What the t=4 candidate design costs: SelectViews with and without it.
  for (const Dataset* data : {&kosarak, &aol}) {
    double t3_ms = 0.0;
    double t4_ms = 0.0;
    priview::ViewSelection chosen;
    for (int max_t : {3, 4}) {
      priview::Rng rng(SubSeed(seed, 91));
      priview::ViewSelectionOptions options;
      options.max_t = max_t;
      (max_t == 3 ? t3_ms : t4_ms) = TimeMs([&] {
        chosen = priview::SelectViews(data->d(), double(data->size()),
                                      kEpsilon, &rng, options);
      });
    }
    std::printf("select views d=%d: %.1f ms with t<=4, %.1f ms with t<=3, "
                "t=4 candidate costs %.1f ms; chosen t=%d w=%d\n",
                data->d(), t4_ms, t3_ms, t4_ms - t3_ms, chosen.design.t,
                chosen.design.w());
  }
  // Fused counting at 1 and at the pool's thread count.
  auto release = Release(kosarak, SubSeed(seed, 1000));
  if (!release.ok()) return;
  const std::vector<AttrSet>& views = release.value().selection.design.blocks;
  for (int t : {1, threads}) {
    priview::parallel::SetThreadCount(t);
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      ms.push_back(TimeMs([&] { (void)kosarak.CountMarginals(views); }));
    }
    std::printf("CountMarginals %zu views threads=%d: median %.1f ms of 5\n",
                views.size(), t, Median(ms));
  }
  priview::parallel::SetThreadCount(threads);
  // Convergence of cold 8-way solves.
  priview::QueryEngine engine(&release.value().synopsis);
  std::vector<AttrSet> scopes;
  for (AttrSet view : views) scopes.push_back(view);
  int converged = 0;
  const std::vector<AttrSet> targets =
      ColdTargets(scopes, SubSeed(seed, 30)).Take(200);
  for (AttrSet target : targets) {
    auto solved = engine.TryQueryWithDiagnostics(target);
    converged += solved.ok() && solved.value().diagnostics.converged;
  }
  std::printf("cold 8-way solves converged: %d of %zu\n", converged,
              targets.size());
  // Which share of views a sliding-window epoch can shift instead of
  // recount: a view is shifted only when none of the batch's entering or
  // leaving records holds any of its attributes.
  std::vector<double> untouched;  // per view: share of records outside it
  for (AttrSet view : views) {
    size_t outside = 0;
    for (uint64_t record : kosarak.records()) outside += (record & view.mask()) == 0;
    untouched.push_back(double(outside) / double(kosarak.size()));
  }
  std::printf("views an epoch can shift, by batch size (records):");
  for (size_t batch : {size_t{1}, size_t{4}, size_t{16}, size_t{64},
                       size_t{256}, kBatchRecords}) {
    std::vector<double> shifted;
    for (double p : untouched) shifted.push_back(std::pow(p, 2.0 * double(batch)));
    std::printf(" %zu: %.3g%%", batch, 100 * Mean(shifted));
  }
  std::printf("\n");
}

void RunLayerProbes(const Args& args, Result* result) {
  PrintSpans();
  // Publish layers first, before any server runs in this process, so the
  // parallel pool is in the state the release workload measures.
  ProbePublish(args, MakeData(args.seed, args.small), result);
  std::unique_ptr<HotSetup> hot = StartHot(args, kSetupRepeats - 1);
  if (hot == nullptr) {
    result->Count("serving set-up failed");
    return;
  }
  for (const std::string& failure : hot->warm_failures) result->Count(failure);
  ProbeHot(args, *hot, result);
  ProbeCold(args, *hot, result);
  hot.reset();
  ProbeStream(args, result);
}

}  // namespace perfbench
