// The four end-to-end workloads. Each one sets up kSetupRepeats times
// (the median is setup_s), measures for --seconds, checks every output,
// and reports the same five end-to-end metrics (README "Metrics"). In a
// traced run the loop is the same, with the program's tracer armed for
// every other operation (or 100 ms slice), and only the tracing overhead
// is reported from it.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "core/query_engine.h"
#include "fixtures.h"

namespace perfbench {

namespace {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

/// Indices of the samples taken while the host stole at most 5% of the
/// machine's CPU time; the three least-stolen when fewer qualify. Other
/// tenants of a shared host show up as steal, and on this class of host
/// they move whole seconds by 10-30%. An empty `steal` keeps every
/// sample. What the filter leaves out is printed with every run, so a
/// change that draws more steal (say, by keeping more vCPUs busy) shows
/// as a smaller kept share.
std::vector<size_t> Calm(const std::vector<double>& steal, size_t count) {
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  if (steal.size() != count) return order;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < count && steal[order[keep]] <= 0.05) ++keep;
  order.resize(std::max(keep, std::min<size_t>(3, count)));
  std::sort(order.begin(), order.end());
  return order;
}

template <typename T>
std::vector<T> Pick(const std::vector<T>& values,
                    const std::vector<size_t>& indices) {
  std::vector<T> picked;
  for (size_t i : indices) picked.push_back(values[i]);
  return picked;
}

/// The five end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> publish_ms;
  std::vector<double> publish_steal;  // per publish; empty: not tracked
  LoadSamples queries;
  double error_l2 = 0.0;
  std::vector<double> setup_s;
  /// Taken when the measured loop ends, before the benchmark folds its
  /// samples, so the benchmark's own bookkeeping does not count.
  double peak_rss_mb = 0.0;
  // Traced runs: the headline latency with the tracer armed / disarmed.
  std::vector<double> armed_ms;
  std::vector<double> disarmed_ms;

  void Report(const Args& args, Result* result) const {
    if (args.trace) {
      const double off = Median(disarmed_ms);
      result->Add("trace.overhead_pct",
                  off > 0.0 ? (Median(armed_ms) / off - 1.0) * 100.0 : 0.0,
                  "%");
      return;
    }
    // Latency is the median over one-second slices (over releases in the
    // release workload) with little host steal. The p90, the rate and the
    // pooled p99 are printed as notes: on a shared host they follow the
    // neighbours more than the program (README "Metrics").
    const std::vector<size_t> calm =
        Calm(queries.slice_steal, queries.slices.size());
    std::vector<double> p50, p90, rates;
    size_t kept_queries = 0;
    size_t all_queries = 0;
    for (const std::vector<double>& slice : queries.slices) {
      all_queries += slice.size();
    }
    std::printf("# calm slices (rate/s p50_ms p90_ms steal%%):");
    for (size_t i : calm) {
      const std::vector<double>& slice = queries.slices[i];
      if (slice.empty()) continue;
      kept_queries += slice.size();
      p50.push_back(Median(slice));
      p90.push_back(Quantile(slice, 0.9));
      rates.push_back(queries.slice_rates[i]);
      std::printf(" %.0f/%.4g/%.4g/%.1f", rates.back(), p50.back(), p90.back(),
                  i < queries.slice_steal.size() ? 100 * queries.slice_steal[i]
                                                 : 0.0);
    }
    const std::vector<size_t> calm_publish =
        Calm(publish_steal, publish_ms.size());
    std::printf(
        "\n# queries: median over the calm slices: %.6g/s, p90 %.6g ms; "
        "pooled p99 %.6g ms\n"
        "# steal filter kept %zu of %zu slices (%.1f%% of the queries) and "
        "%zu of %zu publishes\n",
        Median(rates), Median(p90), Quantile(queries.ms, 0.99), calm.size(),
        queries.slices.size(),
        all_queries > 0 ? 100.0 * double(kept_queries) / double(all_queries)
                        : 0.0,
        calm_publish.size(), publish_ms.size());
    result->Add("publish_ms", Median(Pick(publish_ms, calm_publish)), "ms");
    result->Add("query_p50_ms", Median(p50), "ms");
    result->Add("error_l2", error_l2, "l2/N");
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("peak_rss_mb", peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMb(),
                "MiB");
  }
};

/// Runs `make` kSetupRepeats times (dropping the previous state first so
/// sockets, threads and memory are released) and records each duration.
template <typename T, typename Make>
std::unique_ptr<T> RepeatedSetup(Make make, std::vector<double>* setup_s) {
  std::unique_ptr<T> state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state.reset();
    const double t0 = NowS();
    state = make(r);
    setup_s->push_back(NowS() - t0);
    if (state == nullptr) return nullptr;
  }
  return state;
}

/// Sleeps until `end_s`; in traced runs flips the tracer every 100 ms so
/// armed and disarmed requests interleave under the same load.
void WaitToggling(double end_s, bool toggle) {
  bool armed = false;
  while (NowS() < end_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (toggle) SetTracer(armed = !armed);
  }
  SetTracer(false);
}

/// Runs `pool` for the run's measuring time and folds its samples.
void MeasureClients(const Args& args, ClientPool* pool, Result* result,
                    EndToEnd* e2e) {
  pool->Start();
  WaitToggling(NowS() + args.seconds, args.trace);
  pool->Stop();
  e2e->peak_rss_mb = PeakRssMb();
  e2e->queries = pool->Collect(result);
  e2e->armed_ms = e2e->queries.armed_ms;
  e2e->disarmed_ms = e2e->queries.ms;
}

struct ReleaseSetup {
  explicit ReleaseSetup(Dataset d) : data(std::move(d)) {}
  Dataset data;
  std::unique_ptr<ScratchDir> dir;
  priview::store::StoreOptions store_options;
  std::unique_ptr<priview::store::SynopsisStore> store;
};

/// Structural checks of one release (README "Checks").
std::string CheckRelease(const priview::PipelineResult& release, double n) {
  const PriViewSynopsis& synopsis = release.synopsis;
  std::string failure =
      CheckCoverage(release.selection.design.blocks, synopsis.d(),
                    release.selection.design.t);
  if (failure.empty()) {
    failure = CheckCommonTotal(synopsis.views(), synopsis.total(),
                               kAgreementShare * n);
  }
  if (failure.empty()) {
    failure = CheckPairwiseAgreement(synopsis.views(), kAgreementShare * n);
  }
  return failure;
}

/// A restart must serve exactly what was installed.
std::string CheckRecovered(const priview::store::StoreOptions& options,
                           const PriViewSynopsis& installed) {
  priview::store::SynopsisStore reopened(options);
  priview::serve::SynopsisRegistry registry;
  priview::Status status = reopened.Open();
  if (status.ok()) status = reopened.Recover(&registry).status();
  if (!status.ok()) return "recover: " + status.ToString();
  auto hosted = registry.Acquire(kSynopsisName);
  if (!hosted.ok()) return "recover: " + hosted.status().ToString();
  return CheckBitIdentical(installed.views(), hosted.value()->synopsis().views());
}

/// One noise-off release of `data`: scopes inside a view must answer
/// exactly the benchmark's naive counts.
std::string CheckNoiseOff(const Dataset& data, uint64_t seed) {
  auto exact = Release(data, SubSeed(seed, 3), /*add_noise=*/false);
  if (!exact.ok()) return "noise-off release: " + exact.status().ToString();
  const std::vector<AttrSet>& blocks = exact.value().selection.design.blocks;
  Mix rng(SubSeed(seed, 4));
  std::vector<AttrSet> scopes;
  for (int i = 0; i < 64; ++i) {
    const AttrSet view = blocks[rng.Below(blocks.size())];
    scopes.push_back(RandomSubset(&rng, view, 1 + int(rng.Below(view.size()))));
  }
  priview::QueryEngine engine(&exact.value().synopsis);
  std::vector<MarginalTable> got;
  for (AttrSet scope : scopes) {
    auto answer = engine.TryMarginal(scope);
    got.push_back(answer.ok() ? std::move(answer).value()
                              : MarginalTable(scope, -1.0));
  }
  return CheckExactCounts(got, NaiveCounts(data.records(), scopes));
}

}  // namespace

// ---- release -------------------------------------------------------------------

Result RunRelease(const Args& args) {
  Result result;
  EndToEnd e2e;
  auto setup = RepeatedSetup<ReleaseSetup>(
      [&](int) -> std::unique_ptr<ReleaseSetup> {
        auto s = std::make_unique<ReleaseSetup>(MakeData(args.seed, args.small));
        s->dir = std::make_unique<ScratchDir>("release");
        s->store_options.dir = s->dir->path() + "/store";
        s->store = std::make_unique<priview::store::SynopsisStore>(
            s->store_options);
        if (!s->store->Open().ok()) return nullptr;
        return s;
      },
      &e2e.setup_s);
  if (setup == nullptr) {
    result.Count("set-up failed");
    return result;
  }
  const Dataset& data = setup->data;
  const double n = double(data.size());

  // Analyst queries: 1000 random 6-way marginals per release. The first
  // 200 are the accuracy sample, counted by the benchmark itself; the
  // uniform table's error on them is the yardstick.
  Mix scope_rng(SubSeed(args.seed, 2));
  std::vector<AttrSet> query_scopes;
  for (int i = 0; i < 1000; ++i) {
    query_scopes.push_back(RandomScope(&scope_rng, kD, 6));
  }
  const std::vector<AttrSet> l2_scopes(query_scopes.begin(),
                                       query_scopes.begin() + 200);
  const std::vector<MarginalTable> truth = NaiveCounts(data.records(), l2_scopes);
  std::vector<MarginalTable> uniform;
  for (AttrSet scope : l2_scopes) uniform.emplace_back(scope, n / 64.0);
  const double uniform_l2 = MedianL2(uniform, truth, n);

  std::vector<double> release_l2;
  const double end_s = NowS() + args.seconds;
  for (int i = 0; i == 0 || NowS() < end_s; ++i) {
    const bool armed = args.trace && i % 2 == 1;
    SetTracer(armed);
    priview::StatusOr<priview::PipelineResult> release =
        priview::Status::Internal("not run");
    priview::Status installed;
    const auto steal_before = StealJiffies();
    const double ms = TimeMs([&] {
      release = Release(data, SubSeed(args.seed, 1000 + i));
      installed = release.ok() ? setup->store->Install(kSynopsisName,
                                                       release.value().synopsis)
                               : release.status();
    });
    SetTracer(false);
    if (!installed.ok()) {
      result.Count("release: " + installed.ToString());
      continue;
    }
    e2e.publish_ms.push_back(ms);
    e2e.publish_steal.push_back(StealShare(steal_before, StealJiffies()));
    (armed ? e2e.armed_ms : e2e.disarmed_ms).push_back(ms);
    const PriViewSynopsis& synopsis = release.value().synopsis;
    std::string failure = CheckRelease(release.value(), n);

    // Analyst queries on the fresh release (in process, cold engine); each
    // release is one slice of the query samples.
    priview::QueryEngine engine(&synopsis);
    std::vector<MarginalTable> answers;
    std::vector<double>& slice = e2e.queries.slices.emplace_back();
    const auto query_steal = StealJiffies();
    const double q0 = NowS();
    for (AttrSet scope : query_scopes) {
      const double t0 = NowS();
      auto answer = engine.TryMarginal(scope);
      slice.push_back((NowS() - t0) * 1e3);
      if (failure.empty()) {
        failure = answer.ok() ? CheckSumsToTotal(answer.value(), synopsis.total())
                              : "query: " + answer.status().ToString();
      }
      if (answers.size() < l2_scopes.size()) {
        answers.push_back(answer.ok() ? std::move(answer).value()
                                      : MarginalTable(scope, 0.0));
      }
    }
    e2e.queries.slice_rates.push_back(double(slice.size()) / (NowS() - q0));
    e2e.queries.slice_steal.push_back(StealShare(query_steal, StealJiffies()));
    e2e.queries.ms.insert(e2e.queries.ms.end(), slice.begin(), slice.end());
    const double l2 = MedianL2(answers, truth, n);
    release_l2.push_back(l2);
    if (failure.empty()) failure = CheckErrorBelowUniform(l2, uniform_l2);
    if (failure.empty()) failure = CheckRecovered(setup->store_options, synopsis);
    result.Count(failure);
  }
  result.Count(CheckNoiseOff(data, args.seed));
  e2e.error_l2 = Median(release_l2);
  std::printf("# 6-way L2 error %.4g against the uniform table's %.4g\n",
              e2e.error_l2, uniform_l2);
  e2e.Report(args, &result);
  return result;
}

// ---- serving -------------------------------------------------------------------

Result RunServeHot(const Args& args) {
  Result result;
  EndToEnd e2e;
  auto setup = RepeatedSetup<HotSetup>(
      [&](int repeat) {
        auto s = StartHot(args, repeat);
        if (s != nullptr) {
          e2e.publish_ms.push_back(s->publish_ms);
          e2e.publish_steal.push_back(s->publish_steal);
        }
        return s;
      },
      &e2e.setup_s);
  if (setup == nullptr) {
    result.Count("set-up failed");
    return result;
  }
  for (const std::string& failure : setup->warm_failures) result.Count(failure);

  ClientPool pool(setup->hosted->socket, kClientThreads, args.seed,
                  [&](int, PriViewClient& client, Mix& rng, double* ms) {
                    return HotRequest(*setup, client, rng, ms);
                  });
  MeasureClients(args, &pool, &result, &e2e);

  // Accuracy of the hot pool and of its roll-ups (the projections of each
  // cube's own answer) against the benchmark's own counts.
  std::vector<AttrSet> scopes;
  std::vector<MarginalTable> answers;
  for (const Cube& cube : setup->cubes) {
    scopes.push_back(cube.scope);
    answers.push_back(cube.reference);
    for (AttrSet sub : cube.rollup_scopes) {
      scopes.push_back(sub);
      answers.push_back(OwnProject(cube.reference, sub));
    }
  }
  e2e.error_l2 = MedianL2(answers, NaiveCounts(setup->data.records(), scopes),
                          double(setup->data.size()));
  e2e.Report(args, &result);
  return result;
}

Result RunServeCold(const Args& args) {
  Result result;
  EndToEnd e2e;
  auto setup = RepeatedSetup<ServeSetup>(
      [&](int repeat) {
        auto s = StartServing(args, repeat, "cold", 1, 1);
        if (s != nullptr) {
          e2e.publish_ms.push_back(s->publish_ms);
          e2e.publish_steal.push_back(s->publish_steal);
        }
        return s;
      },
      &e2e.setup_s);
  if (setup == nullptr) {
    result.Count("set-up failed");
    return result;
  }
  const Hosted& hosted = *setup->hosted;

  // Distinct uncovered 8-way scopes, each asked exactly once. The first
  // kSampled of the order are answered first and kept for the error metric.
  ColdTargets targets(hosted.scopes, SubSeed(args.seed, 30));
  constexpr size_t kSampled = 200;
  std::vector<AttrSet> sampled_scopes(kSampled);
  std::vector<MarginalTable> sampled(kSampled);
  std::vector<char> answered(kSampled, 0);
  ClientPool pool(hosted.socket, kClientThreads, args.seed,
                  [&](int, PriViewClient& client, Mix&,
                      double* ms) -> std::optional<std::string> {
                    const auto target = targets.Next();
                    if (!target) return std::nullopt;
                    const auto [i, scope] = *target;
                    const uint64_t t0 = NowNs();
                    auto answer = client.Marginal(kSynopsisName, scope);
                    *ms = double(NowNs() - t0) * 1e-6;
                    if (!answer.ok()) return answer.status().ToString();
                    if (i < kSampled) {
                      sampled_scopes[i] = scope;
                      sampled[i] = answer.value().table;
                      answered[i] = 1;
                    }
                    return CheckServedTable(answer.value().table, hosted);
                  });
  MeasureClients(args, &pool, &result, &e2e);

  std::vector<AttrSet> scopes;
  std::vector<MarginalTable> answers;
  for (size_t i = 0; i < kSampled; ++i) {
    if (!answered[i]) continue;
    scopes.push_back(sampled_scopes[i]);
    answers.push_back(std::move(sampled[i]));
  }
  e2e.error_l2 = MedianL2(answers, NaiveCounts(setup->data.records(), scopes),
                          double(setup->data.size()));
  e2e.Report(args, &result);
  return result;
}

// ---- stream-rollover -------------------------------------------------------------

Result RunStream(const Args& args) {
  Result result;
  EndToEnd e2e;
  auto setup = RepeatedSetup<StreamSetup>(
      [&](int repeat) { return StartStream(args, repeat); }, &e2e.setup_s);
  const priview::Status filled =
      setup == nullptr ? priview::Status::Internal("set-up failed")
                       : setup->Fill();
  if (!filled.ok()) {
    result.Count("set-up: " + filled.ToString());
    return result;
  }
  std::printf("# window fill (%d epochs, not in setup_s): %.4g s\n",
              kWindowBatches, setup->fill_s);
  StreamSetup& s = *setup;

  // Reads: covered 4-way marginals and 3-way series over the retained
  // epochs. Every answer's epoch is recorded for the epoch check.
  Mix rng(SubSeed(args.seed, 41));
  std::vector<AttrSet> marginal_scopes;
  std::vector<AttrSet> series_scopes;
  for (int i = 0; i < 16; ++i) {
    const AttrSet view = s.hosted->scopes[rng.Below(s.hosted->scopes.size())];
    marginal_scopes.push_back(RandomSubset(&rng, view, 4));
    series_scopes.push_back(RandomSubset(&rng, view, 3));
  }
  std::vector<std::vector<uint64_t>> read_epochs(kReaders);
  ClientPool readers(
      s.hosted->socket, kReaders, args.seed,
      [&](int thread, PriViewClient& client, Mix& r, double* ms) {
        const bool series = r.Below(2) == 1;
        const AttrSet scope =
            (series ? series_scopes : marginal_scopes)[r.Below(16)];
        const uint64_t t0 = NowNs();
        if (series) {
          auto answer = client.Series(kSynopsisName, scope, kHistoryDepth);
          *ms = double(NowNs() - t0) * 1e-6;
          if (!answer.ok()) return answer.status().ToString();
          if (answer.value().points.empty()) return std::string("empty series");
          for (const auto& point : answer.value().points) {
            read_epochs[thread].push_back(point.epoch);
          }
          return std::string();
        }
        auto answer = client.Marginal(kSynopsisName, scope);
        *ms = double(NowNs() - t0) * 1e-6;
        if (!answer.ok()) return answer.status().ToString();
        read_epochs[thread].push_back(answer.value().epoch);
        return std::string();
      });

  // Epochs start on a fixed schedule (one per kEpochPeriodMs; a late
  // epoch starts at once), so every run publishes the same number of
  // epochs and the readers share the machine with a steady write load.
  // Every fourth epoch the running counts are kept with the window they
  // belong to, and compared with a naive recount once the readers stop.
  struct CountsSnapshot {
    uint64_t window_start;
    std::vector<MarginalTable> counts;
  };
  std::vector<CountsSnapshot> snapshots;
  std::vector<uint64_t> epochs;
  std::vector<double> recounted;
  readers.Start();
  const double start_s = NowS();
  const int epoch_count =
      std::max(1, int(args.seconds * 1000.0 / kEpochPeriodMs));
  for (int e = 0; e < epoch_count; ++e) {
    const double due_s = start_s + e * kEpochPeriodMs * 1e-3;
    if (NowS() < due_s) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due_s - NowS()));
    }
    const bool armed = args.trace && e % 2 == 1;
    SetTracer(armed);
    double ms = 0.0;
    const auto steal_before = StealJiffies();
    auto report = s.Epoch(&ms, nullptr);
    const double steal = StealShare(steal_before, StealJiffies());
    SetTracer(false);
    const std::string failure = Describe(report.status());
    if (!failure.empty()) {
      result.Count(failure);
      continue;
    }
    const priview::stream::EpochReport& r = report.value();
    e2e.publish_ms.push_back(ms);
    e2e.publish_steal.push_back(steal);
    (armed ? e2e.armed_ms : e2e.disarmed_ms).push_back(ms);
    epochs.push_back(r.epoch);
    recounted.push_back(double(r.views_recounted) /
                        double(r.views_recounted + r.views_shifted));
    if (e % 4 == 0) {
      snapshots.push_back({s.WindowStart(), s.publisher->counter().CountsCopy()});
    } else {
      result.Count("");
    }
  }
  const double end_s = start_s + args.seconds;
  if (NowS() < end_s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(end_s - NowS()));
  }
  readers.Stop();
  e2e.peak_rss_mb = PeakRssMb();
  e2e.queries = readers.Collect(&result);
  std::printf("# views recounted per epoch: %.4g of all (the rest shifted)\n",
              Mean(recounted));
  for (const CountsSnapshot& snapshot : snapshots) {
    result.Count(CheckExactCounts(
        snapshot.counts,
        NaiveCounts(s.WindowRecords(snapshot.window_start), s.hosted->scopes)));
  }

  std::vector<uint64_t> all_reads;
  for (const auto& reads : read_epochs) {
    all_reads.insert(all_reads.end(), reads.begin(), reads.end());
  }
  std::string failure = CheckEpochsIncrease(epochs);
  if (failure.empty()) failure = CheckReadEpochs(all_reads, s.installed);
  if (failure.empty()) {
    failure = CheckEpsilonSpent(s.publisher->budget().spent(),
                                s.publisher->epochs_published(), kEpochEpsilon);
  }
  result.Count(failure);

  // Accuracy of the live epoch: 100 random 6-way marginals against the
  // benchmark's own count of the window.
  auto hosted = s.hosted->server->registry().Acquire(kSynopsisName);
  if (!hosted.ok()) {
    result.Count("acquire: " + hosted.status().ToString());
  } else {
    std::vector<AttrSet> scopes;
    std::vector<MarginalTable> answers;
    for (int i = 0; i < 100; ++i) {
      scopes.push_back(RandomScope(&rng, kD, 6));
      auto answer = hosted.value()->engine().TryMarginal(scopes.back());
      answers.push_back(answer.ok() ? std::move(answer).value()
                                    : MarginalTable(scopes.back(), 0.0));
    }
    const std::vector<uint64_t> records = s.WindowRecords(s.WindowStart());
    e2e.error_l2 =
        MedianL2(answers, NaiveCounts(records, scopes), double(records.size()));
  }
  e2e.Report(args, &result);
  return result;
}

}  // namespace perfbench
