// The benchmark's own test (perfbench --selftest):
//   1. every workload runs at reduced size and reports no failed
//      operation and every end-to-end metric, finite;
//   2. every output check passes on a correct input and counts a
//      corrupted answer or synopsis as a failed operation.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "bench.h"
#include "core/query_engine.h"
#include "fixtures.h"

namespace perfbench {

namespace {

int g_errors = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_errors;
}

/// The check must hold on `good` and count `bad` as a failed operation.
void ExpectFlags(const std::string& name, const std::string& good,
                 const std::string& bad) {
  Result result;
  result.Count(good);
  result.Count(bad);
  Expect(good.empty(), name + " passes on a correct input" +
                           (good.empty() ? "" : ": " + good));
  Expect(result.failed == 1 && !bad.empty(),
         name + " counts the corrupted input as failed" +
             (bad.empty() ? "" : " (" + bad + ")"));
}

void RunWorkloadsSmall() {
  const std::vector<std::string> names = {"publish_ms", "query_p50_ms",
                                          "error_l2", "setup_s", "peak_rss_mb"};
  const std::vector<std::pair<std::string, Result (*)(const Args&)>> runs = {
      {"release", RunRelease},
      {"serve-hot", RunServeHot},
      {"serve-cold", RunServeCold},
      {"stream-rollover", RunStream}};
  for (const auto& [workload, run] : runs) {
    Args args;
    args.workload = workload;
    args.seed = 7;
    args.seconds = 1.0;
    args.small = true;
    const Result result = run(args);
    Expect(result.attempted > 0 && result.failed == 0,
           workload + " at reduced size: " + std::to_string(result.attempted) +
               " attempted, " + std::to_string(result.failed) + " failed" +
               (result.failures.empty() ? "" : " (" + result.failures[0] + ")"));
    bool complete = result.metrics.size() == names.size();
    for (size_t i = 0; complete && i < names.size(); ++i) {
      complete = result.metrics[i].name == names[i] &&
                 std::isfinite(result.metrics[i].value) &&
                 result.metrics[i].value > 0.0;
    }
    Expect(complete, workload + " reports every end-to-end metric, non-zero");
  }
}

void CorruptOneCell(MarginalTable* table, double delta) {
  table->At(table->size() / 2) += delta;
}

void CorruptChecks() {
  Args args;
  args.seed = 11;
  args.small = true;
  const Dataset data = MakeData(args.seed, true);
  const double n = double(data.size());
  auto release = Release(data, SubSeed(args.seed, 1));
  Expect(release.ok(), "reduced release builds");
  if (!release.ok()) return;
  const PriViewSynopsis& synopsis = release.value().synopsis;
  const std::vector<MarginalTable>& views = synopsis.views();
  const priview::CoveringDesign& design = release.value().selection.design;

  // Release checks.
  std::vector<AttrSet> without_attr0;
  for (AttrSet block : design.blocks) {
    if (!block.Contains(0)) without_attr0.push_back(block);
  }
  ExpectFlags("coverage", CheckCoverage(design.blocks, design.d, design.t),
              CheckCoverage(without_attr0, design.d, design.t));

  std::vector<MarginalTable> moved = views;
  moved[0].At(0) += 1e-3 * n;  // keeps other views, breaks agreement
  moved[0].At(moved[0].size() - 1) -= 1e-3 * n;
  ExpectFlags("pairwise agreement",
              CheckPairwiseAgreement(views, kAgreementShare * n),
              CheckPairwiseAgreement(moved, kAgreementShare * n));

  std::vector<MarginalTable> heavier = views;
  CorruptOneCell(&heavier[3], 1e-3 * n);
  ExpectFlags("common total",
              CheckCommonTotal(views, synopsis.total(), kAgreementShare * n),
              CheckCommonTotal(heavier, synopsis.total(), kAgreementShare * n));

  const std::vector<AttrSet> scopes = {design.blocks[0], design.blocks[1]};
  std::vector<MarginalTable> counted = NaiveCounts(data.records(), scopes);
  std::vector<MarginalTable> off_by_one = counted;
  CorruptOneCell(&off_by_one[1], 1.0);
  ExpectFlags("noise-off exact counts",
              CheckExactCounts(data.CountMarginals(scopes), counted),
              CheckExactCounts(off_by_one, counted));

  std::vector<MarginalTable> flipped = views;
  uint64_t bits;
  std::memcpy(&bits, &flipped[2].At(1), sizeof bits);
  bits ^= 1;
  std::memcpy(&flipped[2].At(1), &bits, sizeof bits);
  ExpectFlags("recover bit-identical", CheckBitIdentical(views, views),
              CheckBitIdentical(views, flipped));

  ExpectFlags("error below uniform", CheckErrorBelowUniform(0.002, 0.5),
              CheckErrorBelowUniform(0.25, 0.5));

  // Serving checks, on real answers of the reduced release.
  priview::QueryEngine engine(&synopsis);
  Mix rng(5);
  AttrSet uncovered;
  do {
    uncovered = RandomScope(&rng, kD, 8);
  } while (Covered(design.blocks, uncovered));
  const MarginalTable solved = engine.TryMarginal(uncovered).value();
  const AttrSet inside = RandomSubset(&rng, design.blocks[0], 4);
  const MarginalTable covered = engine.TryMarginal(inside).value();

  MarginalTable skewed = solved;
  CorruptOneCell(&skewed, 1e-6 * n);
  ExpectFlags("sum to total", CheckSumsToTotal(solved, synopsis.total()),
              CheckSumsToTotal(skewed, synopsis.total()));

  MarginalTable wrong_rollup = covered;
  CorruptOneCell(&wrong_rollup, 1.0);
  ExpectFlags("roll-up of view",
              CheckMatches(covered, OwnProject(views[0], inside), 1e-9 * n,
                           "roll-up of view"),
              CheckMatches(wrong_rollup, OwnProject(views[0], inside), 1e-9 * n,
                           "roll-up of view"));

  const uint64_t cell = 5;
  ExpectFlags("conjunction cell",
              CheckValue(engine.TryConjunctionCount(uncovered, cell).value(),
                         solved.At(cell), 1e-9 * n, "conjunction"),
              CheckValue(solved.At(cell) + 1.0, solved.At(cell), 1e-9 * n,
                         "conjunction"));

  // A uniform table sums right but ignores the views it must match.
  MarginalTable flat(uncovered, synopsis.total() / double(solved.size()));
  ExpectFlags("projection onto views",
              CheckProjections(solved, views, kProjectionBoundShare * n),
              CheckProjections(flat, views, kProjectionBoundShare * n));

  // Stream checks.
  ExpectFlags("epochs increase", CheckEpochsIncrease({3, 4, 7}),
              CheckEpochsIncrease({3, 5, 5}));
  ExpectFlags("reads name installed epochs",
              CheckReadEpochs({3, 4, 4, 7}, {1, 3, 4, 7}),
              CheckReadEpochs({3, 99}, {1, 3, 4, 7}));
  ExpectFlags("epsilon spent", CheckEpsilonSpent(12.0, 12, 1.0),
              CheckEpsilonSpent(12.5, 12, 1.0));
}

/// The cold targets are distinct, uncovered 8-way scopes, in an order
/// fixed by the seed.
void ColdTargetChecks() {
  const std::vector<AttrSet> views = {
      AttrSet::FromIndices({0, 1, 2, 3, 4, 5, 6, 7}),
      AttrSet::FromIndices({3, 9, 12, 15, 18, 21, 24, 27})};
  ColdTargets targets(views, 11);
  const std::vector<AttrSet> taken = targets.Take(200000);
  std::unordered_set<uint64_t> seen;
  bool shaped = taken.size() == 200000;
  for (AttrSet scope : taken) {
    shaped = shaped && scope.size() == 8 && !Covered(views, scope) &&
             scope.IsSubsetOf(AttrSet::Full(kD)) &&
             seen.insert(scope.mask()).second;
  }
  Expect(shaped, "cold targets: 200,000 distinct uncovered 8-way scopes");
  Expect(ColdTargets(views, 11).Take(1000) ==
             std::vector<AttrSet>(taken.begin(), taken.begin() + 1000),
         "cold targets: the same seed gives the same order");
  Expect(ColdTargets(views, 12).Take(1000) !=
             std::vector<AttrSet>(taken.begin(), taken.begin() + 1000),
         "cold targets: another seed gives another order");
}

}  // namespace

int RunSelfTest() {
  CorruptChecks();
  ColdTargetChecks();
  RunWorkloadsSmall();
  std::printf("%s: %d problem(s)\n", g_errors == 0 ? "PASS" : "FAIL", g_errors);
  return g_errors;
}

}  // namespace perfbench
