// PriView end-to-end benchmark: the program perfbench/run.py builds and runs.
//
//   perfbench --workload <release|serve-hot|serve-cold|stream-rollover>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//   perfbench --reference [--seed <n>]   host figures quoted in the README
//
// Prints a host fingerprint, human-readable notes, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace {

using perfbench::Args;
using perfbench::Result;

std::string ReadFirstLine(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

void PrintFingerprint(const Args& args) {
  std::string cpu = ReadFirstLine("/proc/cpuinfo", "model name");
  if (const size_t colon = cpu.find(':'); colon != std::string::npos) {
    cpu = cpu.substr(colon + 2);
  }
  std::printf("# host cpu=\"%s\" nproc=%u loadavg=\"%s\"\n", cpu.c_str(),
              std::thread::hardware_concurrency(),
              ReadFirstLine("/proc/loadavg", "").c_str());
  std::printf("# build=%s simd=%s publish_threads=%d\n", PERFBENCH_BUILD_TYPE,
              priview::simd::LevelName(priview::simd::ActiveLevel()),
              priview::parallel::ThreadCount());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
}

void PrintJson(const Result& result) {
  bool correct = result.failed == 0 && result.attempted > 0;
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      correct = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <release|serve-hot|serve-cold|"
               "stream-rollover> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --selftest\n"
               "       perfbench --reference [--seed <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with asserts\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // The publish pool runs at the host's core count, capped at 4.
  const unsigned cores = std::thread::hardware_concurrency();
  priview::parallel::SetThreadCount(int(cores == 0 ? 1 : std::min(4u, cores)));

  Args args;
  bool selftest = false;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest" || flag == "--reference") {
      (flag == "--selftest" ? selftest : reference) = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (selftest) return perfbench::RunSelfTest() == 0 ? 0 : 1;
  if (reference) {
    PrintFingerprint(args);
    perfbench::PrintReferenceFigures(args.seed);
    return 0;
  }

  Result (*run)(const Args&) = nullptr;
  if (args.workload == "release") run = perfbench::RunRelease;
  if (args.workload == "serve-hot") run = perfbench::RunServeHot;
  if (args.workload == "serve-cold") run = perfbench::RunServeCold;
  if (args.workload == "stream-rollover") run = perfbench::RunStream;
  if (run == nullptr || args.seconds <= 0.0) return Usage();

  PrintFingerprint(args);
  std::fflush(stdout);
  const auto steal_before = perfbench::StealJiffies();
  Result result = run(args);
  std::printf("# host steal during the run: %.1f%% of cpu time\n",
              100.0 * perfbench::StealShare(steal_before,
                                            perfbench::StealJiffies()));
  if (args.trace) perfbench::RunLayerProbes(args, &result);
  for (const std::string& failure : result.failures) {
    std::printf("# failed: %s\n", failure.c_str());
  }
  std::printf("# attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  PrintJson(result);
  return 0;
}
