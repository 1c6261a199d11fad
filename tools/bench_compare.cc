// bench_compare: CI perf-regression gate over BENCH_<id>.json files.
//
// Usage: bench_compare [--max-regress-pct P] <baseline.json> <fresh.json>
//
// Compares every throughput metric (keys starting with "updates_per_sec")
// in the committed baseline against a freshly regenerated report and exits
// nonzero if any regressed by more than P percent (default 15) or went
// missing. Baselines that carry snapshot-latency keys (starting with
// "snapshot_publish_ms", E15) are additionally gated lower-is-better:
// fresh > baseline * (1 + P%) + 5 ms fails — the absolute slack keeps
// sub-millisecond publish times from failing on timer noise. Per-layer
// cost keys (ending in "_refs_per_id" or "_refs_per_half", E16: costs in
// units of a reference timed in the same run) gate lower-is-better at P
// percent, but only when the fresh run's "kernel_lanes" equals the
// baseline's: costs from another kernel backend print one SKIP line
// instead. Exit codes: 0 pass, 1
// regression/mismatch, 2 usage/parse error (or a baseline with no gated
// key).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/workload/bench_baseline.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--max-regress-pct P] <baseline.json> "
               "<fresh.json>\n"
               "  Gates throughput keys (updates_per_sec*) of a fresh\n"
               "  BENCH_<id>.json against the committed baseline; exits 1\n"
               "  if any key regressed more than P%% (default 15) or is\n"
               "  missing from the fresh run. Baseline latency keys\n"
               "  (snapshot_publish_ms*) gate the other way: fresh above\n"
               "  baseline * (1 + P%%) + 5 ms fails. Per-layer costs\n"
               "  (*_refs_per_id, *_refs_per_half) fail above baseline *\n"
               "  (1 + P%%) when both runs report the same kernel_lanes.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double max_regress_pct = 15.0;
  const char* paths[2] = {nullptr, nullptr};
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-regress-pct") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      char* end = nullptr;
      max_regress_pct = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || max_regress_pct < 0 ||
          max_regress_pct >= 100) {
        std::fprintf(stderr, "error: --max-regress-pct wants [0, 100)\n");
        return 2;
      }
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (npaths < 2) {
      paths[npaths++] = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (npaths != 2) return Usage(argv[0]);

  std::string error;
  auto baseline = gsketch::ReadBenchReportFile(paths[0], &error);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "error: baseline %s: %s\n", paths[0],
                 error.c_str());
    return 2;
  }
  auto fresh = gsketch::ReadBenchReportFile(paths[1], &error);
  if (!fresh.has_value()) {
    std::fprintf(stderr, "error: fresh %s: %s\n", paths[1], error.c_str());
    return 2;
  }

  std::printf("bench %s: \"%s\"\n", baseline->bench.c_str(),
              baseline->title.c_str());
  if (baseline->bench != fresh->bench) {
    std::printf("MISMATCH  baseline is \"%s\" but fresh is \"%s\"\n",
                baseline->bench.c_str(), fresh->bench.c_str());
    return 1;
  }
  // Throughput (E13-E15); latency keys (E15's snapshot publish
  // percentiles) lower-is-better with 5 ms of absolute slack; per-layer
  // costs (E16). A bench prints only the gates its baseline has keys for.
  const gsketch::BenchGateResult gates[] = {
      gsketch::CompareBenchReports(*baseline, *fresh, max_regress_pct),
      gsketch::CompareBenchReports(*baseline, *fresh, max_regress_pct,
                                   "snapshot_publish_ms",
                                   /*lower_is_better=*/true,
                                   /*abs_slack=*/5.0),
      gsketch::CompareLayerCosts(*baseline, *fresh, max_regress_pct)};
  bool ok = true;
  size_t selected = 0;
  for (const auto& gate : gates) {
    if (gate.keys_compared + gate.keys_skipped == 0 && gate.ok) continue;
    for (const auto& line : gate.lines) std::printf("%s\n", line.c_str());
    ok = ok && gate.ok;
    selected += gate.keys_compared + gate.keys_skipped;
  }
  if (selected == 0) {
    std::fprintf(stderr, "error: baseline has no gated keys\n");
    return 2;
  }
  return ok ? 0 : 1;
}
