// Benchmark-trajectory gate: parse the flat BENCH_<id>.json files the
// bench harness emits (bench/bench_util.h BenchJson) and compare a fresh
// run against a committed baseline, failing on throughput regressions.
// Python-free on purpose — the CI gate is the same C++ the repo already
// builds (tools/bench_compare is a thin main over this library).
#ifndef GRAPHSKETCH_SRC_WORKLOAD_BENCH_BASELINE_H_
#define GRAPHSKETCH_SRC_WORKLOAD_BENCH_BASELINE_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gsketch {

/// One parsed BENCH_<id>.json: identity plus flat numeric metrics in file
/// order.
struct BenchReport {
  std::string bench;  ///< e.g. "E13".
  std::string title;
  std::vector<std::pair<std::string, double>> metrics;

  /// Metric lookup; nullopt if the key is absent.
  std::optional<double> Metric(const std::string& key) const;
};

/// Parses the BenchJson output format. Tolerates whitespace variations but
/// is intentionally NOT a general JSON parser: it reads exactly the flat
/// {"bench","title","metrics":{k:v,...}} shape bench_util.h writes.
/// Returns nullopt and sets `error` on malformed input.
std::optional<BenchReport> ParseBenchReport(const std::string& text,
                                            std::string* error);

/// Reads and parses a BENCH_<id>.json file from disk.
std::optional<BenchReport> ReadBenchReportFile(const std::string& path,
                                               std::string* error);

/// Result of gating `fresh` against `baseline`.
struct BenchGateResult {
  bool ok = true;
  size_t keys_compared = 0;
  /// Baseline keys the gate selected but could not compare (per-layer
  /// costs measured on another kernel backend).
  size_t keys_skipped = 0;
  /// Human-readable per-key lines ("ok"/"REGRESSION"/"MISSING"), plus a
  /// summary; printed verbatim by tools/bench_compare.
  std::vector<std::string> lines;
};

/// Compares every baseline metric whose key starts with `key_prefix`.
/// Default direction is higher-is-better (throughput): fails if `fresh`
/// is missing such a key, or if fresh < baseline * (1 - max_regress_pct
/// / 100). With `lower_is_better` (latency metrics, e.g. the
/// "snapshot_publish_ms" family) the gate flips: fresh > baseline *
/// (1 + max_regress_pct/100) + abs_slack fails. `abs_slack` is an
/// absolute headroom in the metric's own unit so sub-millisecond
/// latencies aren't gated on timer noise — a 15% band around 0.05 ms is
/// meaningless, 0.05 ms + 5 ms is not. Improvements and new keys in
/// `fresh` never fail. Also fails if the two reports describe different
/// benches.
BenchGateResult CompareBenchReports(const BenchReport& baseline,
                                    const BenchReport& fresh,
                                    double max_regress_pct,
                                    const std::string& key_prefix =
                                        "updates_per_sec",
                                    bool lower_is_better = false,
                                    double abs_slack = 0.0);

/// True for the per-layer cost keys (E16): names ending in "_refs_per_id"
/// or "_refs_per_half", costs in units of a reference timed in the same
/// run, so the host's speed cancels out of them.
bool IsLayerCostKey(const std::string& key);

/// Gates every per-layer cost key of `baseline` lower-is-better: a key
/// missing from `fresh`, or fresh > baseline * (1 + max_regress_pct/100),
/// fails. Costs compare only on one kernel backend, so when the reports'
/// "kernel_lanes" differ (or either lacks it) no key is gated: the result
/// passes with one SKIP line and `keys_skipped` set.
BenchGateResult CompareLayerCosts(const BenchReport& baseline,
                                  const BenchReport& fresh,
                                  double max_regress_pct);

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_WORKLOAD_BENCH_BASELINE_H_
