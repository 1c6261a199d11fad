// Unit tests for the CI perf-regression gate (src/workload/bench_baseline,
// surfaced as tools/bench_compare): the BenchJson parser round-trips the
// exact format bench/bench_util.h writes, and the comparator provably
// FAILS on an injected >15% throughput regression while passing noise
// within tolerance — the property the CI gate's value rests on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/workload/bench_baseline.h"

namespace gsketch {
namespace {

// A miniature but format-exact BENCH_E13.json (bench_util.h layout).
const char kBaselineJson[] =
    "{\n"
    "  \"bench\": \"E13\",\n"
    "  \"title\": \"parallel stream ingestion\",\n"
    "  \"metrics\": {\n"
    "    \"n\": 1024,\n"
    "    \"stream_updates\": 1e+06,\n"
    "    \"updates_per_sec_1thread\": 2.5e+06,\n"
    "    \"updates_per_sec_best\": 5e+06,\n"
    "    \"speedup_best\": 2\n"
    "  }\n"
    "}\n";

BenchReport MustParse(const std::string& text) {
  std::string error;
  auto report = ParseBenchReport(text, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return report.value_or(BenchReport{});
}

// Clones the baseline with one throughput key scaled by `factor`.
BenchReport WithScaledKey(const BenchReport& base, const std::string& key,
                          double factor) {
  BenchReport out = base;
  for (auto& [k, v] : out.metrics) {
    if (k == key) v *= factor;
  }
  return out;
}

// ---------------------------------------------------------------- parse --

TEST(BenchReportParse, ReadsTheBenchJsonFormatExactly) {
  BenchReport r = MustParse(kBaselineJson);
  EXPECT_EQ(r.bench, "E13");
  EXPECT_EQ(r.title, "parallel stream ingestion");
  ASSERT_EQ(r.metrics.size(), 5u);
  EXPECT_EQ(r.metrics[0].first, "n");  // file order preserved
  EXPECT_EQ(r.Metric("updates_per_sec_1thread").value_or(0), 2.5e6);
  EXPECT_EQ(r.Metric("speedup_best").value_or(0), 2.0);
  EXPECT_FALSE(r.Metric("no_such_key").has_value());
}

TEST(BenchReportParse, RejectsMalformedInputWithDiagnostics) {
  const char* bad[] = {
      "",
      "{",
      "{\"bench\": \"E13\"}",                      // no metrics object
      "{\"bench\": \"E13\", \"metrics\": {\"k\": }}",  // missing number
      "{\"bench\": \"E13\", \"metrics\": {\"k\": 1} ",  // unterminated
      "not json at all",
  };
  for (const char* text : bad) {
    std::string error;
    auto r = ParseBenchReport(text, &error);
    EXPECT_FALSE(r.has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(BenchReportParse, ReadsFromDiskAndReportsMissingFiles) {
  std::string path = testing::TempDir() + "bench_gate_fixture.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(kBaselineJson, f);
  std::fclose(f);
  std::string error;
  auto r = ReadBenchReportFile(path, &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_EQ(r->bench, "E13");
  std::remove(path.c_str());

  auto missing = ReadBenchReportFile(path + ".nope", &error);
  EXPECT_FALSE(missing.has_value());
  EXPECT_FALSE(error.empty());
}

// ----------------------------------------------------------------- gate --

TEST(BenchGate, FailsOnInjectedRegressionBeyondTolerance) {
  BenchReport base = MustParse(kBaselineJson);
  // 20% drop on one throughput key: beyond the 15% tolerance, must FAIL.
  BenchReport fresh =
      WithScaledKey(base, "updates_per_sec_best", 0.80);
  BenchGateResult res = CompareBenchReports(base, fresh, 15.0);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.keys_compared, 2u);  // both updates_per_sec_* keys
  bool flagged = false;
  for (const auto& line : res.lines) {
    if (line.find("REGRESSION") != std::string::npos &&
        line.find("updates_per_sec_best") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "the regressed key must be named";
}

TEST(BenchGate, PassesWithinToleranceAndOnImprovements) {
  BenchReport base = MustParse(kBaselineJson);
  // 10% drop on one key, 3x improvement on the other: both inside the
  // 15% gate. Non-throughput metrics (n, speedup) are never compared.
  BenchReport fresh = WithScaledKey(
      WithScaledKey(base, "updates_per_sec_best", 0.90),
      "updates_per_sec_1thread", 3.0);
  BenchGateResult res = CompareBenchReports(base, fresh, 15.0);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.keys_compared, 2u);
}

TEST(BenchGate, BoundaryIsExactlyTheToleranceFraction) {
  BenchReport base = MustParse(kBaselineJson);
  // Exactly at baseline * (1 - 15%) passes; epsilon below fails.
  EXPECT_TRUE(CompareBenchReports(
                  base, WithScaledKey(base, "updates_per_sec_best", 0.85),
                  15.0)
                  .ok);
  EXPECT_FALSE(CompareBenchReports(
                   base, WithScaledKey(base, "updates_per_sec_best", 0.849),
                   15.0)
                   .ok);
}

TEST(BenchGate, MissingThroughputKeyInFreshRunFails) {
  BenchReport base = MustParse(kBaselineJson);
  BenchReport fresh = base;
  fresh.metrics.erase(fresh.metrics.begin() + 3);  // updates_per_sec_best
  BenchGateResult res = CompareBenchReports(base, fresh, 15.0);
  EXPECT_FALSE(res.ok);
  bool missing_line = false;
  for (const auto& line : res.lines) {
    if (line.find("MISSING") != std::string::npos) missing_line = true;
  }
  EXPECT_TRUE(missing_line);
}

TEST(BenchGate, ExtraKeysInFreshRunAreIgnored) {
  BenchReport base = MustParse(kBaselineJson);
  BenchReport fresh = base;
  fresh.metrics.emplace_back("updates_per_sec_new_path", 1.0);
  EXPECT_TRUE(CompareBenchReports(base, fresh, 15.0).ok);
}

TEST(BenchGate, BenchIdentityMismatchFails) {
  BenchReport base = MustParse(kBaselineJson);
  BenchReport fresh = base;
  fresh.bench = "E14";
  EXPECT_FALSE(CompareBenchReports(base, fresh, 15.0).ok);
}

// ------------------------------------------- latency (lower is better) --

// An E15-shaped report: publish-latency percentiles next to throughput.
const char kLatencyJson[] =
    "{\n"
    "  \"bench\": \"E15\",\n"
    "  \"title\": \"query-while-ingest serving\",\n"
    "  \"metrics\": {\n"
    "    \"updates_per_sec_off\": 4e+06,\n"
    "    \"snapshot_publish_ms_p50_100ms\": 0.4,\n"
    "    \"snapshot_publish_ms_p99_100ms\": 2,\n"
    "    \"snapshot_publish_ms_max_10ms\": 8\n"
    "  }\n"
    "}\n";

TEST(BenchGate, LowerIsBetterFailsWhenLatencyGrowsPastCeiling) {
  BenchReport base = MustParse(kLatencyJson);
  // p99 2 ms -> 12 ms: past 2 * 1.15 + 5 = 7.3 ms, must FAIL — and only
  // the snapshot_publish_ms* keys are in this gate.
  BenchReport fresh =
      WithScaledKey(base, "snapshot_publish_ms_p99_100ms", 6.0);
  BenchGateResult res =
      CompareBenchReports(base, fresh, 15.0, "snapshot_publish_ms",
                          /*lower_is_better=*/true, /*abs_slack=*/5.0);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.keys_compared, 3u);
  bool flagged = false;
  for (const auto& line : res.lines) {
    if (line.find("REGRESSION") != std::string::npos &&
        line.find("snapshot_publish_ms_p99_100ms") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "the regressed latency key must be named";
}

TEST(BenchGate, LowerIsBetterAbsorbsNoiseWithinSlackAndImprovements) {
  BenchReport base = MustParse(kLatencyJson);
  // 0.4 ms -> 4 ms is a 10x relative jump but inside the +15% + 5 ms
  // absolute slack (ceiling 5.46 ms): sub-millisecond noise never gates.
  // Dropping a latency (improvement) never fails either.
  BenchReport fresh = WithScaledKey(
      WithScaledKey(base, "snapshot_publish_ms_p50_100ms", 10.0),
      "snapshot_publish_ms_max_10ms", 0.25);
  EXPECT_TRUE(CompareBenchReports(base, fresh, 15.0, "snapshot_publish_ms",
                                  /*lower_is_better=*/true,
                                  /*abs_slack=*/5.0)
                  .ok);
  // Without the absolute slack the same 10x jump fails: the slack is
  // load-bearing.
  EXPECT_FALSE(CompareBenchReports(base, fresh, 15.0,
                                   "snapshot_publish_ms",
                                   /*lower_is_better=*/true,
                                   /*abs_slack=*/0.0)
                   .ok);
}

TEST(BenchGate, LowerIsBetterStillFailsOnMissingKeys) {
  BenchReport base = MustParse(kLatencyJson);
  BenchReport fresh = base;
  fresh.metrics.pop_back();  // drop snapshot_publish_ms_max_10ms
  BenchGateResult res =
      CompareBenchReports(base, fresh, 15.0, "snapshot_publish_ms",
                          /*lower_is_better=*/true, /*abs_slack=*/5.0);
  EXPECT_FALSE(res.ok);
}

// ------------------------------------------ per-layer costs (E16) --

// An E16-shaped report: per-layer costs in reference units, then the
// nanosecond costs they were divided from, then the host keys.
const char kLayerJson[] =
    "{\n"
    "  \"bench\": \"E16\",\n"
    "  \"title\": \"per-layer costs of the apply path\",\n"
    "  \"metrics\": {\n"
    "    \"n\": 1024,\n"
    "    \"hash_refs_per_id\": 1,\n"
    "    \"scatter_refs_per_half\": 16,\n"
    "    \"apply_refs_per_half\": 200,\n"
    "    \"ref_ns_per_id\": 1,\n"
    "    \"apply_ns_per_half\": 200,\n"
    "    \"nproc\": 4,\n"
    "    \"kernel_lanes\": 8\n"
    "  }\n"
    "}\n";

TEST(BenchGate, LayerCostKeysAreTheRefsPerIdAndRefsPerHalfSuffixes) {
  EXPECT_TRUE(IsLayerCostKey("hash_refs_per_id"));
  EXPECT_TRUE(IsLayerCostKey("apply_refs_per_half"));
  EXPECT_FALSE(IsLayerCostKey("refs_per_id_total"));
  // Nanoseconds depend on the host's speed: reported, never gated.
  EXPECT_FALSE(IsLayerCostKey("ref_ns_per_id"));
  EXPECT_FALSE(IsLayerCostKey("apply_ns_per_half"));
  EXPECT_FALSE(IsLayerCostKey("updates_per_sec_1thread"));
  EXPECT_FALSE(IsLayerCostKey("kernel_lanes"));
}

TEST(BenchGate, LayerCostsGateLowerIsBetter) {
  BenchReport base = MustParse(kLayerJson);
  // apply 200 -> 240 refs (+20%): past the +15% ceiling of 230, must
  // FAIL, naming the key; n, the ns keys, nproc and kernel_lanes are
  // never compared.
  BenchGateResult res = CompareLayerCosts(
      base, WithScaledKey(base, "apply_refs_per_half", 1.2), 15.0);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.keys_compared, 3u);
  bool flagged = false;
  for (const auto& line : res.lines) {
    if (line.find("REGRESSION") != std::string::npos &&
        line.find("apply_refs_per_half") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "the regressed cost must be named";
  // +10% on one cost and a 2x drop on another pass: lower is better.
  EXPECT_TRUE(CompareLayerCosts(
                  base,
                  WithScaledKey(WithScaledKey(base, "hash_refs_per_id", 1.1),
                                "scatter_refs_per_half", 0.5),
                  15.0)
                  .ok);
  // A host twice as slow doubles the nanoseconds, not the reference
  // units: nothing fails.
  EXPECT_TRUE(CompareLayerCosts(
                  base, WithScaledKey(base, "apply_ns_per_half", 2.0), 15.0)
                  .ok);
  // A cost missing from the fresh run fails.
  BenchReport fresh = base;
  fresh.metrics.erase(fresh.metrics.begin() + 2);  // scatter_refs_per_half
  EXPECT_FALSE(CompareLayerCosts(base, fresh, 15.0).ok);
}

TEST(BenchGate, LayerCostsSkipAcrossKernelBackends) {
  BenchReport base = MustParse(kLayerJson);
  // A 4-lane (AVX2) run 3x slower than an 8-lane baseline is not a
  // regression of the change: nothing is gated, one SKIP line says why.
  BenchReport fresh = WithScaledKey(
      WithScaledKey(base, "apply_refs_per_half", 3.0), "kernel_lanes", 0.5);
  BenchGateResult res = CompareLayerCosts(base, fresh, 15.0);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.keys_compared, 0u);
  EXPECT_EQ(res.keys_skipped, 3u);
  ASSERT_EQ(res.lines.size(), 1u);
  EXPECT_EQ(res.lines[0].find("SKIP"), 0u) << res.lines[0];
  // A baseline without kernel_lanes cannot vouch for its backend either.
  BenchReport no_lanes = base;
  no_lanes.metrics.pop_back();
  EXPECT_EQ(CompareLayerCosts(no_lanes, fresh, 15.0).keys_skipped, 3u);
  // Throughput baselines have no cost keys: nothing gated, nothing said.
  BenchReport e13 = MustParse(kBaselineJson);
  BenchGateResult none = CompareLayerCosts(e13, e13, 15.0);
  EXPECT_TRUE(none.ok);
  EXPECT_EQ(none.keys_compared + none.keys_skipped, 0u);
}

TEST(BenchGate, CustomPrefixSelectsWhichMetricsAreGated) {
  BenchReport base = MustParse(kBaselineJson);
  BenchReport fresh = WithScaledKey(base, "speedup_best", 0.5);
  // Default prefix ignores speedup_best entirely...
  EXPECT_TRUE(CompareBenchReports(base, fresh, 15.0).ok);
  // ...gating on the "speedup" prefix catches the same drop.
  BenchGateResult res =
      CompareBenchReports(base, fresh, 15.0, "speedup");
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.keys_compared, 1u);
}

}  // namespace
}  // namespace gsketch
