// perfbench: the repository benchmark (see README.md beside this file).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.jsonl>]
//
// Generates the workload's inputs from the seed, computes every exact
// answer, then repeats the workload for about --seconds seconds. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
// layer probes, alternates untraced and traced repetitions and reports
// the per-layer metrics. The last stdout line is the JSON result.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/sketch/cell_kernels.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

// Set-up is short next to a repetition, so set-up-only cycles add samples
// for the setup_s median cheaply.
constexpr int kSetupOnlyCycles = 8;
constexpr size_t kMinReps = 3;
// Where a repetition asks several queries (serve), the run repeats until
// it holds at least this many answers, so ten lie beyond its p90.
constexpr size_t kMinAnswers = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || a.seconds <= 0) Usage("--seconds takes a number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

/// CPUs this process may run on (what `nproc` prints).
int NProc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Resets the kernel's peak-RSS mark to the current RSS.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Peak RSS (VmHWM) in bytes, 0 when unreadable.
double PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib * 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Which end-to-end metric each layer metric should move, and where.
struct LayerRow {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
};

const LayerRow kLayerRows[] = {
    {"sketch.hash_ns_per_id", "ns", "ingest_updates_per_s", "ingest-uniform"},
    {"sketch.scatter_ns_per_half", "ns", "ingest_updates_per_s",
     "ingest-uniform"},
    {"core.apply_ns_per_half", "ns", "ingest_updates_per_s",
     "ingest-uniform"},
    {"core.make_ms", "ms", "setup_s", "all"},
    {"core.decode_ms_p50", "ms", "answer_latency_ms_p50", "serve-sliding"},
    {"core.decode_ms_p90", "ms", "answer_latency_ms_p90", "serve-sliding"},
    {"driver.push_ns_per_update", "ns", "ingest_updates_per_s",
     "ingest-hotspot"},
    {"driver.final_drain_ms", "ms", "ingest_updates_per_s",
     "ingest-uniform, ingest-hotspot"},
    {"driver.gutter_coalesced_share", "share", "ingest_updates_per_s",
     "ingest-hotspot"},
    {"driver.batch_entries_mean", "count", "ingest_updates_per_s",
     "serve-sliding (small) vs ingest-* (full)"},
    {"driver.worker_skew", "ratio", "ingest_updates_per_s", "ingest-hotspot"},
    {"driver.parallel_efficiency", "share", "ingest_updates_per_s",
     "ingest-uniform"},
    {"driver.snapshot_drain_ms_p50", "ms",
     "answer_latency_ms_p50, ingest_updates_per_s", "serve-sliding"},
    {"driver.snapshot_drain_ms_p90", "ms",
     "answer_latency_ms_p90, ingest_updates_per_s", "serve-sliding"},
    {"driver.snapshot_publish_ms_p50", "ms", "answer_latency_ms_p50",
     "serve-sliding"},
    {"driver.snapshot_publish_ms_p90", "ms", "answer_latency_ms_p90",
     "serve-sliding"},
    {"driver.query_wait_ms_p50", "ms", "answer_latency_ms_p50",
     "serve-sliding"},
    {"driver.query_wait_ms_p90", "ms", "answer_latency_ms_p90",
     "serve-sliding"},
    {"driver.eager_share", "share", "answer_latency_ms_p50", "serve-sliding"},
    {"session.create_ms", "ms", "setup_s", "serve-sliding"},
    {"session.hosted_mb", "MB", "peak_rss_mb", "serve-sliding"},
    {"session.rss_over_hosted", "ratio", "peak_rss_mb", "serve-sliding"},
    {"trace.overhead_share", "share", "-", "every workload"},
};

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const RepResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
};

/// A measured repetition with the RSS bookkeeping around it: freed heap
/// goes back to the kernel and the peak mark is reset first, and the
/// benchmark's own inputs are subtracted from the peak after.
RepResult MeasuredRep(const Inputs& in, Tracer* tracer, int rep,
                      double* peak_rss_mb) {
  malloc_trim(0);
  ResetPeakRss();
  RepResult r = RunRep(in, tracer, rep);
  *peak_rss_mb =
      (PeakRssBytes() - static_cast<double>(in.Bytes())) / 1e6;
  return r;
}

double TokensPerSecond(const RepResult& r) {
  return static_cast<double>(r.tokens) / r.ingest_s;
}

std::vector<Metric> EndToEnd(const Inputs& in, double seconds,
                             Totals* totals) {
  const int64_t start = NowNs();
  auto elapsed = [start] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  // Every set-up starts from a trimmed heap, as a repetition does, so
  // each one pays the same first-touch faults for its sketch arenas.
  std::vector<double> setups;
  for (int i = 0; i < kSetupOnlyCycles; ++i) {
    malloc_trim(0);
    setups.push_back(SetupOnce(in));
  }
  // The ingest workloads ask one query per repetition; their latency
  // quantiles run over the repetitions' end-of-stream answers.
  const size_t queries = in.Queries();
  const size_t min_reps =
      queries > 1 ? std::max(kMinReps, (kMinAnswers + queries - 1) / queries)
                  : kMinReps;
  const double reps_start = elapsed();
  std::vector<double> rates, latencies, rss;
  for (int rep = 0;; ++rep) {
    double peak = 0;
    RepResult r = MeasuredRep(in, nullptr, rep, &peak);
    totals->Add(r);
    setups.push_back(r.setup_s);
    rates.push_back(TokensPerSecond(r));
    rss.push_back(peak);
    latencies.insert(latencies.end(), r.latency_ms.begin(),
                     r.latency_ms.end());
    std::printf("# rep %d: updates_per_s=%.0f setup_s=%.4f peak_rss_mb=%.1f "
                "answers=%zu\n",
                rep, rates.back(), r.setup_s, peak, r.latency_ms.size());
    // Stop at the repetition that ends nearest the time budget.
    const double per_rep = (elapsed() - reps_start) / (rep + 1);
    if (rates.size() >= min_reps && elapsed() + per_rep / 2 > seconds) {
      break;
    }
  }
  std::printf("# reps=%zu answers=%zu setup_samples=%zu\n", rates.size(),
              latencies.size(), setups.size());
  if (latencies.empty()) latencies.push_back(0);
  return {
      {"ingest_updates_per_s", Median(rates), "1/s"},
      {"answer_latency_ms_p50", Quantile(latencies, 0.5), "ms"},
      {"answer_latency_ms_p90", Quantile(latencies, 0.9), "ms"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", Median(rss), "MB"},
  };
}

std::map<std::string, double> PerLayer(const Inputs& in, double seconds,
                                       const std::string& trace_out,
                                       Totals* totals) {
  const int64_t start = NowNs();
  auto elapsed = [start] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  Tracer tracer;
  const ProbeResult probe = RunProbes(in, &tracer);
  if (in.kind == Kind::kServeSliding) {
    ProbeMake(in, &tracer);
  } else {
    ProbeCreate(in, &tracer);
  }
  // Untraced and traced repetitions alternate, so their ratio is the
  // tracing overhead under the same conditions.
  const double reps_start = elapsed();
  std::vector<double> plain_rates, traced_rates, rss;
  std::vector<RepResult> traced;
  for (int rep = 0;; ++rep) {
    const bool trace = rep % 2 == 1;
    double peak = 0;
    RepResult r = MeasuredRep(in, trace ? &tracer : nullptr, rep, &peak);
    totals->Add(r);
    if (trace) {
      traced_rates.push_back(TokensPerSecond(r));
      traced.push_back(std::move(r));
    } else {
      plain_rates.push_back(TokensPerSecond(r));
      rss.push_back(peak);
    }
    const double per_pair = 2 * (elapsed() - reps_start) / (rep + 1);
    if (trace && elapsed() + per_pair / 2 > seconds) break;
  }

  const std::vector<Span> spans = tracer.Snapshot();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> ms;  // span durations
  double push_self_ns = 0;
  std::vector<double> query_wait_ms;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;
    ms[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    if (std::strcmp(s.name, "driver.push") == 0) {
      push_self_ns += static_cast<double>(self[i]);
    } else if (std::strcmp(s.name, "query") == 0) {
      query_wait_ms.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  auto q = [&ms](const char* name, double quantile) {
    auto it = ms.find(name);
    return it == ms.end() || it->second.empty()
               ? 0.0
               : Quantile(it->second, quantile);
  };

  double tokens = 0, halves = 0, coalesced = 0, flushes = 0;
  double answered = 0, eager = 0;
  std::vector<double> skew;
  for (const RepResult& r : traced) {
    tokens += static_cast<double>(r.tokens);
    halves += static_cast<double>(r.halves);
    coalesced += static_cast<double>(r.coalesced);
    flushes += static_cast<double>(r.flushes);
    answered += static_cast<double>(r.answered);
    eager += static_cast<double>(r.eager_answered);
    double max = 0, sum = 0;
    for (uint64_t h : r.worker_halves) {
      max = std::max(max, static_cast<double>(h));
      sum += static_cast<double>(h);
    }
    skew.push_back(max / (sum / static_cast<double>(r.worker_halves.size())));
  }
  const double plain_rate = Median(plain_rates);
  const double hosted_mb = traced.back().hosted_bytes / 1e6;

  if (!trace_out.empty() && !tracer.WriteJsonLines(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }
  std::printf("# reps=%zu untraced + %zu traced, spans=%zu%s%s\n",
              plain_rates.size(), traced.size(), spans.size(),
              trace_out.empty() ? "" : " written to ", trace_out.c_str());
  if (query_wait_ms.empty()) query_wait_ms.push_back(0);
  return {
      {"sketch.hash_ns_per_id", probe.hash_ns_per_id},
      {"sketch.scatter_ns_per_half", probe.scatter_ns_per_half},
      {"core.apply_ns_per_half", probe.apply_ns_per_half},
      {"core.make_ms", q("core.make", 0.5)},
      {"core.decode_ms_p50", q("core.decode", 0.5)},
      {"core.decode_ms_p90", q("core.decode", 0.9)},
      {"driver.push_ns_per_update", push_self_ns / tokens},
      {"driver.final_drain_ms", q("driver.final_drain", 0.5)},
      {"driver.gutter_coalesced_share", coalesced / halves},
      {"driver.batch_entries_mean", (halves - coalesced) / flushes},
      {"driver.worker_skew", Median(skew)},
      {"driver.parallel_efficiency",
       plain_rate * 2 * probe.apply_ns_per_half * 1e-9 / WorkersOf(in.kind)},
      {"driver.snapshot_drain_ms_p50", q("driver.snapshot_drain", 0.5)},
      {"driver.snapshot_drain_ms_p90", q("driver.snapshot_drain", 0.9)},
      {"driver.snapshot_publish_ms_p50", q("driver.snapshot_publish", 0.5)},
      {"driver.snapshot_publish_ms_p90", q("driver.snapshot_publish", 0.9)},
      {"driver.query_wait_ms_p50", Quantile(query_wait_ms, 0.5)},
      {"driver.query_wait_ms_p90", Quantile(query_wait_ms, 0.9)},
      {"driver.eager_share", eager / answered},
      {"session.create_ms", q("session.create", 0.5)},
      {"session.hosted_mb", hosted_mb},
      {"session.rss_over_hosted", Median(rss) / hosted_mb},
      {"trace.overhead_share", Median(traced_rates) / plain_rate - 1},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const int nproc = NProc();
  const uint32_t workers = WorkersOf(spec->kind);
  const uint32_t query_threads = QueryThreadsOf(spec->kind);
  const uint32_t threads = 1 + workers + query_threads;
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("# host: nproc=%d kernel_backend=%s threads=%u (producer 1 + "
              "workers %u + query %u)\n",
              nproc, gsketch::CellKernelBackend(), threads, workers,
              query_threads);
  std::fflush(stdout);
  if (static_cast<int>(threads) > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u threads but nproc is %d; the "
                 "benchmark never runs more threads than CPUs\n",
                 spec->name, threads, nproc);
    return 3;
  }

  const Inputs in = MakeInputs(spec->kind, Shape(), args.seed);
  Totals totals;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(in, args.seconds, &totals);
    for (const Metric& m : metrics) {
      std::printf("%-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  } else {
    const std::map<std::string, double> values =
        PerLayer(in, args.seconds, args.trace_out, &totals);
    std::printf("%-31s %14s %-6s %-45s %s\n", "# layer metric", "value",
                "unit", "should move", "on");
    for (const LayerRow& row : kLayerRows) {
      metrics.push_back({row.name, values.at(row.name), row.unit});
      std::printf("%-31s %14.6f %-6s %-45s %s\n", row.name,
                  metrics.back().value, row.unit, row.moves, row.on);
    }
  }
  std::printf("failed_share %.6f (%llu of %llu answers failed)\n",
              static_cast<double>(totals.failed) /
                  static_cast<double>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              totals.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
