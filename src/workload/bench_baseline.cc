#include "src/workload/bench_baseline.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gsketch {
namespace {

// Minimal cursor over the known BenchJson shape.
struct Cursor {
  const std::string& text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipWs();
    return pos < text.size() && text[pos] == c;
  }

  // Parses a double-quoted string (no escape handling: BenchJson never
  // emits escapes, and keys/titles are ASCII identifiers/phrases).
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    size_t start = pos;
    while (pos < text.size() && text[pos] != '"') ++pos;
    if (pos >= text.size()) return false;
    out->assign(text, start, pos - start);
    ++pos;
    return true;
  }

  bool Number(double* out) {
    SkipWs();
    const char* begin = text.c_str() + pos;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) return false;
    pos += static_cast<size_t>(end - begin);
    *out = v;
    return true;
  }
};

bool Fail(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool ParseInto(const std::string& text, BenchReport* report,
               std::string* error) {
  Cursor c{text};
  if (!c.Eat('{')) return Fail(error, "expected '{'");
  bool saw_metrics = false;
  while (!c.Peek('}')) {
    std::string key;
    if (!c.String(&key)) return Fail(error, "expected a quoted key");
    if (!c.Eat(':')) return Fail(error, "expected ':' after key");
    if (key == "metrics") {
      if (!c.Eat('{')) return Fail(error, "expected '{' after \"metrics\"");
      while (!c.Peek('}')) {
        std::string mkey;
        double mval = 0;
        if (!c.String(&mkey)) return Fail(error, "expected a metric key");
        if (!c.Eat(':')) return Fail(error, "expected ':' after metric key");
        if (!c.Number(&mval)) return Fail(error, "expected a metric value");
        report->metrics.emplace_back(mkey, mval);
        if (!c.Eat(',')) break;
      }
      if (!c.Eat('}')) return Fail(error, "unterminated metrics object");
      saw_metrics = true;
    } else {
      std::string sval;
      double nval = 0;
      if (c.Peek('"')) {
        if (!c.String(&sval)) return Fail(error, "bad string value");
        if (key == "bench") report->bench = sval;
        if (key == "title") report->title = sval;
      } else if (!c.Number(&nval)) {
        return Fail(error, "bad value");
      }
    }
    if (!c.Eat(',')) break;
  }
  if (!c.Eat('}')) return Fail(error, "unterminated top-level object");
  if (report->bench.empty()) return Fail(error, "missing \"bench\" field");
  if (!saw_metrics) return Fail(error, "missing \"metrics\" object");
  return true;
}

}  // namespace

std::optional<double> BenchReport::Metric(const std::string& key) const {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<BenchReport> ParseBenchReport(const std::string& text,
                                            std::string* error) {
  BenchReport report;
  if (!ParseInto(text, &report, error)) return std::nullopt;
  return report;
}

std::optional<BenchReport> ReadBenchReportFile(const std::string& path,
                                               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return ParseBenchReport(text, error);
}

namespace {

// The gate behind CompareBenchReports and CompareLayerCosts over the
// baseline keys `selected` accepts; `label` names them in the summary.
template <typename Selected>
BenchGateResult CompareSelected(const BenchReport& baseline,
                                const BenchReport& fresh,
                                double max_regress_pct, Selected selected,
                                const std::string& label,
                                bool lower_is_better, double abs_slack) {
  BenchGateResult result;
  char line[256];
  if (baseline.bench != fresh.bench) {
    std::snprintf(line, sizeof(line),
                  "MISMATCH  baseline is \"%s\" but fresh is \"%s\"",
                  baseline.bench.c_str(), fresh.bench.c_str());
    result.lines.emplace_back(line);
    result.ok = false;
    return result;
  }
  // Throughput gates a floor below baseline; latency a ceiling above it.
  const double bound_factor = lower_is_better
                                  ? 1.0 + max_regress_pct / 100.0
                                  : 1.0 - max_regress_pct / 100.0;
  // Latency values live in fractional units; %g keeps them readable where
  // the throughput format's %.0f would round 0.42 ms to 0.
  const char* ok_fmt = lower_is_better
                           ? "ok        %-40s %.4g -> %.4g (%+.1f%%)"
                           : "ok        %-40s %.0f -> %.0f (%+.1f%%)";
  const char* bad_fmt =
      lower_is_better
          ? "REGRESSION %-40s %.4g -> %.4g (%+.1f%%, ceiling %.4g)"
          : "REGRESSION %-40s %.0f -> %.0f (%+.1f%%, floor %.0f)";
  for (const auto& [key, base_val] : baseline.metrics) {
    if (!selected(key)) continue;
    ++result.keys_compared;
    auto fresh_val = fresh.Metric(key);
    if (!fresh_val.has_value()) {
      std::snprintf(line, sizeof(line),
                    "MISSING   %-40s baseline %.4g, absent from fresh run",
                    key.c_str(), base_val);
      result.lines.emplace_back(line);
      result.ok = false;
      continue;
    }
    const double bound = lower_is_better
                             ? base_val * bound_factor + abs_slack
                             : base_val * bound_factor;
    const double delta_pct =
        base_val != 0.0 ? (*fresh_val - base_val) / base_val * 100.0 : 0.0;
    const bool regressed =
        lower_is_better ? *fresh_val > bound : *fresh_val < bound;
    if (regressed) {
      std::snprintf(line, sizeof(line), bad_fmt, key.c_str(), base_val,
                    *fresh_val, delta_pct, bound);
      result.lines.emplace_back(line);
      result.ok = false;
    } else {
      std::snprintf(line, sizeof(line), ok_fmt, key.c_str(), base_val,
                    *fresh_val, delta_pct);
      result.lines.emplace_back(line);
    }
  }
  std::snprintf(line, sizeof(line),
                "%s: %zu \"%s\" key(s) compared, tolerance %c%.0f%%%s",
                result.ok ? "PASS" : "FAIL", result.keys_compared,
                label.c_str(), lower_is_better ? '+' : '-', max_regress_pct,
                abs_slack > 0.0 ? " plus slack" : "");
  result.lines.emplace_back(line);
  return result;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

BenchGateResult CompareBenchReports(const BenchReport& baseline,
                                    const BenchReport& fresh,
                                    double max_regress_pct,
                                    const std::string& key_prefix,
                                    bool lower_is_better,
                                    double abs_slack) {
  return CompareSelected(
      baseline, fresh, max_regress_pct,
      [&](const std::string& key) {
        return key.compare(0, key_prefix.size(), key_prefix) == 0;
      },
      key_prefix + "*", lower_is_better, abs_slack);
}

bool IsLayerCostKey(const std::string& key) {
  return EndsWith(key, "_refs_per_id") || EndsWith(key, "_refs_per_half");
}

BenchGateResult CompareLayerCosts(const BenchReport& baseline,
                                  const BenchReport& fresh,
                                  double max_regress_pct) {
  const auto base_lanes = baseline.Metric("kernel_lanes");
  const auto fresh_lanes = fresh.Metric("kernel_lanes");
  if (!base_lanes || !fresh_lanes || *base_lanes != *fresh_lanes) {
    BenchGateResult result;
    for (const auto& metric : baseline.metrics) {
      if (IsLayerCostKey(metric.first)) ++result.keys_skipped;
    }
    if (result.keys_skipped > 0) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "SKIP      %zu per-layer cost key(s): kernel_lanes %g "
                    "in the baseline, %g in the fresh run",
                    result.keys_skipped, base_lanes.value_or(0),
                    fresh_lanes.value_or(0));
      result.lines.emplace_back(line);
    }
    return result;
  }
  return CompareSelected(baseline, fresh, max_regress_pct, &IsLayerCostKey,
                         "*_refs_per_id|*_refs_per_half",
                         /*lower_is_better=*/true, /*abs_slack=*/0.0);
}

}  // namespace gsketch
