#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

namespace hyperq::obs {

using common::Result;
using common::Status;

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  // %.17g round-trips every finite double through strtod.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatBound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

/// A registry name is a metric family, optionally followed by its label set:
/// `hyperq_lock_wait_seconds{rank="kObs"}` is the `rank="kObs"` series of the
/// `hyperq_lock_wait_seconds` family.
struct SeriesName {
  std::string family;
  std::string labels;  ///< inside of the braces; empty when unlabelled
};

SeriesName SplitSeriesName(const std::string& name) {
  size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace), name.substr(brace + 1, name.size() - brace - 2)};
}

std::string JoinSeriesName(const std::string& family, const std::string& labels) {
  return labels.empty() ? family : family + "{" + labels + "}";
}

/// Groups a snapshot map by family so each family gets one `# TYPE` line and
/// its labelled series are emitted together, in registry-name order.
template <typename V>
std::map<std::string, std::vector<std::pair<std::string, const V*>>> ByFamily(
    const std::map<std::string, V>& series) {
  std::map<std::string, std::vector<std::pair<std::string, const V*>>> families;
  for (const auto& [name, value] : series) {
    SeriesName split = SplitSeriesName(name);
    families[split.family].emplace_back(split.labels, &value);
  }
  return families;
}

/// `family<suffix>{labels,extra}`, dropping empty parts.
std::string SampleName(const std::string& family, std::string_view suffix,
                       const std::string& labels, const std::string& extra = "") {
  std::string all = labels;
  if (!all.empty() && !extra.empty()) all += ",";
  all += extra;
  return JoinSeriesName(family + std::string(suffix), all);
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [family, series] : ByFamily(snapshot.counters)) {
    out += "# TYPE " + family + " counter\n";
    for (const auto& [labels, value] : series) {
      out += SampleName(family, "", labels) + " " + std::to_string(*value) + "\n";
    }
  }
  for (const auto& [family, series] : ByFamily(snapshot.gauges)) {
    out += "# TYPE " + family + " gauge\n";
    for (const auto& [labels, value] : series) {
      out += SampleName(family, "", labels) + " " + std::to_string(*value) + "\n";
    }
  }
  const auto& bounds = Histogram::BucketBounds();
  for (const auto& [family, series] : ByFamily(snapshot.histograms)) {
    out += "# TYPE " + family + " histogram\n";
    for (const auto& [labels, hist] : series) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < hist->buckets.size(); ++i) {
        cumulative += hist->buckets[i];
        std::string le = i < bounds.size() ? FormatBound(bounds[i]) : std::string("+Inf");
        out += SampleName(family, "_bucket", labels, "le=\"" + le + "\"") + " " +
               std::to_string(cumulative) + "\n";
      }
      out += SampleName(family, "_sum", labels) + " " + FormatDouble(hist->sum) + "\n";
      out += SampleName(family, "_count", labels) + " " + std::to_string(hist->count) + "\n";
    }
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    out += "    ";
    AppendQuoted(&out, name);
    out += ": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    out += "    ";
    AppendQuoted(&out, name);
    out += ": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    out += "    ";
    AppendQuoted(&out, name);
    out += ": {\"count\": " + std::to_string(hist.count);
    out += ", \"sum\": " + FormatDouble(hist.sum);
    out += ", \"p50\": " + FormatDouble(hist.p50());
    out += ", \"p95\": " + FormatDouble(hist.p95());
    out += ", \"p99\": " + FormatDouble(hist.p99());
    out += ", \"buckets\": [";
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += std::to_string(hist.buckets[i]);
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Lock-order graph dumps
// ---------------------------------------------------------------------------

std::string LockGraphToDot(const common::LockOrderSnapshot& snapshot) {
  std::string out = "digraph lock_order {\n";
  out += "  // edge A -> B: a thread acquired B while holding A\n";
  for (const common::LockOrderEdge& edge : snapshot.edges) {
    out += std::string("  ") + common::LockRankName(edge.holder) + " -> " +
           common::LockRankName(edge.acquired) + " [label=\"" + std::to_string(edge.count) +
           "\"];\n";
  }
  // Per-instance refinement: which named mutexes actually travelled the rank
  // edges above. Quoted nodes keep them distinct from the rank identifiers,
  // so the same DOT stays parseable at both granularities.
  for (const common::LockOrderNameEdge& edge : snapshot.name_edges) {
    out += "  \"" + edge.holder + "\" -> \"" + edge.acquired + "\" [label=\"" +
           std::to_string(edge.count) + "\"];\n";
  }
  if (snapshot.dropped_name_edges != 0) {
    out += "  // name edges dropped (slot table full): " +
           std::to_string(snapshot.dropped_name_edges) + "\n";
  }
  for (int r = 0; r < common::kNumLockRanks; ++r) {
    if (snapshot.contention[r] == 0) continue;
    out += std::string("  ") + common::LockRankName(static_cast<common::LockRank>(r)) +
           " [xlabel=\"contended " + std::to_string(snapshot.contention[r]) + "\"];\n";
  }
  if (snapshot.has_cycle) {
    out += "  // CYCLE DETECTED:";
    for (common::LockRank rank : snapshot.cycle) {
      out += std::string(" ") + common::LockRankName(rank);
    }
    out += "\n";
  } else {
    out += "  // cycles: none\n";
  }
  out += "}\n";
  return out;
}

std::string LockGraphToJson(const common::LockOrderSnapshot& snapshot) {
  std::string out = "{\n  \"edges\": [";
  bool first = true;
  for (const common::LockOrderEdge& edge : snapshot.edges) {
    out += first ? "\n" : ",\n";
    out += std::string("    {\"holder\": \"") + common::LockRankName(edge.holder) +
           "\", \"acquired\": \"" + common::LockRankName(edge.acquired) +
           "\", \"count\": " + std::to_string(edge.count) + "}";
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"name_edges\": [";
  first = true;
  for (const common::LockOrderNameEdge& edge : snapshot.name_edges) {
    out += first ? "\n" : ",\n";
    out += std::string("    {\"holder\": \"") + edge.holder + "\", \"acquired\": \"" +
           edge.acquired + "\", \"count\": " + std::to_string(edge.count) + "}";
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"dropped_name_edges\": " + std::to_string(snapshot.dropped_name_edges) + ",\n";
  out += "  \"contention\": {";
  first = true;
  for (int r = 0; r < common::kNumLockRanks; ++r) {
    if (snapshot.contention[r] == 0) continue;
    out += first ? "\n" : ",\n";
    out += std::string("    \"") + common::LockRankName(static_cast<common::LockRank>(r)) +
           "\": " + std::to_string(snapshot.contention[r]);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += std::string("  \"has_cycle\": ") + (snapshot.has_cycle ? "true" : "false");
  if (snapshot.has_cycle) {
    out += ",\n  \"cycle\": [";
    for (size_t i = 0; i < snapshot.cycle.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::string("\"") + common::LockRankName(snapshot.cycle[i]) + "\"";
    }
    out += "]";
  }
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus text parser
// ---------------------------------------------------------------------------

namespace {

/// One `name{labels} value` sample line; value kept as text for typed
/// reparse. A histogram bucket's `le` label is dropped from the label set:
/// the bucket's position in its series already gives its bound.
struct SampleLine {
  std::string name;    ///< sample name without its label set
  std::string labels;  ///< label set without `le`; empty when none
  std::string value;
};

Result<SampleLine> ParseSampleLine(std::string_view line) {
  SampleLine sample;
  size_t brace = line.find('{');
  size_t space = line.find(' ');
  if (space == std::string_view::npos) {
    return Status::Invalid("malformed metric line: " + std::string(line));
  }
  if (brace != std::string_view::npos && brace < space) {
    sample.name = std::string(line.substr(0, brace));
    size_t close = line.rfind('}');
    if (close == std::string_view::npos || close < brace) {
      return Status::Invalid("unterminated label set: " + std::string(line));
    }
    sample.labels = std::string(line.substr(brace + 1, close - brace - 1));
    // ToPrometheusText writes `le` last, after the series' own labels.
    constexpr std::string_view kLe = "le=\"";
    size_t le_pos = sample.labels.rfind(kLe);
    if (le_pos != std::string::npos && (le_pos == 0 || sample.labels[le_pos - 1] == ',')) {
      if (sample.labels.find('"', le_pos + kLe.size()) == std::string::npos) {
        return Status::Invalid("unterminated le label: " + std::string(line));
      }
      sample.labels.erase(le_pos == 0 ? 0 : le_pos - 1);
    }
    space = line.find(' ', close);
    if (space == std::string_view::npos) {
      return Status::Invalid("missing value: " + std::string(line));
    }
  } else {
    sample.name = std::string(line.substr(0, space));
  }
  sample.value = std::string(line.substr(space + 1));
  return sample;
}

bool ConsumeSuffix(const std::string& name, std::string_view suffix, std::string* base) {
  if (name.size() <= suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  *base = name.substr(0, name.size() - suffix.size());
  return true;
}

}  // namespace

Result<MetricsSnapshot> FromPrometheusText(std::string_view text) {
  MetricsSnapshot snap;
  std::string current_family;
  std::string current_kind;
  // Histogram bucket series arrive cumulative; difference them on the fly,
  // restarting at each labelled series of the family.
  std::string current_series;
  uint64_t prev_cumulative = 0;

  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      constexpr std::string_view kType = "# TYPE ";
      if (line.substr(0, kType.size()) != kType) continue;  // ignore HELP etc.
      std::string_view rest = line.substr(kType.size());
      size_t space = rest.find(' ');
      if (space == std::string_view::npos) {
        return Status::Invalid("malformed TYPE line: " + std::string(line));
      }
      current_family = std::string(rest.substr(0, space));
      current_kind = std::string(rest.substr(space + 1));
      current_series.clear();
      continue;
    }
    HQ_ASSIGN_OR_RETURN(SampleLine sample, ParseSampleLine(line));
    if (current_kind == "counter" && sample.name == current_family) {
      snap.counters[JoinSeriesName(sample.name, sample.labels)] =
          std::strtoull(sample.value.c_str(), nullptr, 10);
    } else if (current_kind == "gauge" && sample.name == current_family) {
      snap.gauges[JoinSeriesName(sample.name, sample.labels)] =
          std::strtoll(sample.value.c_str(), nullptr, 10);
    } else if (current_kind == "histogram") {
      std::string base;
      std::string series;
      if (ConsumeSuffix(sample.name, "_bucket", &base) && base == current_family) {
        series = JoinSeriesName(base, sample.labels);
        if (series != current_series) {
          current_series = series;
          prev_cumulative = 0;
        }
        uint64_t cumulative = std::strtoull(sample.value.c_str(), nullptr, 10);
        auto& hist = snap.histograms[series];
        if (cumulative < prev_cumulative) {
          return Status::Invalid("non-monotonic bucket series for " + series);
        }
        hist.buckets.push_back(cumulative - prev_cumulative);
        prev_cumulative = cumulative;
      } else if (ConsumeSuffix(sample.name, "_sum", &base) && base == current_family) {
        snap.histograms[JoinSeriesName(base, sample.labels)].sum =
            std::strtod(sample.value.c_str(), nullptr);
      } else if (ConsumeSuffix(sample.name, "_count", &base) && base == current_family) {
        snap.histograms[JoinSeriesName(base, sample.labels)].count =
            std::strtoull(sample.value.c_str(), nullptr, 10);
      } else {
        return Status::Invalid("unexpected sample in histogram block: " + sample.name);
      }
    } else {
      return Status::Invalid("sample without matching TYPE: " + sample.name);
    }
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (hist.buckets.size() != Histogram::NumBuckets()) {
      return Status::Invalid("histogram " + name + " has " +
                             std::to_string(hist.buckets.size()) + " buckets, expected " +
                             std::to_string(Histogram::NumBuckets()));
    }
  }
  return snap;
}

// ---------------------------------------------------------------------------
// JSON parser (minimal: objects, arrays, strings, numbers — the subset
// ToJson emits; unknown keys are skipped so the format can grow fields)
// ---------------------------------------------------------------------------

namespace {

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  Status Expect(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::Invalid("expected '" + std::string(1, c) + "' at offset " +
                             std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  bool TryConsume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    HQ_RETURN_NOT_OK(Expect('"'));
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out.push_back(c);
    }
    HQ_RETURN_NOT_OK(Expect('"'));
    return out;
  }

  Result<double> ParseNumber() {
    SkipWs();
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) {
      return Status::Invalid("expected number at offset " + std::to_string(pos_));
    }
    pos_ += static_cast<size_t>(end - begin);
    return v;
  }

  /// Skips one value of any supported kind (tolerates future extra keys).
  Status SkipValue() {
    SkipWs();
    if (Peek('"')) return ParseString().status();
    if (TryConsume('{')) {
      if (TryConsume('}')) return Status::OK();
      do {
        HQ_RETURN_NOT_OK(ParseString().status());
        HQ_RETURN_NOT_OK(Expect(':'));
        HQ_RETURN_NOT_OK(SkipValue());
      } while (TryConsume(','));
      return Expect('}');
    }
    if (TryConsume('[')) {
      if (TryConsume(']')) return Status::OK();
      do {
        HQ_RETURN_NOT_OK(SkipValue());
      } while (TryConsume(','));
      return Expect(']');
    }
    return ParseNumber().status();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Status ParseHistogramObject(JsonCursor* cur, HistogramSnapshot* hist) {
  HQ_RETURN_NOT_OK(cur->Expect('{'));
  if (cur->TryConsume('}')) return Status::OK();
  do {
    HQ_ASSIGN_OR_RETURN(std::string key, cur->ParseString());
    HQ_RETURN_NOT_OK(cur->Expect(':'));
    if (key == "count") {
      HQ_ASSIGN_OR_RETURN(double v, cur->ParseNumber());
      hist->count = static_cast<uint64_t>(v);
    } else if (key == "sum") {
      HQ_ASSIGN_OR_RETURN(hist->sum, cur->ParseNumber());
    } else if (key == "buckets") {
      HQ_RETURN_NOT_OK(cur->Expect('['));
      hist->buckets.clear();
      if (!cur->TryConsume(']')) {
        do {
          HQ_ASSIGN_OR_RETURN(double v, cur->ParseNumber());
          hist->buckets.push_back(static_cast<uint64_t>(v));
        } while (cur->TryConsume(','));
        HQ_RETURN_NOT_OK(cur->Expect(']'));
      }
    } else {
      HQ_RETURN_NOT_OK(cur->SkipValue());  // p50/p95/p99 are derived
    }
  } while (cur->TryConsume(','));
  return cur->Expect('}');
}

}  // namespace

Result<MetricsSnapshot> FromJson(std::string_view text) {
  JsonCursor cur(text);
  MetricsSnapshot snap;
  HQ_RETURN_NOT_OK(cur.Expect('{'));
  if (cur.TryConsume('}')) return snap;
  do {
    HQ_ASSIGN_OR_RETURN(std::string section, cur.ParseString());
    HQ_RETURN_NOT_OK(cur.Expect(':'));
    if (section == "counters" || section == "gauges") {
      HQ_RETURN_NOT_OK(cur.Expect('{'));
      if (!cur.TryConsume('}')) {
        do {
          HQ_ASSIGN_OR_RETURN(std::string name, cur.ParseString());
          HQ_RETURN_NOT_OK(cur.Expect(':'));
          HQ_ASSIGN_OR_RETURN(double v, cur.ParseNumber());
          if (section == "counters") {
            snap.counters[name] = static_cast<uint64_t>(v);
          } else {
            snap.gauges[name] = static_cast<int64_t>(v);
          }
        } while (cur.TryConsume(','));
        HQ_RETURN_NOT_OK(cur.Expect('}'));
      }
    } else if (section == "histograms") {
      HQ_RETURN_NOT_OK(cur.Expect('{'));
      if (!cur.TryConsume('}')) {
        do {
          HQ_ASSIGN_OR_RETURN(std::string name, cur.ParseString());
          HQ_RETURN_NOT_OK(cur.Expect(':'));
          HQ_RETURN_NOT_OK(ParseHistogramObject(&cur, &snap.histograms[name]));
        } while (cur.TryConsume(','));
        HQ_RETURN_NOT_OK(cur.Expect('}'));
      }
    } else {
      HQ_RETURN_NOT_OK(cur.SkipValue());
    }
  } while (cur.TryConsume(','));
  HQ_RETURN_NOT_OK(cur.Expect('}'));
  return snap;
}

}  // namespace hyperq::obs
