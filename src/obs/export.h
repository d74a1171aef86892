#pragma once

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/sync.h"
#include "obs/metrics.h"

/// \file export.h
/// Serialization of metrics snapshots. Two wire formats:
///
///  - Prometheus text exposition format (`# TYPE` headers, `_bucket{le=...}`
///    cumulative histogram series) — what a scrape endpoint would serve. A
///    registry name `family{labels}` is exported as a labelled series of
///    `family`: one `# TYPE` line per family, and the series' labels go
///    before `le` on each bucket sample.
///  - A line-oriented JSON document — what the periodic dump hook logs and
///    what tooling ingests.
///
/// Both formats are deterministic (snapshot maps are ordered) and both have
/// a parser, so snapshot -> text -> snapshot round-trips exactly; the golden
/// tests pin the byte format.

namespace hyperq::obs {

std::string ToPrometheusText(const MetricsSnapshot& snapshot);
std::string ToJson(const MetricsSnapshot& snapshot);

common::Result<MetricsSnapshot> FromPrometheusText(std::string_view text);
common::Result<MetricsSnapshot> FromJson(std::string_view text);

/// Lock-order graph dumps (see common::LockOrderGraph): the observed
/// rank-pair edges with counts, per-rank contention, and — when the edge
/// set contains a directed cycle — a "CYCLE DETECTED" marker plus the
/// witness path. Deterministic output; ci/check.sh greps the DOT artifact
/// for the cycle marker.
std::string LockGraphToDot(const common::LockOrderSnapshot& snapshot);
std::string LockGraphToJson(const common::LockOrderSnapshot& snapshot);

}  // namespace hyperq::obs
