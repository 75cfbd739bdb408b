// JSON serialization of analysis results — the machine-readable side of
// the toolkit (the `h2r` CLI's --json mode, CI pipelines diffing audits).
#pragma once

#include "core/advisor.hpp"
#include "core/classify.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"

namespace h2r::core {

/// Untruncated `top_n` for report_to_json: every attribution row is
/// emitted.
inline constexpr std::size_t kAllRows = static_cast<std::size_t>(-1);

/// How much of an AggregateReport the serializer keeps.
enum class Fidelity {
  /// The human/CI-facing shape: per-cause tallies, the Figure 2 histogram
  /// and the attribution tables truncated to the top rows; previous-origin
  /// maps and domain sets are summarized, so this shape is NOT losslessly
  /// parseable.
  kTruncated,
  /// The lossless journal shape: every attribution row with its complete
  /// previous-origin map, full domain sets and the raw TimeHistogram
  /// sample multisets. report_from_json(x) round-trips this shape exactly
  /// (tests/report_json_test.cpp pins it).
  kFull,
};

struct ReportJsonOptions {
  Fidelity fidelity = Fidelity::kTruncated;
  /// Attribution-table row cap; only the truncated shape consults it
  /// (kFull is always complete). kAllRows = untruncated tables.
  std::size_t top_n = 20;
};

/// THE aggregate-report serializer; options.fidelity selects the shape.
json::Value report_to_json(const AggregateReport& report,
                           const ReportJsonOptions& options = {});

/// Strict parser for the Fidelity::kFull shape. Rejects malformed documents:
/// missing/mistyped fields, non-integer or negative counters (doubles and
/// NaN included), unknown cause names.
util::Expected<AggregateReport> report_from_json(const json::Value& value);

/// TimeHistogram (sample multiset) <-> JSON: array of [value_ms, count]
/// pairs, ordered by value. The parser rejects non-integer values,
/// non-positive counts and unsorted/duplicate entries.
json::Value histogram_to_json(const stats::TimeHistogram& histogram);
util::Expected<stats::TimeHistogram> histogram_from_json(
    const json::Value& value);

/// Strict parser for to_json(FailureSummary) output (the fault ledger).
util::Expected<fault::FailureSummary> failure_summary_from_json(
    const json::Value& value);

/// One site's classification -> JSON (per-connection findings with causes
/// and reusable previous origins).
json::Value to_json(const SiteClassification& classification);

/// Audit report -> JSON (advice items with cause/remedy/volume).
json::Value to_json(const AuditReport& report);

/// Policy replay tally <-> JSON (DESIGN §14). The parser is strict, like
/// report_from_json: journal checkpoints carry these per policy point.
json::Value to_json(const PolicyTally& tally);
util::Expected<PolicyTally> policy_tally_from_json(const json::Value& value);

/// Fault-layer ledger -> JSON: per-kind injected counts plus the fetch /
/// retry / degradation counters. Serialized alongside the crawl summary
/// so chaos runs diff cleanly in CI.
json::Value to_json(const fault::FailureSummary& summary);

}  // namespace h2r::core
