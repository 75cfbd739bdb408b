#include "journal/checkpoint.hpp"

namespace h2r::journal {

namespace {

/// Strict non-negative integer field parse: rejects missing keys,
/// doubles, and negative values instead of defaulting to zero.
util::Expected<std::uint64_t> parse_count(const json::Value& object,
                                          const char* key) {
  const json::Value& field = object[key];
  if (!field.is_int() || field.as_int() < 0) {
    return util::unexpected(
        util::Error{std::string("bad or missing counter '") + key + "'"});
  }
  return static_cast<std::uint64_t>(field.as_int());
}

template <typename Struct>
struct CounterField {
  const char* key;
  std::uint64_t Struct::*member;
};

constexpr CounterField<har::ImportStats> kImportStatFields[] = {
    {"total_entries", &har::ImportStats::total_entries},
    {"h2_entries", &har::ImportStats::h2_entries},
    {"used_entries", &har::ImportStats::used_entries},
    {"socket_zero", &har::ImportStats::socket_zero},
    {"missing_ip", &har::ImportStats::missing_ip},
    {"inconsistent_ip", &har::ImportStats::inconsistent_ip},
    {"invalid_method", &har::ImportStats::invalid_method},
    {"invalid_version", &har::ImportStats::invalid_version},
    {"invalid_status", &har::ImportStats::invalid_status},
    {"wrong_pageref", &har::ImportStats::wrong_pageref},
    {"missing_request_id", &har::ImportStats::missing_request_id},
    {"missing_certificate", &har::ImportStats::missing_certificate},
    {"h1_entries", &har::ImportStats::h1_entries},
    {"h3_entries", &har::ImportStats::h3_entries},
};

constexpr CounterField<browser::CrawlSummary> kSummaryFields[] = {
    {"sites_visited", &browser::CrawlSummary::sites_visited},
    {"sites_unreachable", &browser::CrawlSummary::sites_unreachable},
    {"connections_opened", &browser::CrawlSummary::connections_opened},
    {"group_reuses", &browser::CrawlSummary::group_reuses},
    {"alias_reuses", &browser::CrawlSummary::alias_reuses},
    {"origin_frame_reuses", &browser::CrawlSummary::origin_frame_reuses},
    {"misdirected_retries", &browser::CrawlSummary::misdirected_retries},
};

}  // namespace

json::Value to_json(const har::ImportStats& stats) {
  json::Object object;
  for (const auto& field : kImportStatFields) {
    object.set(field.key, static_cast<std::int64_t>(stats.*field.member));
  }
  return json::Value{std::move(object)};
}

util::Expected<har::ImportStats> import_stats_from_json(
    const json::Value& value) {
  if (!value.is_object()) {
    return util::unexpected(util::Error{"import stats must be an object"});
  }
  har::ImportStats stats;
  for (const auto& field : kImportStatFields) {
    auto parsed = parse_count(value, field.key);
    if (!parsed) return util::unexpected(parsed.error());
    stats.*field.member = parsed.value();
  }
  return stats;
}

json::Value to_json(const browser::CrawlSummary& summary) {
  json::Object object;
  for (const auto& field : kSummaryFields) {
    object.set(field.key, static_cast<std::int64_t>(summary.*field.member));
  }
  object.set("failures", core::to_json(summary.failures));
  object.set("har_stats", to_json(summary.har_stats));
  return json::Value{std::move(object)};
}

util::Expected<browser::CrawlSummary> crawl_summary_from_json(
    const json::Value& value) {
  if (!value.is_object()) {
    return util::unexpected(util::Error{"crawl summary must be an object"});
  }
  browser::CrawlSummary summary;
  for (const auto& field : kSummaryFields) {
    auto parsed = parse_count(value, field.key);
    if (!parsed) return util::unexpected(parsed.error());
    summary.*field.member = parsed.value();
  }
  auto failures = core::failure_summary_from_json(value["failures"]);
  if (!failures) return util::unexpected(failures.error());
  summary.failures = failures.value();
  auto har_stats = import_stats_from_json(value["har_stats"]);
  if (!har_stats) return util::unexpected(har_stats.error());
  summary.har_stats = har_stats.value();
  return summary;
}

std::size_t ChunkCheckpoint::site_count() const noexcept {
  std::size_t total = 0;
  for (const auto& [first, count] : ranges) {
    (void)first;
    total += count;
  }
  return total;
}

json::Value to_json(const ChunkCheckpoint& chunk) {
  json::Object object;
  object.set("campaign", chunk.campaign);
  json::Array ranges;
  for (const auto& [first, count] : chunk.ranges) {
    json::Array range;
    range.push_back(json::Value{static_cast<std::int64_t>(first)});
    range.push_back(json::Value{static_cast<std::int64_t>(count)});
    ranges.push_back(json::Value{std::move(range)});
  }
  object.set("ranges", json::Value{std::move(ranges)});
  object.set("summary", to_json(chunk.summary));
  json::Object reports;
  for (const auto& [name, report] : chunk.reports) {
    reports.set(name, core::report_to_json(
                              report, {core::Fidelity::kFull, core::kAllRows}));
  }
  object.set("reports", json::Value{std::move(reports)});
  if (!chunk.tallies.empty()) {
    json::Object tallies;
    for (const auto& [name, tally] : chunk.tallies) {
      tallies.set(name, core::to_json(tally));
    }
    object.set("tallies", json::Value{std::move(tallies)});
  }
  object.set("overlap_sites",
             static_cast<std::int64_t>(chunk.overlap_sites));
  return json::Value{std::move(object)};
}

util::Expected<ChunkCheckpoint> chunk_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return util::unexpected(util::Error{"chunk must be an object"});
  }
  ChunkCheckpoint chunk;
  if (!value["campaign"].is_string() ||
      value["campaign"].as_string().empty()) {
    return util::unexpected(util::Error{"chunk without a campaign name"});
  }
  chunk.campaign = value["campaign"].as_string();

  const json::Value& ranges = value["ranges"];
  if (!ranges.is_array() || ranges.as_array().empty()) {
    return util::unexpected(util::Error{"chunk without rank ranges"});
  }
  for (const json::Value& range : ranges.as_array()) {
    if (!range.is_array() || range.as_array().size() != 2 ||
        !range.at(0).is_int() || !range.at(1).is_int() ||
        range.at(0).as_int() < 0 || range.at(1).as_int() <= 0) {
      return util::unexpected(util::Error{"malformed chunk rank range"});
    }
    chunk.ranges.emplace_back(static_cast<std::size_t>(range.at(0).as_int()),
                              static_cast<std::size_t>(range.at(1).as_int()));
  }

  auto summary = crawl_summary_from_json(value["summary"]);
  if (!summary) return util::unexpected(summary.error());
  chunk.summary = summary.value();

  const json::Value& reports = value["reports"];
  if (!reports.is_object()) {
    return util::unexpected(util::Error{"chunk without a reports object"});
  }
  for (const auto& [name, report_json] : reports.as_object()) {
    auto report = core::report_from_json(report_json);
    if (!report) return util::unexpected(report.error());
    chunk.reports.emplace_back(name, std::move(report.value()));
  }

  // Optional: policy-replay tallies (absent in study journals).
  const json::Value& tallies = value["tallies"];
  if (!tallies.is_null()) {
    if (!tallies.is_object()) {
      return util::unexpected(util::Error{"chunk tallies must be an object"});
    }
    for (const auto& [name, tally_json] : tallies.as_object()) {
      auto tally = core::policy_tally_from_json(tally_json);
      if (!tally) return util::unexpected(tally.error());
      chunk.tallies.emplace_back(name, std::move(tally.value()));
    }
  }

  auto overlap = parse_count(value, "overlap_sites");
  if (!overlap) return util::unexpected(overlap.error());
  chunk.overlap_sites = overlap.value();
  return chunk;
}

}  // namespace h2r::journal
