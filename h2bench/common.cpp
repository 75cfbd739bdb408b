#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "core/report_json.hpp"
#include "dns/vantage.hpp"
#include "har/export.hpp"
#include "har/import.hpp"
#include "netlog/stitch.hpp"
#include "util/rng.hpp"

namespace h2bench {

double now_ms() {
  // h2r-lint: allow(ban.clock) -- benchmark timing is what this reads;
  // no timing ever feeds a digested output.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

namespace {

/// One thread's share of the reference loop.
void reference_work() {
  constexpr std::uint64_t kKeys = 12000;
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::string key =
        std::to_string(x % 1000003) + "." + std::to_string(i % 97);
    counts[key] += i;
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  // Keep the work observable so the optimizer cannot drop it.
  static std::atomic<std::size_t> sink{0};
  sink.fetch_add(counts.size() + keys.front().size(),
                 std::memory_order_relaxed);
}

}  // namespace

double reference_loop_ms(unsigned threads) {
  const double start = now_ms();
  std::vector<std::thread> others;
  for (unsigned t = 1; t < threads; ++t) others.emplace_back(reference_work);
  reference_work();
  for (std::thread& thread : others) thread.join();
  return now_ms() - start;
}

std::string digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// ----------------------------------------------------------------- world

World make_world(std::uint64_t seed, std::size_t top_rank,
                 std::size_t tail_rank) {
  World world;
  world.eco = std::make_unique<web::Ecosystem>(seed);
  world.catalog = std::make_unique<web::ServiceCatalog>(*world.eco, seed);
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = seed;
  config.top_rank = std::max<std::size_t>(top_rank, 1);
  config.tail_rank = std::max<std::size_t>(tail_rank, 2);
  world.universe =
      std::make_unique<web::SiteUniverse>(*world.eco, *world.catalog, config);
  return world;
}

// -------------------------------------------------------------- campaigns

// The three campaign configurations mirror experiments::run_study.

Campaign alexa_campaign(std::uint64_t seed, std::size_t sites) {
  Campaign c;
  c.name = "alexa";
  c.options.browser.follow_fetch_credentials = true;
  c.options.browser.vantage_region = "eu";
  c.options.vantage_index = 0;
  c.options.seed = seed + 1;
  c.options.start_time = util::days(1);
  c.options.stream = true;
  c.count = sites;
  return c;
}

Campaign nofetch_campaign(std::uint64_t seed, std::size_t sites) {
  Campaign c = alexa_campaign(seed, sites);
  c.name = "nofetch";
  c.options.browser.follow_fetch_credentials = false;
  c.options.seed = seed + 2;
  c.options.start_time = util::days(4);
  return c;
}

Campaign har_campaign(std::uint64_t seed, std::size_t first_rank,
                      std::size_t sites) {
  Campaign c;
  c.name = "har";
  c.options.browser.follow_fetch_credentials = true;
  c.options.browser.vantage_region = "us";
  c.options.vantage_index = 12;
  c.options.seed = seed + 3;
  c.options.start_time = util::days(8);
  c.options.har_path = true;
  c.options.stream = true;
  c.first_rank = first_rank;
  c.count = sites;
  return c;
}

Shard::Shard(const Campaign& campaign, const asdb::AsDatabase* as_db)
    : campaign_(&campaign), as_db_(as_db) {
  reset();
}

void Shard::reset() {
  reports_.clear();
  std::vector<std::string> names;
  if (campaign_->name == "alexa") {
    names = {"exact", "endless", "overlap"};
  } else if (campaign_->name == "nofetch") {
    names = {"exact"};
  } else {
    names = {"endless", "immediate", "overlap"};
  }
  for (std::string& name : names) {
    reports_.emplace_back(std::move(name), core::Aggregator(as_db_));
  }
  overlap_sites_ = 0;
}

void Shard::add(const browser::SiteResult& site, Tracer* tracer) {
  if (!site.reachable) return;
  const bool har = campaign_->name == "har";
  const core::SiteObservation& obs =
      har ? site.har_observation : site.netlog_observation;
  const bool overlap = site.rank >= campaign_->overlap_begin &&
                       site.rank < campaign_->overlap_end;
  timed(tracer, Layer::kCorePrepare, [&] { classify_.prepare(obs); });
  // Same sweeps, same order as run_study's shard sinks.
  if (campaign_->name == "alexa" || campaign_->name == "nofetch") {
    const core::SiteClassification exact = timed(
        tracer, Layer::kCoreClassify,
        [&] { return classify_.classify({core::DurationModel::kExact}); });
    redundant_ += exact.redundant_connections();
    total_ += exact.total_connections;
    timed(tracer, Layer::kCoreAggregate,
          [&] { report(0).add_site(obs, exact); });
    if (campaign_->name == "nofetch") return;
    const core::SiteClassification endless = timed(
        tracer, Layer::kCoreClassify,
        [&] { return classify_.classify({core::DurationModel::kEndless}); });
    timed(tracer, Layer::kCoreAggregate, [&] {
      report(1).add_site(obs, endless);
      if (overlap) report(2).add_site(obs, endless);
    });
    return;
  }
  const core::SiteClassification endless = timed(
      tracer, Layer::kCoreClassify,
      [&] { return classify_.classify({core::DurationModel::kEndless}); });
  redundant_ += endless.redundant_connections();
  total_ += endless.total_connections;
  const core::SiteClassification immediate = timed(
      tracer, Layer::kCoreClassify,
      [&] { return classify_.classify({core::DurationModel::kImmediate}); });
  timed(tracer, Layer::kCoreAggregate, [&] {
    report(0).add_site(obs, endless);
    report(1).add_site(obs, immediate);
    if (overlap) {
      ++overlap_sites_;
      report(2).add_site(obs, endless);
    }
  });
}

void account(browser::CrawlSummary& summary,
             const browser::SiteResult& site) {
  summary.failures.add(site.page.failures);
  if (!site.reachable) {
    ++summary.sites_unreachable;
    return;
  }
  ++summary.sites_visited;
  summary.connections_opened += site.page.connections_opened;
  summary.group_reuses += site.page.group_reuses;
  summary.alias_reuses += site.page.alias_reuses;
  summary.origin_frame_reuses += site.page.origin_frame_reuses;
  summary.misdirected_retries += site.page.misdirected_retries;
  summary.har_stats.add(site.har_stats);
}

TracedWorker::TracedWorker(web::SiteUniverse& universe_ref,
                           const Campaign& campaign_ref)
    : universe(&universe_ref),
      campaign(&campaign_ref),
      resolver(dns::standard_vantage_points().at(
                   campaign_ref.options.vantage_index),
               &universe_ref.ecosystem().authority()),
      replay_resolver(dns::standard_vantage_points().at(
                          campaign_ref.options.vantage_index),
                      &universe_ref.ecosystem().authority()),
      browser(universe_ref.ecosystem(), resolver,
              campaign_ref.options.browser, campaign_ref.options.seed) {
  resolver.set_metrics(&metrics);
  browser.set_metrics(&metrics);
}

namespace {

/// The hosts a page load looks up, in document order: the landing domain,
/// then every resource (children after their parent) as seen from the
/// campaign's region.
void collect_hosts(const std::vector<web::Resource>& resources,
                   const std::string& region,
                   std::vector<const std::string*>& hosts) {
  for (const web::Resource& resource : resources) {
    hosts.push_back(&resource.domain_for(region));
    collect_hosts(resource.children, region, hosts);
  }
}

}  // namespace

void TracedWorker::load(std::size_t rank, util::SimTime when,
                        browser::SiteResult& out, Tracer& tracer) {
  out.rank = rank;
  if (universe->unreachable(rank)) {
    out.reachable = false;
    return;
  }
  const web::Website site = tracer.span(
      Layer::kWebGenerate, [&] { return universe->generate_site(rank); });
  out.page = tracer.span(Layer::kBrowserLoad, [&] {
    resolver.flush_cache();
    return browser.load(site, when);
  });
  out.reachable = out.page.reachable;

  // Replays of work Browser::load does inside: the page's lookups from a
  // cold cache, and the stitch of its NetLog.
  tracer.span(Layer::kDnsReplay, [&] {
    std::vector<const std::string*> hosts{&site.landing_domain};
    collect_hosts(site.resources,
                  campaign->options.browser.vantage_region, hosts);
    replay_resolver.flush_cache();
    replay_resolver.set_overlay(
        site.deployment != nullptr ? &site.deployment->records : nullptr);
    for (const std::string* host : hosts) {
      (void)replay_resolver.resolve(*host, when);
    }
    replay_resolver.set_overlay(nullptr);
  });
  const core::SiteObservation stitched = tracer.span(
      Layer::kNetlogStitch,
      [&] { return netlog::stitch_site(site.url, out.page.log); });
  if (stitched.connections.size() != out.page.observation.connections.size()) {
    ++stitch_mismatches;
  }
  netlog_events += out.page.log.size();

  if (campaign->options.har_path) {
    util::Rng quirk_rng{util::hash_seed(
        util::combine_seed(campaign->options.seed, 0x4a52), site.url)};
    const har::Log log = tracer.span(Layer::kHarExport, [&] {
      return har::export_site(out.page.observation, out.page.h1_entries,
                              campaign->options.har_quirks, quirk_rng);
    });
    har::ImportStats stats;
    out.har_observation = tracer.span(
        Layer::kHarImport, [&] { return har::import_site(log, &stats); });
    out.har_stats = stats;
  }
  out.netlog_observation = std::move(out.page.observation);
}

void LoadCounts::count_worker(const TracedWorker& worker) {
  metrics.merge(worker.metrics);
  netlog_events += worker.netlog_events;
  stitch_mismatches += worker.stitch_mismatches;
}

void LoadCounts::count_shard(const Shard& shard) {
  redundant += shard.redundant_connections();
  connections += shard.total_connections();
}

void LoadCounts::merge(const LoadCounts& other) {
  summary.merge(other.summary);
  metrics.merge(other.metrics);
  netlog_events += other.netlog_events;
  stitch_mismatches += other.stitch_mismatches;
  redundant += other.redundant;
  connections += other.connections;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

void load_metrics(const LoadCounts& counts, double sites, Outcome& out) {
  auto per_site = [&](std::uint64_t count) {
    return static_cast<double>(count) / sites;
  };
  const browser::CrawlSummary& summary = counts.summary;
  const obs::Metrics& metrics = counts.metrics;
  const std::uint64_t queries = metrics.counter("dns.queries");
  const std::uint64_t reuses =
      summary.group_reuses + summary.alias_reuses + summary.origin_frame_reuses;
  out.metrics["dns.queries"] = {per_site(queries), ""};
  out.metrics["dns.cache_hit_ratio"] = {
      ratio(metrics.counter("dns.cache_hits"), queries), ""};
  out.metrics["dns.upstream_queries"] = {
      per_site(metrics.counter("dns.upstream_queries")), ""};
  out.metrics["browser.connections_opened"] = {
      per_site(summary.connections_opened), ""};
  out.metrics["browser.reuse_ratio"] = {
      ratio(reuses, reuses + summary.connections_opened),
      "(group + alias + ORIGIN reuses) / (reuses + opens)"};
  for (const char* name :
       {"tls.handshakes", "h2.requests", "net.connect_attempts"}) {
    out.metrics[name] = {per_site(metrics.counter(name)), ""};
  }
  out.metrics["netlog.events"] = {per_site(counts.netlog_events),
                                  ""};
  out.metrics["har.used_ratio"] = {
      ratio(summary.har_stats.used_entries, summary.har_stats.total_entries),
      "used / total HAR entries"};
  out.metrics["core.redundant_ratio"] = {
      ratio(counts.redundant, counts.connections),
      "exact durations on the NetLog path, endless on the HAR path"};
  if (counts.stitch_mismatches != 0) {
    out.errors.push_back("stitch replay disagrees with Browser::load on " +
                         std::to_string(counts.stitch_mismatches) + " sites");
  }
}

json::Value report_json(const core::AggregateReport& report) {
  return core::report_to_json(report, {core::Fidelity::kFull, core::kAllRows});
}

Metric peak_rss() {
  rusage usage{};
  const double mib = getrusage(RUSAGE_SELF, &usage) == 0
                         ? static_cast<double>(usage.ru_maxrss) / 1024.0
                         : 0.0;  // ru_maxrss is in KiB on Linux
  return {mib, "VmHWM after set-up and one batch"};
}

// --------------------------------------------------------------- metrics

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"web.generate_us", "us/site"},
      {"web.universe_us", "us/site"},
      {"dns.resolve_us", "us/site"},
      {"dns.queries", "1/site"},
      {"dns.cache_hit_ratio", "ratio"},
      {"dns.upstream_queries", "1/site"},
      {"browser.load_us", "us/site"},
      {"browser.connections_opened", "1/site"},
      {"browser.reuse_ratio", "ratio"},
      {"tls.handshakes", "1/site"},
      {"h2.requests", "1/site"},
      {"net.connect_attempts", "1/site"},
      {"netlog.stitch_us", "us/site"},
      {"netlog.events", "1/site"},
      {"har.export_us", "us/site"},
      {"har.import_us", "us/site"},
      {"har.used_ratio", "ratio"},
      {"json.parse_us", "us/site"},
      {"har.from_json_us", "us/site"},
      {"json.bytes", "B/site"},
      {"core.prepare_us", "us/site"},
      {"core.classify_us", "us/site"},
      {"core.aggregate_us", "us/site"},
      {"core.audit_us", "us/site"},
      {"core.render_us", "us/site"},
      {"core.redundant_ratio", "ratio"},
      {"journal.append_us", "us/site"},
      {"journal.fsyncs", "1/site"},
      {"journal.bytes", "B/site"},
      {"journal.fold_us", "us/site"},
      {"journal.spill_finish_us", "us/site"},
      {"browser.queue_wait_ms", "ms"},
      {"browser.worker_busy_ratio", "ratio"},
      {"browser.worker_skew", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.unattributed_ratio", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"sites_per_s", "1/s"},
      {"batch_s", "s"},          {"site_p50_ms", "ms"},
      {"site_p99_ms", "ms"},     {"peak_rss_mib", "MiB"},
  };
  return kMetrics;
}

void throughput_metrics(const BatchLog& log, double sites_per_batch,
                        const std::string& units, Outcome& out) {
  std::vector<double> batch_ms;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  for (std::size_t b = 0; b < log.wall_ms.size(); ++b) {
    const double loop_ms = log.loop_ms[b];
    batch_ms.push_back(in_reference_time(log.wall_ms[b], loop_ms));
    p50_ms.push_back(in_reference_time(quantile(log.unit_ms[b], 0.5), loop_ms));
    p99_ms.push_back(
        in_reference_time(quantile(log.unit_ms[b], 0.99), loop_ms));
  }
  const std::string batches =
      std::to_string(log.wall_ms.size()) + " batches in reference time";
  const std::string samples =
      "n=" + std::to_string(log.unit_ms.empty() ? 0 : log.unit_ms[0].size()) +
      " " + units + " a batch; median of " + batches;
  out.metrics["site_p50_ms"] = {median(p50_ms), samples};
  out.metrics["site_p99_ms"] = {median(p99_ms), samples};
  const double batch_s = median(batch_ms) / 1000.0;
  out.metrics["batch_s"] = {
      batch_s, "median of " + batches + " (wall " +
                   std::to_string(median(log.wall_ms) / 1000.0) +
                   ", reference loop " +
                   std::to_string(median(log.loop_ms)) + " ms)"};
  out.metrics["sites_per_s"] = {sites_per_batch / batch_s,
                                "per median batch"};
}

void worker_metrics(const std::vector<const browser::CrawlSummary*>& crawls,
                    Outcome& out) {
  double wait_ms = 0.0;
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
  std::size_t workers = 0;
  std::vector<double> skews;
  for (const browser::CrawlSummary* crawl : crawls) {
    std::uint64_t most = 0;
    std::uint64_t least = ~std::uint64_t{0};
    for (const browser::WorkerCounters& w : crawl->per_worker) {
      wait_ms += w.queue_wait_ms;
      cpu_ms += w.cpu_ms;
      wall_ms += w.wall_ms;
      ++workers;
      const std::uint64_t sites = w.sites_loaded + w.sites_unreachable;
      most = std::max(most, sites);
      least = std::min(least, sites);
    }
    if (!crawl->per_worker.empty() && least > 0) {
      skews.push_back(static_cast<double>(most) / static_cast<double>(least));
    }
  }
  const std::string note = std::to_string(workers) + " worker loops";
  out.metrics["browser.queue_wait_ms"] = {
      workers > 0 ? wait_ms / static_cast<double>(workers) : 0.0,
      note + ", mean per loop"};
  out.metrics["browser.worker_busy_ratio"] = {
      wall_ms > 0.0 ? cpu_ms / wall_ms : 0.0, note};
  out.metrics["browser.worker_skew"] = {median(skews),
                                        note + ", median per crawl"};
}

void layer_metrics(const Tracer& totals, double sites, Outcome& out) {
  auto per_site_us = [&](Layer layer) {
    return sites > 0.0 ? totals.get(layer) * 1000.0 / sites : 0.0;
  };
  const std::pair<const char*, Layer> kTimes[] = {
      {"web.generate_us", Layer::kWebGenerate},
      {"web.universe_us", Layer::kWebUniverse},
      {"dns.resolve_us", Layer::kDnsReplay},
      {"browser.load_us", Layer::kBrowserLoad},
      {"netlog.stitch_us", Layer::kNetlogStitch},
      {"har.export_us", Layer::kHarExport},
      {"har.import_us", Layer::kHarImport},
      {"json.parse_us", Layer::kJsonParse},
      {"har.from_json_us", Layer::kHarFromJson},
      {"core.prepare_us", Layer::kCorePrepare},
      {"core.classify_us", Layer::kCoreClassify},
      {"core.aggregate_us", Layer::kCoreAggregate},
      {"core.audit_us", Layer::kCoreAudit},
      {"core.render_us", Layer::kCoreRender},
      {"journal.append_us", Layer::kJournalAppend},
      {"journal.fold_us", Layer::kJournalFold},
      {"journal.spill_finish_us", Layer::kJournalFinish},
  };
  for (const auto& [name, layer] : kTimes) {
    out.metrics[name] = {per_site_us(layer), ""};
  }
  out.metrics["dns.resolve_us"].note = "replay of the page's lookups";
  out.metrics["netlog.stitch_us"].note = "replay of the page's stitch";
  out.metrics["browser.load_us"].note = "gross: includes dns and stitch";
}

}  // namespace h2bench
