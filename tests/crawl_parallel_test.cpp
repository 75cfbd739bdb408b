// Differential proof of the crawl determinism contract: a crawl with
// threads = N produces bit-identical per-site observations, summaries and
// classified aggregates for ANY N, because every per-site input (page RNG,
// HAR quirk RNG, resolver cache state, simulated load time) is derived
// from (seed, site) alone — never from worker identity or load order.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/observation_json.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "obs/observer.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::browser {
namespace {

constexpr std::size_t kSites = 30;

struct RunOutput {
  CrawlSummary summary;
  /// Serialized exact observation per rank (bit-identity proxy).
  std::vector<std::string> netlog_json;
  std::vector<std::string> har_json;
  /// Classified cause counts over the whole crawl (endless model).
  core::AggregateReport report;
};

/// Keeps each site's observations at its rank's slot, so the outputs
/// read in rank order whichever worker loaded which site.
class RankObserver final : public obs::Observer {
 public:
  explicit RankObserver(std::size_t count) : sites_(count) {}

  void site(unsigned /*worker*/, SiteResult& result) override {
    Slot& slot = sites_[result.rank];
    slot.reachable = result.reachable;
    slot.netlog = std::move(result.netlog_observation);
    slot.har = std::move(result.har_observation);
  }

  struct Slot {
    bool reachable = false;
    core::SiteObservation netlog;
    core::SiteObservation har;
  };
  const std::vector<Slot>& sites() const { return sites_; }

 private:
  std::vector<Slot> sites_;
};

RunOutput run_crawl(unsigned threads, std::uint64_t seed,
                    bool har_path = false,
                    const fault::FaultConfig& faults = {}) {
  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  const web::SiteUniverse universe{eco, catalog};

  CrawlOptions options;
  options.threads = threads;
  options.seed = seed + 100;
  options.har_path = har_path;
  options.browser.faults = faults;
  RankObserver observer{kSites};
  options.observer = &observer;

  RunOutput out;
  out.summary = crawl(universe, 0, kSites, options);
  core::Aggregator aggregator;
  for (const RankObserver::Slot& site : observer.sites()) {
    out.netlog_json.push_back(json::write(core::to_json(site.netlog)));
    if (har_path) out.har_json.push_back(json::write(core::to_json(site.har)));
    if (site.reachable) {
      aggregator.add_site(
          site.netlog,
          core::classify_site(site.netlog, {core::DurationModel::kEndless}));
    }
  }
  out.report = aggregator.report();
  return out;
}

void expect_identical(const RunOutput& a, const RunOutput& b,
                      unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_TRUE(a.summary == b.summary);
  EXPECT_EQ(a.report, b.report);
  ASSERT_EQ(a.netlog_json.size(), b.netlog_json.size());
  for (std::size_t i = 0; i < a.netlog_json.size(); ++i) {
    EXPECT_EQ(a.netlog_json[i], b.netlog_json[i]) << "rank " << i;
  }
  ASSERT_EQ(a.har_json.size(), b.har_json.size());
  for (std::size_t i = 0; i < a.har_json.size(); ++i) {
    EXPECT_EQ(a.har_json[i], b.har_json[i]) << "rank " << i;
  }
}

class CrawlParallelDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrawlParallelDifferential, ThreadCountDoesNotChangeResults) {
  const std::uint64_t seed = GetParam();
  const RunOutput sequential = run_crawl(1, seed);
  for (const unsigned threads : {2u, 7u}) {
    expect_identical(sequential, run_crawl(threads, seed), threads);
  }
}

TEST_P(CrawlParallelDifferential, HarPathIsThreadCountInvariantToo) {
  // The HAR quirk RNG used to be per-worker sequential state; it is now
  // derived per site, so the noisy HAR path is deterministic as well.
  const std::uint64_t seed = GetParam();
  const RunOutput sequential = run_crawl(1, seed, /*har_path=*/true);
  expect_identical(sequential, run_crawl(7, seed, /*har_path=*/true), 7);
}

TEST_P(CrawlParallelDifferential, FaultedCrawlIsThreadCountInvariantToo) {
  // The hard half of the fault layer's determinism contract: with faults
  // FIRING (not just armed), threads = N must still be bit-identical to
  // threads = 1 — per-site FaultPlans are derived from (fault seed,
  // browser seed, site url), never from worker identity. The merged
  // FailureSummary participates via CrawlSummary::operator==.
  const std::uint64_t seed = GetParam();
  const fault::FaultConfig faults = fault::FaultConfig::uniform(0.15);
  const RunOutput sequential = run_crawl(1, seed, /*har_path=*/false, faults);
  EXPECT_GT(sequential.summary.failures.total_injected(), 0u);
  EXPECT_EQ(sequential.summary.failures.fetch_attempts,
            sequential.summary.failures.successful_fetches +
                sequential.summary.failures.failed_fetches);
  for (const unsigned threads : {2u, 7u}) {
    const RunOutput parallel =
        run_crawl(threads, seed, /*har_path=*/false, faults);
    expect_identical(sequential, parallel, threads);
    EXPECT_TRUE(sequential.summary.failures == parallel.summary.failures);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, CrawlParallelDifferential,
                         ::testing::Values(1u, 2u, 3u, 42u, 77u, 1234u));

/// Per-worker endless-model aggregators, merged after the crawl.
class ShardObserver final : public obs::Observer {
 public:
  void begin(unsigned workers) override {
    while (shards_.size() < workers) {
      shards_.push_back(std::make_unique<core::Aggregator>());
    }
  }

  void site(unsigned worker, SiteResult& site) override {
    if (!site.reachable) return;
    shards_[worker]->add_site(
        site.netlog_observation,
        core::classify_site(site.netlog_observation,
                            {core::DurationModel::kEndless}));
  }

  core::AggregateReport merged() const {
    core::AggregateReport report;
    for (const auto& shard : shards_) report.merge(shard->report());
    return report;
  }

 private:
  std::vector<std::unique_ptr<core::Aggregator>> shards_;
};

TEST(CrawlParallel, ShardedCrawlEqualsOrderedCrawl) {
  // Per-worker aggregation, merged afterwards, must reproduce the
  // rank-ordered accumulation exactly.
  const std::uint64_t seed = 42;
  const RunOutput sequential = run_crawl(1, seed);

  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  const web::SiteUniverse universe{eco, catalog};
  CrawlOptions options;
  options.threads = 5;
  options.seed = seed + 100;
  ShardObserver observer;
  options.observer = &observer;

  const CrawlSummary summary = crawl(universe, 0, kSites, options);
  EXPECT_TRUE(summary == sequential.summary);
  EXPECT_EQ(observer.merged(), sequential.report);
}

TEST(CrawlParallel, WorkerCountersAccountForEverySite) {
  web::Ecosystem eco{7};
  web::ServiceCatalog catalog{eco, 7};
  const web::SiteUniverse universe{eco, catalog};
  CrawlOptions options;
  options.threads = 3;
  const CrawlSummary summary = crawl(universe, 0, kSites, options);

  ASSERT_EQ(summary.per_worker.size(), 3u);
  std::uint64_t loaded = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t connections = 0;
  std::uint64_t chunks = 0;
  for (const WorkerCounters& worker : summary.per_worker) {
    loaded += worker.sites_loaded;
    unreachable += worker.sites_unreachable;
    connections += worker.connections_opened;
    chunks += worker.chunks_claimed;
  }
  EXPECT_EQ(loaded, summary.sites_visited);
  EXPECT_EQ(unreachable, summary.sites_unreachable);
  EXPECT_EQ(connections, summary.connections_opened);
  EXPECT_GE(chunks, 1u);
  EXPECT_FALSE(describe_workers(summary).empty());
}

// ------------------------------------------------- chunk-event contract

/// Records each worker's event stream: the ranks site() delivered since
/// the worker's last chunk(), and every ChunkEvent with those ranks.
class ChunkContractObserver final : public obs::Observer {
 public:
  struct Chunk {
    ChunkEvent event;
    std::vector<std::size_t> sites;  // site() ranks delivered before it
  };
  struct WorkerLog {
    std::vector<std::size_t> pending;  // site() ranks not yet chunked
    std::vector<std::size_t> sites;    // every site() rank, in order
    std::vector<Chunk> chunks;
  };

  void begin(unsigned workers) override { workers_.resize(workers); }

  void site(unsigned worker, SiteResult& result) override {
    workers_[worker].pending.push_back(result.rank);
    workers_[worker].sites.push_back(result.rank);
  }

  void chunk(const ChunkEvent& event) override {
    WorkerLog& log = workers_[event.worker];
    log.chunks.push_back(Chunk{event, std::move(log.pending)});
    log.pending.clear();
  }

  const std::vector<WorkerLog>& workers() const { return workers_; }

 private:
  std::vector<WorkerLog> workers_;
};

std::vector<std::size_t> expand(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::vector<std::size_t> ranks;
  for (const auto& [first, count] : ranges) {
    for (std::size_t i = 0; i < count; ++i) ranks.push_back(first + i);
  }
  return ranks;
}

void expect_chunk_contract(unsigned threads,
                           const std::vector<std::size_t>* targets) {
  constexpr std::size_t kFirst = 5;
  SCOPED_TRACE("threads=" + std::to_string(threads) +
               (targets != nullptr ? " with targets" : " all ranks"));
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  const web::SiteUniverse universe{eco, catalog};
  CrawlOptions options;
  options.threads = threads;
  options.targets = targets;
  ChunkContractObserver observer;
  options.observer = &observer;
  const CrawlSummary summary = crawl(universe, kFirst, kSites, options);

  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < kSites; ++i) {
    if (targets == nullptr ||
        std::binary_search(targets->begin(), targets->end(), i)) {
      expected.push_back(kFirst + i);
    }
  }

  std::vector<std::size_t> covered;
  CrawlSummary chunk_total;
  for (const auto& log : observer.workers()) {
    // Every site() of a chunk comes before that chunk's chunk() on the
    // same worker, and no site is left unchunked.
    EXPECT_TRUE(log.pending.empty());
    for (const auto& chunk : log.chunks) {
      const std::vector<std::size_t> ranks = expand(chunk.event.ranges);
      EXPECT_EQ(chunk.sites, ranks);
      covered.insert(covered.end(), ranks.begin(), ranks.end());
      chunk_total.merge(chunk.event.summary);
    }
  }
  // The chunks cover exactly the targeted ranks, none twice.
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, expected);
  // Chunk counters sum to the crawl's summary.
  EXPECT_TRUE(chunk_total == summary);
  EXPECT_GT(summary.sites_visited, 0u);

  if (threads == 1) {
    // One worker claims its chunks in ascending order: rank order.
    ASSERT_EQ(observer.workers().size(), 1u);
    EXPECT_EQ(observer.workers()[0].sites, expected);
  }
}

TEST(CrawlParallel, ChunkEventsCoverEveryRankOnce) {
  for (const unsigned threads : {1u, 2u, 7u}) {
    expect_chunk_contract(threads, nullptr);
  }
}

TEST(CrawlParallel, ChunkEventsHonourTargetsWithHoles) {
  // Resume-style targets: relative indices with holes, sorted ascending.
  const std::vector<std::size_t> targets = {0,  1,  2,  5,  6,  7,  8,
                                            12, 13, 20, 21, 22, 23, 29};
  for (const unsigned threads : {1u, 2u, 7u}) {
    expect_chunk_contract(threads, &targets);
  }
}

}  // namespace
}  // namespace h2r::browser
