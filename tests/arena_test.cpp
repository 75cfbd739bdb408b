// The hot-path memory model, pinned (DESIGN §12).
//
// Unit half: util::Arena bump/reset/chunk-reuse semantics and the
// ArenaAllocator's heap fallback.
//
// Differential half: the per-site arena + interner + SoA classifier
// sweep is a pure OPTIMIZATION — H2R_ARENA=0 (plain heap allocation)
// and H2R_ARENA=1 (arena) must produce byte-identical report JSON,
// metric snapshots and journal frames at every thread count and fault
// rate, and ClassifyContext must reproduce classify_site() exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/report_json.hpp"
#include "experiments/study.hpp"
#include "journal/journal.hpp"
#include "json/json.hpp"
#include "net/ip.hpp"
#include "obs/metrics.hpp"
#include "test_env_guard.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace h2r {
namespace {

// ------------------------------------------------------------ unit half

TEST(Arena, BumpAllocatesAligned) {
  util::Arena arena{1024};
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_GE(arena.bytes_used(), 11u);
}

TEST(Arena, ResetRewindsWithoutReleasingChunks) {
  util::Arena arena{512};
  for (int i = 0; i < 64; ++i) (void)arena.allocate(64, 8);
  const std::size_t chunks = arena.chunk_count();
  EXPECT_GT(chunks, 1u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // A same-shaped second "site" must fit in the chunks already owned.
  for (int i = 0; i < 64; ++i) (void)arena.allocate(64, 8);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  util::Arena arena{256};
  void* big = arena.allocate(64 * 1024, 16);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 16, 0u);
  // And the arena keeps serving small allocations afterwards.
  EXPECT_NE(arena.allocate(16, 8), nullptr);
}

TEST(Arena, VectorsGrowInsideTheArena) {
  util::Arena arena;
  util::ArenaVector<std::uint32_t> v{util::ArenaAllocator<std::uint32_t>(
      &arena)};
  for (std::uint32_t i = 0; i < 10000; ++i) v.push_back(i);
  for (std::uint32_t i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GT(arena.bytes_used(), 10000u * sizeof(std::uint32_t));
}

TEST(ArenaAllocator, NullArenaFallsBackToHeap) {
  // The H2R_ARENA=0 mode: same container type, plain new/delete.
  util::ArenaVector<int> v{util::ArenaAllocator<int>(nullptr)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], 999);
}

TEST(Arena, EnvKnobDefaultsOn) {
  {
    h2r::testing::EnvGuard guard{"H2R_ARENA", nullptr};
    EXPECT_TRUE(util::arena_enabled());
  }
  {
    h2r::testing::EnvGuard guard{"H2R_ARENA", "0"};
    EXPECT_FALSE(util::arena_enabled());
  }
  {
    h2r::testing::EnvGuard guard{"H2R_ARENA", "1"};
    EXPECT_TRUE(util::arena_enabled());
  }
}

// ----------------------------------- classifier context equivalence

net::IpAddress ip(const std::string& s) {
  return net::IpAddress::parse(s).value();
}

/// Random site with enough structural variety (wildcards, exclusions,
/// origin sets, close times, shared endpoints) to exercise every branch
/// of the sweep.
core::SiteObservation random_site(util::Rng& rng, std::size_t index) {
  static const char* kDomains[] = {"cdn.ex",     "ads.ex",  "img.Ex",
                                   "api.ex",     "tags.ex", "SSO.ex",
                                   "static.two", "two"};
  core::SiteObservation site;
  site.site_url = "https://site-" + std::to_string(index) + ".test";
  const std::size_t conns = rng.uniform(0, 7);
  util::SimTime open = 10;
  for (std::size_t c = 0; c < conns; ++c) {
    core::ConnectionRecord rec;
    rec.id = c + 1;
    rec.endpoint =
        net::Endpoint{ip("10.0.0." + std::to_string(rng.uniform(1, 4))),
                      static_cast<std::uint16_t>(443)};
    rec.initial_domain = kDomains[rng.index(8)];
    rec.has_certificate = rng.chance(0.9);
    switch (rng.index(4)) {
      case 0: rec.san_dns_names = {"*.ex", "two"}; break;
      case 1: rec.san_dns_names = {rec.initial_domain}; break;
      case 2: rec.san_dns_names = {"*.Two", "CDN.EX"}; break;
      default: rec.san_dns_names = {}; break;
    }
    rec.issuer_organization = "CA";
    open += static_cast<util::SimTime>(rng.uniform(0, 50));
    rec.opened_at = open;
    if (rng.chance(0.4)) {
      rec.closed_at =
          rec.opened_at + static_cast<util::SimTime>(rng.uniform(1, 300));
    }
    core::RequestRecord req;
    req.started_at = rec.opened_at;
    req.finished_at = rec.opened_at + static_cast<util::SimTime>(
                                          rng.uniform(1, 100));
    req.domain = rec.initial_domain;
    rec.requests.push_back(req);
    if (rng.chance(0.2)) rec.excluded_domains.push_back(kDomains[rng.index(8)]);
    if (rng.chance(0.2)) {
      rec.origin_set = std::vector<std::string>{"cdn.ex", "two", "img.ex"};
    }
    site.connections.push_back(std::move(rec));
  }
  return site;
}

void expect_same_classification(const core::SiteClassification& got,
                                const core::SiteClassification& want) {
  EXPECT_EQ(got.site_url, want.site_url);
  EXPECT_EQ(got.total_connections, want.total_connections);
  ASSERT_EQ(got.findings.size(), want.findings.size());
  for (std::size_t i = 0; i < got.findings.size(); ++i) {
    EXPECT_EQ(got.findings[i].connection_index,
              want.findings[i].connection_index);
    EXPECT_EQ(got.findings[i].causes, want.findings[i].causes);
    EXPECT_EQ(got.findings[i].reusable_previous_domains,
              want.findings[i].reusable_previous_domains);
  }
}

/// Reference implementation: the pre-table sweep, kept verbatim so the
/// SoA path has an executable spec to diff against.
core::SiteClassification classify_reference(
    const core::SiteObservation& site, const core::Policy& options) {
  core::SiteClassification result;
  result.site_url = site.site_url;
  result.total_connections = site.connections.size();
  const auto& conns = site.connections;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const core::ConnectionRecord& current = conns[i];
    const std::string domain = util::to_lower(current.initial_domain);
    core::ConnectionFinding finding;
    finding.connection_index = i;
    for (std::size_t j = 0; j < i; ++j) {
      const core::ConnectionRecord& prev = conns[j];
      if (!availability(prev, options.duration).contains(current.opened_at)) {
        continue;
      }
      if (prev.excludes(domain)) continue;
      const bool same_endpoint = prev.endpoint == current.endpoint;
      const bool covers = prev.certificate_covers(domain);
      const bool same_initial_domain =
          util::to_lower(prev.initial_domain) == domain;
      core::Cause cause;
      if (same_endpoint) {
        cause = covers ? core::Cause::kCred : core::Cause::kCert;
      } else if (same_initial_domain) {
        cause = core::Cause::kCred;
      } else if (covers) {
        cause = core::Cause::kIp;
      } else {
        continue;
      }
      finding.causes.insert(cause);
      finding.reusable_previous_domains[cause].insert(
          util::to_lower(prev.initial_domain));
    }
    if (!finding.causes.empty()) result.findings.push_back(std::move(finding));
  }
  return result;
}

class ArenaSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaSeeds, ContextMatchesReferenceWithArenaOnAndOff) {
  util::Rng rng{GetParam()};
  core::ClassifyContext with_arena{/*use_arena=*/true};
  core::ClassifyContext without_arena{/*use_arena=*/false};
  for (std::size_t s = 0; s < 200; ++s) {
    const core::SiteObservation site = random_site(rng, s);
    with_arena.prepare(site);
    without_arena.prepare(site);
    for (const core::DurationModel model :
         {core::DurationModel::kExact, core::DurationModel::kEndless,
          core::DurationModel::kImmediate}) {
      const core::SiteClassification want = classify_reference(site, {model});
      SCOPED_TRACE("site=" + std::to_string(s) + " model=" +
                   core::to_string(model));
      expect_same_classification(with_arena.classify({model}), want);
      expect_same_classification(without_arena.classify({model}), want);
      expect_same_classification(core::classify_site(site, {model}), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaSeeds,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// -------------------------------------------- hot-path differential

using experiments::StudyConfig;
using experiments::StudyResults;

StudyConfig small_config(double fault_rate, unsigned threads) {
  StudyConfig config;
  config.har_sites = 60;
  config.alexa_sites = 50;
  config.har_first_rank = 20;
  config.seed = 7;
  config.threads = threads;
  if (fault_rate > 0) config.faults = fault::FaultConfig::uniform(fault_rate);
  return config;
}

std::string report_bytes(const StudyResults& results) {
  std::string bytes;
  for (const core::AggregateReport* report :
       {&results.har_endless, &results.har_immediate, &results.alexa_exact,
        &results.alexa_endless, &results.nofetch_exact,
        &results.overlap_har_endless, &results.overlap_alexa_endless}) {
    bytes += json::write(core::report_to_json(
        *report, {core::Fidelity::kFull, core::kAllRows}));
    bytes += '\n';
  }
  return bytes;
}

std::string metric_bytes(const StudyResults& results) {
  json::WriteOptions opts;
  opts.pretty = true;
  return json::write(obs::to_json(results.metrics), opts);
}

/// Journal identity, robust to worker commit interleaving: the HEADER
/// must match byte-for-byte; the frame payloads must match as a sorted
/// multiset (at threads>1 the order chunks reach the writer is
/// scheduling, not measurement).
std::vector<std::string> journal_frames(const std::string& path) {
  auto contents = journal::read_journal(path);
  EXPECT_TRUE(contents) << (contents ? "" : contents.error().message);
  std::vector<std::string> frames;
  if (!contents) return frames;
  frames.push_back(json::write(contents->header));
  std::vector<std::string> entries;
  for (const json::Value& entry : contents->entries) {
    entries.push_back(json::write(entry));
  }
  std::sort(entries.begin(), entries.end());
  frames.insert(frames.end(), entries.begin(), entries.end());
  return frames;
}

TEST(ArenaDifferential, StudyBytesAreAllocatorIndependent) {
  // The satellite contract: crawl the same universe with H2R_ARENA=0/1
  // across threads {1,2,7} x fault rates {0, 0.25} and diff report JSON,
  // metric snapshots and journal frames.
  for (const double fault_rate : {0.0, 0.25}) {
    for (const unsigned threads : {1u, 2u, 7u}) {
      SCOPED_TRACE("fault=" + std::to_string(fault_rate) +
                   " threads=" + std::to_string(threads));
      const std::string tag = std::to_string(threads) + "_" +
                              std::to_string(fault_rate > 0 ? 25 : 0);
      StudyConfig config = small_config(fault_rate, threads);

      const std::string arena_journal = std::string(::testing::TempDir()) +
                                        "/arena_on_" + tag + ".journal";
      config.journal_path = arena_journal;
      StudyResults with_arena;
      {
        h2r::testing::EnvGuard guard{"H2R_ARENA", "1"};
        with_arena = experiments::run_study(config);
      }

      const std::string heap_journal = std::string(::testing::TempDir()) +
                                       "/arena_off_" + tag + ".journal";
      config.journal_path = heap_journal;
      StudyResults without_arena;
      {
        h2r::testing::EnvGuard guard{"H2R_ARENA", "0"};
        without_arena = experiments::run_study(config);
      }

      EXPECT_EQ(report_bytes(with_arena), report_bytes(without_arena));
      EXPECT_EQ(metric_bytes(with_arena), metric_bytes(without_arena));
      EXPECT_EQ(with_arena.overlap_sites, without_arena.overlap_sites);
      EXPECT_TRUE(with_arena.har_summary == without_arena.har_summary);
      EXPECT_TRUE(with_arena.alexa_summary == without_arena.alexa_summary);
      EXPECT_TRUE(with_arena.nofetch_summary ==
                  without_arena.nofetch_summary);
      EXPECT_EQ(journal_frames(arena_journal), journal_frames(heap_journal));
    }
  }
}

}  // namespace
}  // namespace h2r
