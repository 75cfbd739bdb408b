// Chaos + property tests for the deterministic fault-injection layer.
//
// The contract under test, in increasing order of scope:
//   * FaultPlan is a pure function of (config, browser seed, site url) —
//     and a zero-rate kind NEVER draws from the plan's RNG, so arming the
//     layer at rate 0 is bit-identical to not having it at all;
//   * the dns/tls/net hook points inject what the plan decides and count
//     what they injected;
//   * a whole crawl under injection never crashes, conserves
//     fetch_attempts == successful + failed, and at rate 0 reproduces the
//     uninjected crawl byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "browser/crawl.hpp"
#include "core/observation_json.hpp"
#include "dns/resolver.hpp"
#include "dns/vantage.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "obs/observer.hpp"
#include "test_env_guard.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r {
namespace {

using fault::FaultConfig;
using fault::FaultKind;
using fault::FaultPlan;

// ---------------------------------------------------------------- plans

TEST(FaultPlan, DefaultConstructedPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  for (int i = 0; i < 32; ++i) {
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      EXPECT_FALSE(plan.fire(static_cast<FaultKind>(k)));
    }
    EXPECT_EQ(plan.latency_penalty(), 0);
  }
  EXPECT_TRUE(plan.injected() == fault::FailureSummary{});
}

TEST(FaultPlan, ZeroUniformRateMeansDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  EXPECT_FALSE(FaultConfig::uniform(0.0).enabled());
  EXPECT_TRUE(FaultConfig::uniform(0.01).enabled());
  EXPECT_EQ(FaultConfig{}.signature(), "off");
  EXPECT_NE(FaultConfig::uniform(0.25).signature(), "off");
  EXPECT_NE(FaultConfig::uniform(0.25).signature(),
            FaultConfig::uniform(0.05).signature());
}

TEST(FaultPlan, RateOneAlwaysFiresAndCounts) {
  FaultConfig config;
  config.set_rate(FaultKind::kGoaway, 1.0);
  FaultPlan plan{config, 11, "https://www.site.test"};
  ASSERT_TRUE(plan.active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(plan.fire(FaultKind::kGoaway));
    EXPECT_FALSE(plan.fire(FaultKind::kRstStream));  // rate 0
  }
  EXPECT_EQ(plan.injected().goaways, 100u);
  EXPECT_EQ(plan.injected().rst_streams, 0u);
  EXPECT_EQ(plan.injected().total_injected(), 100u);
}

TEST(FaultPlan, DecisionsAreAPureFunctionOfSeedAndSite) {
  const FaultConfig config = FaultConfig::uniform(0.5);
  FaultPlan a{config, 11, "https://www.site.test"};
  FaultPlan b{config, 11, "https://www.site.test"};
  FaultPlan other_site{config, 11, "https://www.other.test"};
  FaultPlan other_seed{config, 12, "https://www.site.test"};
  int site_diffs = 0;
  int seed_diffs = 0;
  for (int i = 0; i < 256; ++i) {
    const bool fired = a.fire(FaultKind::kConnectRefused);
    EXPECT_EQ(b.fire(FaultKind::kConnectRefused), fired);
    site_diffs += other_site.fire(FaultKind::kConnectRefused) != fired;
    seed_diffs += other_seed.fire(FaultKind::kConnectRefused) != fired;
  }
  EXPECT_TRUE(a.injected() == b.injected());
  EXPECT_GT(site_diffs, 0);  // distinct sites get distinct schedules
  EXPECT_GT(seed_diffs, 0);  // and so do distinct browser seeds
}

TEST(FaultPlan, ZeroRateKindsNeverDrawFromTheRng) {
  // Interleaving zero-rate queries must not perturb the decision stream —
  // this is what makes "rates all zero" literally bit-identical to "no
  // fault layer" in every consumer.
  FaultConfig config;
  config.set_rate(FaultKind::kGoaway, 0.5);
  FaultPlan clean{config, 7, "https://x.test"};
  FaultPlan noisy{config, 7, "https://x.test"};
  for (int i = 0; i < 128; ++i) {
    EXPECT_FALSE(noisy.fire(FaultKind::kRstStream));
    EXPECT_FALSE(noisy.fire(FaultKind::kDnsServfail));
    EXPECT_EQ(noisy.latency_penalty(), 0);  // kLatencySpike rate is 0 too
    EXPECT_EQ(noisy.fire(FaultKind::kGoaway),
              clean.fire(FaultKind::kGoaway));
  }
  EXPECT_TRUE(noisy.injected() == clean.injected());
}

TEST(FaultPlan, LatencyPenaltyStaysWithinConfiguredBounds) {
  FaultConfig config;
  config.set_rate(FaultKind::kLatencySpike, 1.0);
  FaultPlan plan{config, 3, "https://x.test"};
  for (int i = 0; i < 200; ++i) {
    const util::SimTime penalty = plan.latency_penalty();
    EXPECT_GE(penalty, config.latency_spike_min);
    EXPECT_LT(penalty, config.latency_spike_max);
  }
  EXPECT_EQ(plan.injected().latency_spikes, 200u);

  // A degenerate one-value window pins the penalty exactly.
  config.latency_spike_min = util::milliseconds(10);
  config.latency_spike_max = util::milliseconds(11);
  FaultPlan pinned{config, 3, "https://x.test"};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pinned.latency_penalty(), util::milliseconds(10));
  }
}

// ------------------------------------------------------------------ env

// The CI chaos matrix drives these same vars through the smoke test
// below; the guard itself is shared with env_test.cpp.
using h2r::testing::EnvGuard;

TEST(FaultConfigEnv, ReadsTheChaosKnobs) {
  EnvGuard rate("H2R_FAULT_RATE", "0.25");
  EnvGuard seed("H2R_FAULT_SEED", "77");
  EnvGuard retries("H2R_FAULT_RETRIES", "5");
  EnvGuard backoff("H2R_FAULT_BACKOFF_MS", "250");
  const FaultConfig config = FaultConfig::from_env();
  EXPECT_TRUE(config.enabled());
  for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
    EXPECT_DOUBLE_EQ(config.rate(static_cast<FaultKind>(k)), 0.25);
  }
  EXPECT_EQ(config.seed, 77u);
  EXPECT_EQ(config.max_retries, 5);
  EXPECT_EQ(config.backoff_base, util::milliseconds(250));
}

TEST(FaultConfigEnv, RejectsOutOfRangeOrGarbageRates) {
  {
    EnvGuard rate("H2R_FAULT_RATE", "1.5");  // probabilities only
    EXPECT_FALSE(FaultConfig::from_env().enabled());
  }
  {
    EnvGuard rate("H2R_FAULT_RATE", "-0.1");
    EXPECT_FALSE(FaultConfig::from_env().enabled());
  }
  {
    EnvGuard rate("H2R_FAULT_RATE", "chaos");
    EXPECT_FALSE(FaultConfig::from_env().enabled());
  }
}

// ---------------------------------------------------------- dns hooks

net::Prefix pfx(const char* s) { return net::Prefix::parse(s).value(); }

web::Ecosystem make_world() {
  web::Ecosystem eco{5};
  eco.register_as("T-AS", 64501, pfx("10.20.0.0/16"));
  web::ClusterSpec svc;
  svc.operator_name = "svc";
  svc.as_name = "T-AS";
  svc.ip_count = 4;
  svc.certs = {{"CA", {"*.svc.test"}}};
  web::DomainSpec d;
  d.name = "a.svc.test";
  d.lb.policy = dns::LbPolicy::kStatic;
  d.lb.answer_count = 2;
  svc.domains.push_back(d);
  eco.add_cluster(svc);
  return eco;
}

TEST(DnsFaults, ServfailAndTimeoutFailTheLookupWithoutNegativeCaching) {
  const web::Ecosystem eco = make_world();
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  FaultConfig config;
  config.set_rate(FaultKind::kDnsServfail, 1.0);
  FaultPlan plan{config, 1, "unit"};
  resolver.set_fault_injector(&plan);
  const dns::Resolution failed = resolver.resolve("a.svc.test", util::days(1));
  EXPECT_FALSE(failed.ok);
  EXPECT_TRUE(failed.injected_fault);
  EXPECT_EQ(plan.injected().dns_servfail, 1u);

  // Failures are not cached: the next (uninjected) query succeeds.
  resolver.set_fault_injector(nullptr);
  const dns::Resolution ok = resolver.resolve("a.svc.test", util::days(1));
  EXPECT_TRUE(ok.ok);
  EXPECT_FALSE(ok.injected_fault);
  ASSERT_FALSE(ok.addresses.empty());

  FaultConfig timeouts;
  timeouts.set_rate(FaultKind::kDnsTimeout, 1.0);
  FaultPlan timeout_plan{timeouts, 1, "unit"};
  dns::RecursiveResolver fresh{dns::standard_vantage_points()[0],
                               &eco.authority()};
  fresh.set_fault_injector(&timeout_plan);
  EXPECT_FALSE(fresh.resolve("a.svc.test", util::days(1)).ok);
  EXPECT_EQ(timeout_plan.injected().dns_timeout, 1u);
}

TEST(DnsFaults, StaleFaultServesTheExpiredCacheEntry) {
  const web::Ecosystem eco = make_world();
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  const dns::Resolution first = resolver.resolve("a.svc.test", util::days(1));
  ASSERT_TRUE(first.ok);
  const util::SimTime after_expiry = first.expires_at + 1;

  FaultConfig config;
  config.set_rate(FaultKind::kDnsStale, 1.0);
  FaultPlan plan{config, 1, "unit"};
  resolver.set_fault_injector(&plan);
  const dns::Resolution stale = resolver.resolve("a.svc.test", after_expiry);
  EXPECT_TRUE(stale.ok);
  EXPECT_TRUE(stale.from_cache);
  EXPECT_TRUE(stale.injected_fault);
  EXPECT_EQ(stale.addresses, first.addresses);
  EXPECT_EQ(plan.injected().dns_stale, 1u);

  // Without the fault the same query re-resolves upstream.
  resolver.set_fault_injector(nullptr);
  const dns::Resolution refreshed =
      resolver.resolve("a.svc.test", after_expiry);
  EXPECT_TRUE(refreshed.ok);
  EXPECT_FALSE(refreshed.from_cache);
  EXPECT_FALSE(refreshed.injected_fault);
}

// --------------------------------------------------------- whole crawls

constexpr std::size_t kSites = 20;

struct ChaosOutput {
  browser::CrawlSummary summary;
  std::vector<std::string> netlog_json;
};

/// Serializes each site's exact observation into its rank's slot.
class NetlogJsonObserver final : public obs::Observer {
 public:
  explicit NetlogJsonObserver(std::vector<std::string>& out) : out_(&out) {}
  void site(unsigned /*worker*/, browser::SiteResult& site) override {
    (*out_)[site.rank] = json::write(core::to_json(site.netlog_observation));
  }

 private:
  std::vector<std::string>* out_;
};

ChaosOutput run_chaos_crawl(unsigned threads, std::uint64_t seed,
                            const FaultConfig& faults) {
  web::Ecosystem eco{seed};
  web::ServiceCatalog catalog{eco, seed};
  const web::SiteUniverse universe{eco, catalog};
  browser::CrawlOptions options;
  options.threads = threads;
  options.seed = seed + 100;
  options.browser.faults = faults;
  ChaosOutput out;
  out.netlog_json.resize(kSites);
  NetlogJsonObserver observer{out.netlog_json};
  options.observer = &observer;
  out.summary = browser::crawl(universe, 0, kSites, options);
  return out;
}

void expect_conserved(const fault::FailureSummary& failures) {
  EXPECT_EQ(failures.fetch_attempts,
            failures.successful_fetches + failures.failed_fetches);
  EXPECT_LE(failures.retry_successes, failures.retries);
  EXPECT_LE(failures.degraded_sites, kSites);
}

TEST(ChaosCrawl, SweepNeverCrashesAndConservesTheFetchLedger) {
  for (const double rate : {0.0, 0.05, 0.25}) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
      SCOPED_TRACE("rate=" + std::to_string(rate) +
                   " seed=" + std::to_string(seed));
      const ChaosOutput out =
          run_chaos_crawl(1, seed, FaultConfig::uniform(rate));
      // Every site is accounted for: reachable or killed, never dropped.
      EXPECT_EQ(out.summary.sites_visited + out.summary.sites_unreachable,
                kSites);
      EXPECT_EQ(std::count(out.netlog_json.begin(), out.netlog_json.end(),
                           std::string{}),
                0);  // every rank's slot was delivered
      expect_conserved(out.summary.failures);
      if (rate == 0.0) {
        EXPECT_EQ(out.summary.failures.total_injected(), 0u);
        EXPECT_EQ(out.summary.failures.retries, 0u);
      } else if (rate >= 0.25) {
        // 20 sites x dozens of decisions at 25%: something always fires,
        // and the browser always copes (deterministic, so never flaky).
        EXPECT_GT(out.summary.failures.total_injected(), 0u);
        EXPECT_GT(out.summary.failures.retries, 0u);
      }
    }
  }
}

TEST(ChaosCrawl, ZeroRateIsBitIdenticalToNoInjection) {
  // An armed-but-zero config (different fault seed, different retry
  // policy) must reproduce the default crawl byte for byte: no rate means
  // no RNG draws, no behavior change, nothing in the ledger.
  FaultConfig zero = FaultConfig::uniform(0.0);
  zero.seed = 999;
  zero.max_retries = 9;
  zero.backoff_base = util::milliseconds(1);
  const ChaosOutput base = run_chaos_crawl(1, 42, FaultConfig{});
  const ChaosOutput armed = run_chaos_crawl(1, 42, zero);
  EXPECT_TRUE(base.summary == armed.summary);
  ASSERT_EQ(base.netlog_json.size(), armed.netlog_json.size());
  for (std::size_t i = 0; i < base.netlog_json.size(); ++i) {
    EXPECT_EQ(base.netlog_json[i], armed.netlog_json[i]) << "rank " << i;
  }
}

TEST(ChaosCrawl, EnvConfiguredSmoke) {
  // The CI chaos job sweeps H2R_FAULT_RATE over {0, 0.05, 0.25} and runs
  // this under TSan: a parallel crawl with the env-selected fault regime
  // must stay race-free and keep its ledger consistent.
  const FaultConfig config = FaultConfig::from_env();
  const ChaosOutput out = run_chaos_crawl(3, 7, config);
  EXPECT_EQ(out.summary.sites_visited + out.summary.sites_unreachable, kSites);
  expect_conserved(out.summary.failures);
  if (!config.enabled()) {
    EXPECT_EQ(out.summary.failures.total_injected(), 0u);
  }
}

}  // namespace
}  // namespace h2r
