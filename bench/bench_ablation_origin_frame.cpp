// Ablation (paper §5.3.1 recommendation / future work): what if servers
// announced RFC 8336 ORIGIN frames and browsers honored them?
//
// The paper suggests ORIGIN-frame adoption as "a sleek way to reroute
// requests to the same connection and avoid redundancy" for the IP cause.
// One crawl, two classifications: the population is crawled ONCE with
// Chromium behavior (servers announce their origin sets, the browser
// ignores them — bit-identical to a no-announcement crawl), and the
// ORIGIN-frames-honored row is the policy replay
// (core::Policy{origin_frame}) over the same cached observations. The
// replay reproduces a real ORIGIN-enabled re-crawl connection-for-
// connection (tests/optimize_test.cpp cross-validates this), so the two
// rows match the old two-crawl bench byte for byte at half the cost.
#include <cstdio>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/policy.hpp"
#include "experiments/study.hpp"
#include "obs/observer.hpp"
#include "util/format.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

namespace {

/// Just what the rows print; the replay's total is the counterfactual
/// browser's connection count, so a full Aggregator (which counts the
/// observation's connections) does not fit the "on" row.
struct Tally {
  std::uint64_t total_connections = 0;
  std::uint64_t redundant_connections = 0;

  void add(const core::SiteClassification& cls) {
    total_connections += cls.total_connections;
    redundant_connections += cls.redundant_connections();
  }
};

/// Each site classified twice from one prepare(): as Chromium saw it and
/// replayed with ORIGIN frames honored.
class OriginObserver final : public obs::Observer {
 public:
  void site(unsigned /*worker*/, browser::SiteResult& site) override {
    if (!site.reachable) return;
    ctx_.prepare(site.netlog_observation);
    off.add(ctx_.classify({core::DurationModel::kExact}));
    on.add(ctx_.classify(core::Policy::with_mask(core::kKnobOriginFrame)));
  }

  Tally off;
  Tally on;

 private:
  core::ClassifyContext ctx_;
};

}  // namespace

int main() {
  const experiments::StudyConfig sc = experiments::StudyConfig::from_env();
  const std::size_t sites = sc.alexa_sites;

  std::printf("# ablation: RFC 8336 ORIGIN frame support, %zu sites\n\n",
              sites);

  web::Ecosystem eco{sc.seed};
  web::ServiceCatalog catalog{eco, sc.seed, 160,
                              /*announce_origin_frames=*/true};
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = sc.seed;
  config.announce_origin_frames = true;
  web::SiteUniverse universe{eco, catalog, config};

  browser::CrawlOptions crawl;
  crawl.browser.follow_fetch_credentials = true;
  crawl.browser.support_origin_frame = false;  // Chromium behavior
  crawl.browser.vantage_region = "eu";
  crawl.seed = sc.seed + 1;

  OriginObserver observer;  // one worker: sites arrive in rank order
  crawl.observer = &observer;
  browser::crawl(universe, 0, sites, crawl);
  const Tally& off = observer.off;
  const Tally& on = observer.on;

  auto row = [](const char* name, const Tally& r) {
    std::printf("%-24s conns %-9s redundant %-9s (%s)\n", name,
                util::human_count(r.total_connections).c_str(),
                util::human_count(r.redundant_connections).c_str(),
                util::percent(static_cast<double>(r.redundant_connections),
                              static_cast<double>(r.total_connections))
                    .c_str());
  };
  row("Chromium (no ORIGIN)", off);
  row("ORIGIN frames honored", on);

  if (off.redundant_connections > 0) {
    std::printf("\nORIGIN frames remove %.0f%% of redundant connections "
                "(every same-operator cross-IP case; CERT and CRED remain "
                "by design)\n",
                100.0 *
                    static_cast<double>(off.redundant_connections -
                                        on.redundant_connections) /
                    static_cast<double>(off.redundant_connections));
  }
  return 0;
}
