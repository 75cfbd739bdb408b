// Appendix A.4 companion: "time and also vantage point influencing the
// load-balancing influence whether domains resolve to the same IP and
// connection reuse is effective or not."
//
// The same site set is crawled from four of the paper's Table 11 vantage
// points (Aachen, US, Japan, Brazil). Per vantage: the IP-cause volume and
// the Spearman correlation of the top-origin ranking against the Aachen
// run — the paper's explanation for why its own results and the HTTP
// Archive's differ in the tail but agree on the heavy hitters.
#include <cstdio>
#include <vector>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/report.hpp"
#include "experiments/study.hpp"
#include "obs/observer.hpp"
#include "stats/distribution.hpp"
#include "stats/table.hpp"
#include "util/format.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

namespace {

/// Exact-model aggregate over every reachable site of a crawl.
class AggregateObserver final : public obs::Observer {
 public:
  void site(unsigned /*worker*/, browser::SiteResult& site) override {
    if (!site.reachable) return;
    agg.add_site(site.netlog_observation,
                 core::classify_site(site.netlog_observation,
                                     {core::DurationModel::kExact}));
  }

  core::Aggregator agg;
};

core::AggregateReport crawl_from(const web::SiteUniverse& universe,
                                 std::size_t vantage_index,
                                 const char* region, std::size_t sites,
                                 std::uint64_t seed) {
  browser::CrawlOptions crawl;
  crawl.vantage_index = vantage_index;
  crawl.browser.vantage_region = region;
  crawl.seed = seed;
  AggregateObserver observer;  // one worker: no shards needed
  crawl.observer = &observer;
  browser::crawl(universe, 0, sites, crawl);
  return observer.agg.report();
}

std::vector<double> ranking_vector(const core::AggregateReport& report,
                                   const std::vector<std::string>& keys) {
  std::vector<double> out;
  for (const std::string& key : keys) {
    const auto it = report.ip_origins.find(key);
    out.push_back(it == report.ip_origins.end()
                      ? 0.0
                      : static_cast<double>(it->second.connections));
  }
  return out;
}

}  // namespace

int main() {
  const experiments::StudyConfig sc = experiments::StudyConfig::from_env();
  const std::size_t sites = std::min<std::size_t>(sc.alexa_sites, 1000);

  web::Ecosystem eco{sc.seed};
  web::ServiceCatalog catalog{eco, sc.seed};
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = sc.seed;
  web::SiteUniverse universe{eco, catalog, config};

  struct Vantage {
    std::size_t index;
    const char* name;
    const char* region;
  };
  const std::vector<Vantage> vantages = {
      {0, "Aachen (paper)", "eu"},
      {12, "Level3 US", "us"},
      {10, "Marss Japan", "apac"},
      {4, "Ver Tv Brazil", "sa"},
  };

  std::printf("# Appendix A.4 companion: the same %zu sites from 4 vantage "
              "points\n\n",
              sites);

  std::vector<core::AggregateReport> reports;
  for (const Vantage& vantage : vantages) {
    reports.push_back(crawl_from(universe, vantage.index, vantage.region,
                                 sites, sc.seed + vantage.index));
  }

  // Rank correlation of the top-15 origins vs the Aachen run.
  std::vector<std::string> reference_keys;
  for (const auto& [origin, tally] : core::top_k(reports[0].ip_origins, 15)) {
    (void)tally;
    reference_keys.push_back(origin);
  }
  const std::vector<double> reference =
      ranking_vector(reports[0], reference_keys);

  stats::Table table({"Vantage", "IP-redundant conns", "redundant sites",
                      "top-origin rank corr. vs Aachen"},
                     {stats::Align::kLeft});
  for (std::size_t i = 0; i < vantages.size(); ++i) {
    const auto& r = reports[i];
    const auto ip = r.by_cause.find(core::Cause::kIp);
    table.add_row(
        {vantages[i].name,
         util::human_count(ip == r.by_cause.end() ? 0
                                                  : ip->second.connections),
         util::percent(static_cast<double>(r.redundant_sites),
                       static_cast<double>(r.h2_sites)),
         i == 0 ? "1.00"
                : util::fixed(stats::spearman(
                                  reference,
                                  ranking_vector(r, reference_keys)),
                              2)});
  }
  std::printf("%s\n", table.render("IP cause by vantage point").c_str());
  std::printf(
      "reading: totals agree across vantages but the origin ranking only\n"
      "correlates moderately — the geo-dependent Google domains swap\n"
      "(www.google.de from the EU vantage vs www.google.com elsewhere,\n"
      "the paper's own Table 8 observation) and per-resolver DNS rotation\n"
      "shifts the tail. This is the paper's explanation for the\n"
      "HTTP-Archive-vs-Alexa differences (§5.1, Appendix A.4).\n");
  return 0;
}
