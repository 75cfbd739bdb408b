// The observability substrate: metric accumulators and their commutative
// merge, the strict JSON snapshot round trip, the human renderings, and
// the golden span trace of one pinned site (seed 42 / crawl seed 1234,
// rank 0) — the trace is simulated-time-stamped, so its bytes are part of
// the determinism contract.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "browser/crawl.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/span.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2r::obs {
namespace {

TEST(Metrics, CountersGaugesHistogramsAccumulate) {
  Metrics m;
  EXPECT_TRUE(m.empty());
  m.add("dns.queries");
  m.add("dns.queries", 4);
  m.gauge_max("browser.max_sessions_per_page", 3);
  m.gauge_max("browser.max_sessions_per_page", 7);
  m.gauge_max("browser.max_sessions_per_page", 5);
  m.observe("browser.page_load_ms", 120);
  m.observe("browser.page_load_ms", 120);
  m.observe("browser.page_load_ms", 480, 3);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.counter("dns.queries"), 5u);
  EXPECT_EQ(m.counter("never.recorded"), 0u);
  EXPECT_EQ(m.gauge("browser.max_sessions_per_page"), 7);
  EXPECT_EQ(m.gauge("never.recorded"), 0);
  const stats::TimeHistogram& h = m.histogram("browser.page_load_ms");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h.at(120), 2u);
  EXPECT_EQ(h.at(480), 3u);
  EXPECT_TRUE(m.histogram("never.recorded").empty());
}

TEST(Metrics, MergeIsCommutative) {
  Metrics a;
  a.add("c", 2);
  a.gauge_max("g", 10);
  a.observe("h", 5);
  a.add_diag("d", 1);
  Metrics b;
  b.add("c", 3);
  b.add("only_b");
  b.gauge_max("g", 4);
  b.observe("h", 5, 2);
  b.observe("h", 9);

  Metrics ab = a;
  ab.merge(b);
  Metrics ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.counter("c"), 5u);
  EXPECT_EQ(ab.counter("only_b"), 1u);
  EXPECT_EQ(ab.gauge("g"), 10);
  EXPECT_EQ(ab.histogram("h").at(5), 3u);
  EXPECT_EQ(ab.histogram("h").at(9), 1u);
  EXPECT_EQ(ab.diag_counter("d"), 1u);
}

TEST(Metrics, DiagnosticsInvisibleToEqualityAndJson) {
  Metrics a;
  a.add("c");
  Metrics b;
  b.add("c");
  b.add_diag("crawl.chunks_claimed", 9);
  EXPECT_EQ(a, b);  // diag domain excluded, like WorkerCounters
  EXPECT_EQ(json::write(to_json(a)), json::write(to_json(b)));
}

TEST(MetricRegistry, ShardsMergeInAnyOrder) {
  MetricRegistry registry;
  registry.shard(0).add("c", 1);
  registry.shard(2).add("c", 4);  // creates shard 1 implicitly
  registry.shard(1).observe("h", 7);
  EXPECT_EQ(registry.shard_count(), 3u);
  const Metrics merged = registry.merged();
  EXPECT_EQ(merged.counter("c"), 5u);
  EXPECT_EQ(merged.histogram("h").at(7), 1u);
}

Metrics sample_metrics() {
  Metrics m;
  m.add("dns.queries", 123);
  m.add("tls.handshakes", 45);
  m.gauge_max("browser.max_sessions_per_page", 11);
  m.observe("browser.page_load_ms", 250, 2);
  m.observe("browser.page_load_ms", 900);
  m.add_diag("journal.bytes", 4096);
  return m;
}

TEST(MetricsJson, RoundTripsExactly) {
  const Metrics m = sample_metrics();
  const json::Value doc = to_json(m);
  const auto parsed = metrics_from_json(doc);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(*parsed, m);
  // And the re-serialized bytes match — what CI diffs.
  EXPECT_EQ(json::write(to_json(*parsed)), json::write(doc));
}

TEST(MetricsJson, ParserRejectsMalformedDocuments) {
  auto reject = [](const char* text, const char* why) {
    const auto doc = json::parse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    const auto parsed = metrics_from_json(doc.value());
    EXPECT_FALSE(parsed.has_value()) << why;
  };
  reject("[]", "not an object");
  reject(R"({"counters":{},"gauges":{},"histograms":{},"bonus":{}})",
         "unknown top-level key");
  reject(R"({"counters":[],"gauges":{},"histograms":{}})",
         "counters section not an object");
  reject(R"({"counters":{"c":-1},"gauges":{},"histograms":{}})",
         "negative counter");
  reject(R"({"counters":{"c":1.5},"gauges":{},"histograms":{}})",
         "non-integer counter");
  reject(R"({"counters":{},"gauges":{"g":"x"},"histograms":{}})",
         "non-integer gauge");
  reject(R"({"counters":{},"gauges":{},"histograms":{"h":[[1]]}})",
         "histogram entry not a pair");
  reject(R"({"counters":{},"gauges":{},"histograms":{"h":[[1,0]]}})",
         "non-positive histogram count");
  reject(R"({"counters":{},"gauges":{},"histograms":{"h":[[5,1],[5,2]]}})",
         "unsorted/duplicate histogram samples");
}

TEST(MetricsRender, TableListsEveryDomain) {
  const std::string table = render_table(sample_metrics());
  EXPECT_NE(table.find("dns.queries"), std::string::npos);
  EXPECT_NE(table.find("browser.max_sessions_per_page"), std::string::npos);
  EXPECT_NE(table.find("browser.page_load_ms"), std::string::npos);
  EXPECT_NE(table.find("p50="), std::string::npos);
  EXPECT_NE(table.find("(diagnostic)"), std::string::npos);
  EXPECT_EQ(render_table(Metrics{}), "");
}

// ------------------------------------------------------------- span trees

TEST(Trace, BuildsParentChildStructure) {
  Trace trace;
  trace.site = "https://example.org";
  const int root = trace.begin_span("page.load", 100);
  const int child = trace.begin_span("dns.resolve", 100, root);
  trace.end_span(child, 100);
  trace.end_span(root, 250);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].parent, -1);
  EXPECT_EQ(trace.spans[1].parent, root);
  EXPECT_EQ(trace.spans[0].end, 250);
  const json::Value doc = to_json(trace);
  EXPECT_EQ(doc["site"].as_string(), "https://example.org");
  EXPECT_EQ(doc["spans"].as_array().size(), 2u);
}

/// Keeps the page trace of the (single) site a crawl visits.
class TraceObserver final : public Observer {
 public:
  void site(unsigned /*worker*/, browser::SiteResult& site) override {
    ++sites;
    trace = std::move(site.page.trace);
  }

  int sites = 0;
  Trace trace;
};

Trace crawl_pinned_trace() {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  const web::SiteUniverse universe{eco, catalog};
  browser::CrawlOptions options;
  options.seed = 1234;
  options.browser.record_trace = true;
  TraceObserver observer;
  options.observer = &observer;
  browser::crawl(universe, 0, 1, options);
  return observer.trace;
}

// The golden render of site rank 0 under universe seed 42 / crawl seed
// 1234. Every timestamp is simulated, so this string is stable across
// machines, thread counts and runs; it changes only when the browser
// model itself changes (then re-pin deliberately).
constexpr const char* kGoldenTrace =
    "https://www.site0.com\n"
    "  page.load [86400000 .. 86402419]\n"
    "    dns.resolve [86400000 .. 86400000] from_cache=0 host=www.site0.com\n"
    "    h2.session [86400000 .. 86402419] host=www.site0.com "
    "ip=104.21.26.71 protocol=h2\n"
    "      tls.handshake [86400000 .. 86400095]\n"
    "    dns.resolve [86400197 .. 86400197] from_cache=0 host=fonts.gstatic.com\n"
    "    h2.session [86400197 .. 86402419] host=fonts.gstatic.com "
    "ip=142.250.0.4 protocol=h2\n"
    "      tls.handshake [86400197 .. 86400262]\n"
    "    dns.resolve [86400299 .. 86400299] from_cache=0 "
    "host=fonts.googleapis.com\n"
    "    h2.session [86400299 .. 86402419] host=fonts.googleapis.com "
    "ip=142.250.0.14 protocol=h2\n"
    "      tls.handshake [86400299 .. 86400366]\n"
    "    dns.resolve [86400324 .. 86400324] from_cache=0 host=img.site0.com\n"
    "    h2.session [86400324 .. 86402419] host=img.site0.com "
    "ip=104.21.26.71 protocol=h2\n"
    "      tls.handshake [86400324 .. 86400415]\n"
    "    dns.resolve [86400424 .. 86400424] from_cache=1 host=fonts.gstatic.com\n"
    "    h2.session [86400424 .. 86402419] host=fonts.gstatic.com "
    "ip=142.250.0.6 protocol=h2\n"
    "      tls.handshake [86400424 .. 86400490]\n"
    "    dns.resolve [86400465 .. 86400465] from_cache=0 host=www.gstatic.com\n"
    "    h2.session [86400465 .. 86402419] host=www.gstatic.com "
    "ip=142.250.0.3 protocol=h2\n"
    "      tls.handshake [86400465 .. 86400533]\n"
    "    dns.resolve [86400506 .. 86400506] from_cache=0 "
    "host=www.googletagmanager.com\n"
    "    h2.session [86400506 .. 86402419] host=www.googletagmanager.com "
    "ip=142.250.0.7 protocol=h2\n"
    "      tls.handshake [86400506 .. 86400576]\n"
    "    dns.resolve [86400607 .. 86400607] from_cache=0 "
    "host=cdn.svc36.example-cdn.net\n"
    "    h2.session [86400607 .. 86402419] host=cdn.svc36.example-cdn.net "
    "ip=152.195.0.2 protocol=h2\n"
    "      tls.handshake [86400607 .. 86400679]\n"
    "    dns.resolve [86400671 .. 86400671] from_cache=0 "
    "host=www.google-analytics.com\n"
    "    h2.session [86400671 .. 86402419] host=www.google-analytics.com "
    "ip=142.250.0.9 protocol=h2\n"
    "      tls.handshake [86400671 .. 86400738]\n"
    "    dns.resolve [86400716 .. 86400716] from_cache=0 host=apis.google.com\n"
    "    h2.session [86400716 .. 86402419] host=apis.google.com "
    "ip=142.250.0.16 protocol=h2\n"
    "      tls.handshake [86400716 .. 86400780]\n"
    "    dns.resolve [86400829 .. 86400829] from_cache=0 "
    "host=cdn.svc47.example-cdn.net\n"
    "    h2.session [86400829 .. 86402419] host=cdn.svc47.example-cdn.net "
    "ip=13.32.0.47 protocol=h2\n"
    "      tls.handshake [86400829 .. 86400865]\n"
    "    dns.resolve [86400889 .. 86400889] from_cache=0 "
    "host=cdn.svc140.example-cdn.net\n"
    "    h2.session [86400889 .. 86402419] host=cdn.svc140.example-cdn.net "
    "ip=13.32.0.125 protocol=h2\n"
    "      tls.handshake [86400889 .. 86400922]\n"
    "    dns.resolve [86400949 .. 86400949] from_cache=0 "
    "host=cdn.svc24.example-cdn.net\n"
    "    h2.session [86400949 .. 86402419] host=cdn.svc24.example-cdn.net "
    "ip=54.144.0.9 protocol=h2\n"
    "      tls.handshake [86400949 .. 86401002]\n"
    "    dns.resolve [86401013 .. 86401013] from_cache=0 "
    "host=app.svc140.example-cdn.net\n"
    "    dns.resolve [86401133 .. 86401133] from_cache=0 host=ogs.google.com\n"
    "    dns.resolve [86401212 .. 86401212] from_cache=0 host=www.google.de\n"
    "    dns.resolve [86401385 .. 86401385] from_cache=0 "
    "host=stats.g.doubleclick.net\n"
    "    h2.session [86401385 .. 86402419] host=stats.g.doubleclick.net "
    "ip=142.250.0.21 protocol=h2\n"
    "      tls.handshake [86401385 .. 86401454]\n"
    "    site.classify [86402419 .. 86402419]\n";

TEST(TraceGolden, PinnedSiteRendersExactly) {
  const Trace trace = crawl_pinned_trace();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.site, "https://www.site0.com");
  EXPECT_EQ(trace.spans[0].name, "page.load");
  EXPECT_EQ(trace.spans[0].parent, -1);
  for (std::size_t i = 1; i < trace.spans.size(); ++i) {
    // Pre-order invariant: every child follows its parent.
    ASSERT_GE(trace.spans[i].parent, 0) << "span " << i;
    ASSERT_LT(trace.spans[i].parent, static_cast<int>(i)) << "span " << i;
  }
  EXPECT_EQ(render(trace), kGoldenTrace);
}

TEST(TraceGolden, RerunIsBitIdentical) {
  EXPECT_EQ(render(crawl_pinned_trace()), render(crawl_pinned_trace()));
}

TEST(TraceOffByDefault, StudyPathAllocatesNoSpans) {
  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  const web::SiteUniverse universe{eco, catalog};
  browser::CrawlOptions options;
  options.seed = 1234;  // record_trace left off
  TraceObserver observer;
  options.observer = &observer;
  browser::crawl(universe, 0, 1, options);
  EXPECT_EQ(observer.sites, 1);
  EXPECT_TRUE(observer.trace.empty());
}

}  // namespace
}  // namespace h2r::obs
