// `audit`: the `h2r audit` path over a corpus of HAR JSON documents, one
// client in a closed loop on one thread: har::parse (json::parse +
// har::from_json) -> har::import_site -> core::classify_site (endless) ->
// core::audit_site (the per-remedy policy replays) -> core::render.
//
// Decoding outside input, the classifier and the policy replays carry the
// load; web, dns and browser do no work in the timed loop. A browser-side
// gain must show no change here, and a classifier gain shows most
// clearly here.
#include <string>
#include <vector>

#include "common.hpp"
#include "core/advisor.hpp"
#include "har/export.hpp"
#include "har/har.hpp"
#include "har/import.hpp"
#include "obs/observer.hpp"
#include "util/rng.hpp"

namespace h2bench {

namespace {

/// Sites crawled to build the corpus (unreachable ones yield no document).
constexpr std::size_t kCorpusSites = 2800;
/// World + corpus builds per run; setup_s is their median.
constexpr int kSetupRepeats = 7;
/// A run goes on past --seconds until it has this many passes.
constexpr std::size_t kMinPasses = 10;

/// Exports every reachable page of a HAR-path crawl as a HAR document,
/// with the HAR path's quirks and its per-site quirk RNG.
class CorpusObserver final : public obs::Observer {
 public:
  explicit CorpusObserver(const Campaign& campaign) : campaign_(&campaign) {}

  void site(unsigned worker, browser::SiteResult& result) override {
    (void)worker;
    if (!result.reachable) return;
    const browser::CrawlOptions& options = campaign_->options;
    util::Rng quirk_rng{
        util::hash_seed(util::combine_seed(options.seed, 0x4a52),
                        result.netlog_observation.site_url)};
    const har::Log log =
        har::export_site(result.netlog_observation, result.page.h1_entries,
                         options.har_quirks, quirk_rng);
    documents.push_back(har::to_string(log));
  }

  std::vector<std::string> documents;

 private:
  const Campaign* campaign_;
};

std::vector<std::string> build_corpus(std::uint64_t seed) {
  World world = make_world(seed, kCorpusSites / 2, kCorpusSites);
  const Campaign campaign = har_campaign(seed, 0, kCorpusSites);
  CorpusObserver observer{campaign};
  browser::CrawlOptions options = campaign.options;
  options.har_path = false;  // the observer exports; nothing re-imports
  options.threads = 1;
  options.observer = &observer;
  (void)browser::crawl(*world.universe, 0, kCorpusSites, options);
  world.clear();
  return std::move(observer.documents);
}

const core::Policy kEndless{core::DurationModel::kEndless};

/// One document through `h2r audit`. Returns false on a decode error.
bool audit_document(const std::string& text, std::string& rendered) {
  const auto log = har::parse(text);
  if (!log) return false;
  har::ImportStats stats;
  const core::SiteObservation site = har::import_site(*log, &stats);
  const core::SiteClassification cls = core::classify_site(site, kEndless);
  rendered += core::render(core::audit_site(site, cls, kEndless));
  return true;
}

struct TracedPass {
  double wall_ms = 0.0;
  std::string digest;
  Tracer tracer;
  har::ImportStats stats;
  std::uint64_t bytes = 0;
  std::uint64_t redundant = 0;
  std::uint64_t connections = 0;
  std::uint64_t failed = 0;
};

/// The same pass with har::parse split into its two calls and
/// classify_site into prepare + classify, each inside a span.
TracedPass traced_pass(const std::vector<std::string>& corpus) {
  TracedPass pass;
  Tracer& tracer = pass.tracer;
  core::ClassifyContext context;
  std::string rendered;
  const double start = now_ms();
  for (const std::string& text : corpus) {
    pass.bytes += text.size();
    const auto value =
        tracer.span(Layer::kJsonParse, [&] { return json::parse(text); });
    if (!value) {
      ++pass.failed;
      continue;
    }
    const auto log = tracer.span(Layer::kHarFromJson,
                                 [&] { return har::from_json(*value); });
    if (!log) {
      ++pass.failed;
      continue;
    }
    const core::SiteObservation site = tracer.span(
        Layer::kHarImport, [&] { return har::import_site(*log, &pass.stats); });
    tracer.span(Layer::kCorePrepare, [&] { context.prepare(site); });
    const core::SiteClassification cls = tracer.span(
        Layer::kCoreClassify, [&] { return context.classify(kEndless); });
    pass.redundant += cls.redundant_connections();
    pass.connections += cls.total_connections;
    const core::AuditReport report = tracer.span(Layer::kCoreAudit, [&] {
      return core::audit_site(site, cls, kEndless);
    });
    tracer.span(Layer::kCoreRender, [&] { rendered += core::render(report); });
  }
  pass.digest = digest(rendered);
  pass.wall_ms = now_ms() - start;
  return pass;
}

}  // namespace

Outcome run_audit(const RunArgs& args) {
  Outcome out;
  out.threads = 1;
  const std::uint64_t seed = program_seed(args.seed);

  SetupTimer setup{kSetupRepeats, args.seconds * 1000.0};
  std::vector<std::string> corpus;
  setup.measure([&] { corpus = build_corpus(seed); });
  if (corpus.empty()) {
    out.errors.push_back("empty audit corpus");
    return out;
  }

  // One pass over the corpus through `h2r audit`'s calls; returns its
  // wall time and, when asked, fills in the per-document times.
  auto pass = [&](std::vector<double>* doc_ms) {
    std::string rendered;
    const double start = now_ms();
    for (const std::string& text : corpus) {
      const double doc_start = now_ms();
      if (!audit_document(text, rendered)) ++out.failed;
      if (doc_ms != nullptr) doc_ms->push_back(now_ms() - doc_start);
    }
    out.attempted += corpus.size();
    out.digests.push_back(digest(rendered));
    return now_ms() - start;
  };

  // One warm-up pass (checked, not timed), then passes until the
  // measuring time is used up. A trace run follows every untraced pass
  // with a traced one, so both see the same phases of the machine.
  (void)pass(nullptr);
  const Metric rss = peak_rss();
  BatchLog log;
  std::vector<TracedPass> traced;
  std::vector<double> overheads;
  setup.open_window();
  const double start = now_ms();
  while (log.wall_ms.size() < kMinPasses ||
         now_ms() - start < args.seconds * 1000.0) {
    if (setup.due()) setup.measure([&] { (void)build_corpus(seed); });
    log.record([&](std::vector<double>& doc_ms) { return pass(&doc_ms); });
    if (!args.trace) continue;
    traced.push_back(traced_pass(corpus));
    out.attempted += corpus.size();
    out.failed += traced.back().failed;
    out.traced_digests.push_back(traced.back().digest);
    overheads.push_back(traced.back().wall_ms / log.wall_ms.back());
  }

  if (!args.trace) {
    out.metrics["setup_s"] = setup.metric("world + corpus builds");
    throughput_metrics(log, static_cast<double>(corpus.size()),
                       "HAR documents", out);
    out.metrics["peak_rss_mib"] = rss;
    return out;
  }

  Tracer totals;
  har::ImportStats stats;
  std::uint64_t bytes = 0;
  std::uint64_t redundant = 0;
  std::uint64_t connections = 0;
  double traced_total_ms = 0.0;
  for (const TracedPass& p : traced) {
    totals.add(p.tracer);
    stats.add(p.stats);
    bytes += p.bytes;
    redundant += p.redundant;
    connections += p.connections;
    traced_total_ms += p.wall_ms;
  }
  const double docs =
      static_cast<double>(traced.size()) * static_cast<double>(corpus.size());
  layer_metrics(totals, docs, out);
  out.metrics["har.used_ratio"] = {
      ratio(stats.used_entries, stats.total_entries),
      "used / total HAR entries"};
  out.metrics["json.bytes"] = {static_cast<double>(bytes) / docs,
                               "per HAR document"};
  out.metrics["core.redundant_ratio"] = {ratio(redundant, connections),
                                         "endless durations"};
  out.metrics["trace.overhead_ratio"] = {
      median(overheads),
      "traced / untraced wall of adjacent passes, median"};
  out.metrics["trace.unattributed_ratio"] = {
      1.0 - totals.attributed_ms() / traced_total_ms,
      "traced wall outside every layer span"};
  return out;
}

}  // namespace h2bench
