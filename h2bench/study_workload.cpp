// `study`: the product command (`h2r study`) — experiments::run_study's
// three campaigns (HAR-path US crawl, Alexa NetLog crawl, Alexa without
// Fetch) in streaming mode, journaling and spilling into a benchmark
// scratch directory, on one worker thread per campaign. run_study runs
// the three campaigns at once, so three workers are busy. Each batch is
// one run_study call.
//
// It carries the crawl layers (web, dns, browser, netlog) and is the only
// workload where HAR export, journal fsyncs and spill read-back do work;
// the three workers share the journal's mutex.
#include <atomic>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "experiments/study.hpp"
#include "journal/checkpoint.hpp"
#include "journal/journal.hpp"
#include "journal/spill.hpp"

namespace h2bench {

namespace {

// Population sizes, fixed by the workload. Page loads per study:
// 2 * kAlexaSites + kHarSites. A study this small takes a few tenths of
// a second, so a run holds over a hundred of them, each paired with its
// own reference-loop time.
constexpr std::size_t kAlexaSites = 400;
constexpr std::size_t kHarSites = 600;
constexpr std::size_t kHarFirstRank = 200;
constexpr int kSetupRepeats = 45;
/// A run goes on past --seconds until it has this many calls.
constexpr std::size_t kMinCalls = 20;

std::size_t page_loads() { return 2 * kAlexaSites + kHarSites; }

experiments::StudyConfig study_config(std::uint64_t seed,
                                      const std::string& scratch) {
  experiments::StudyConfig config;
  config.alexa_sites = kAlexaSites;
  config.har_sites = kHarSites;
  config.har_first_rank = kHarFirstRank;
  config.seed = seed;
  config.threads = kStudyThreadsPerCampaign;
  config.stream = true;
  config.journal_path = scratch + "/study.journal";
  config.spill_dir = scratch + "/spill";
  return config;
}

/// The study's deterministic output: the shape `h2r study --json` writes.
struct StudyOutput {
  std::map<std::string, const core::AggregateReport*> reports;
  std::map<std::string, const browser::CrawlSummary*> summaries;
  std::uint64_t overlap_sites = 0;

  std::string write() const {
    json::Object reports_json;
    for (const auto& [name, report] : reports) {
      reports_json.set(name, report_json(*report));
    }
    json::Object summaries_json;
    for (const auto& [name, summary] : summaries) {
      summaries_json.set(name, journal::to_json(*summary));
    }
    json::Object root;
    root.set("reports", std::move(reports_json));
    root.set("summaries", std::move(summaries_json));
    root.set("overlap_sites", static_cast<std::int64_t>(overlap_sites));
    return json::write(json::Value{std::move(root)});
  }
};

std::string untraced_output(const experiments::StudyResults& r) {
  StudyOutput out;
  out.reports = {{"har_endless", &r.har_endless},
                 {"har_immediate", &r.har_immediate},
                 {"alexa_exact", &r.alexa_exact},
                 {"alexa_endless", &r.alexa_endless},
                 {"nofetch_exact", &r.nofetch_exact},
                 {"overlap_har_endless", &r.overlap_har_endless},
                 {"overlap_alexa_endless", &r.overlap_alexa_endless}};
  out.summaries = {{"har", &r.har_summary},
                   {"alexa", &r.alexa_summary},
                   {"nofetch", &r.nofetch_summary}};
  out.overlap_sites = r.overlap_sites;
  return out.write();
}

// ------------------------------------------------------------ traced run

/// What one traced campaign produced.
struct TracedCampaign {
  Campaign campaign;
  std::map<std::string, core::AggregateReport> reports;
  std::uint64_t overlap_sites = 0;
  LoadCounts counts;
  std::vector<Tracer> tracers;  // one per thread
  double thread_ms = 0.0;  // worker-loop and finish time, all threads
};

/// One campaign as run_study drives it in windowed mode: its workers
/// claim chunks of count / (threads * 8) sites; each drained chunk
/// becomes a ChunkCheckpoint that is journaled and folded.
void traced_campaign(World& world, journal::JournalWriter& writer,
                     const std::string& spill_dir, TracedCampaign& result,
                     std::mutex& error_mutex, std::string& error) {
  const Campaign& campaign = result.campaign;
  auto fail = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (error.empty()) error = message;
  };
  auto spilling = journal::ReportFold::spilling(
      spill_dir + "/h2r-spill-" + campaign.name + ".spill");
  if (!spilling) {
    fail("spill fold: " + spilling.error().message);
    return;
  }
  journal::ReportFold& fold = **spilling;
  const std::size_t chunk =
      std::max<std::size_t>(
      1, campaign.count / (kStudyThreadsPerCampaign * 8u));
  std::atomic<std::size_t> next{0};

  struct WorkerState {
    std::unique_ptr<TracedWorker> worker;
    std::unique_ptr<Shard> shard;
    browser::CrawlSummary summary;
    double wall_ms = 0.0;
  };
  std::vector<WorkerState> states(kStudyThreadsPerCampaign);
  result.tracers.resize(kStudyThreadsPerCampaign);
  for (unsigned t = 0; t < kStudyThreadsPerCampaign; ++t) {
    states[t].worker =
        std::make_unique<TracedWorker>(*world.universe, campaign);
    states[t].shard =
        std::make_unique<Shard>(campaign, &world.eco->as_database());
  }
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kStudyThreadsPerCampaign; ++t) {
    pool.emplace_back([&, t] {
      try {
        WorkerState& state = states[t];
        Tracer& tracer = result.tracers[t];
        const double start = now_ms();
        for (;;) {
          const std::size_t begin = next.fetch_add(chunk);
          if (begin >= campaign.count) break;
          const std::size_t end = std::min(campaign.count, begin + chunk);
          journal::ChunkCheckpoint checkpoint;
          checkpoint.campaign = campaign.name;
          checkpoint.ranges.emplace_back(campaign.first_rank + begin,
                                         end - begin);
          for (std::size_t rel = begin; rel < end; ++rel) {
            browser::SiteResult site;
            state.worker->load(campaign.first_rank + rel,
                               campaign.options.start_time +
                                   static_cast<util::SimTime>(rel) *
                                       campaign.options.site_interval,
                               site, tracer);
            account(checkpoint.summary, site);
            state.shard->add(site, &tracer);
          }
          for (const auto& [name, aggregator] : state.shard->reports()) {
            checkpoint.reports.emplace_back(name, aggregator.report());
          }
          checkpoint.overlap_sites = state.shard->overlap_sites();
          auto appended = tracer.span(Layer::kJournalAppend, [&] {
            return writer.append(journal::to_json(checkpoint));
          });
          if (!appended) fail("journal append: " + appended.error().message);
          auto folded = tracer.span(Layer::kJournalFold,
                                    [&] { return fold.fold(checkpoint); });
          if (!folded) fail("spill fold: " + folded.error().message);
          state.summary.merge(checkpoint.summary);
          state.shard->reset();
        }
        state.wall_ms = now_ms() - start;
      } catch (const std::exception& e) {
        fail(std::string("traced worker: ") + e.what());
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  const double finish_start = now_ms();
  auto totals = result.tracers[0].span(Layer::kJournalFinish,
                                        [&] { return fold.finish(); });
  if (!totals) {
    fail("fold finish: " + totals.error().message);
    return;
  }
  result.reports = totals->reports;
  result.overlap_sites = totals->overlap_sites;
  result.thread_ms += now_ms() - finish_start;
  for (WorkerState& state : states) {
    result.counts.summary.merge(state.summary);
    result.counts.count_worker(*state.worker);
    result.counts.count_shard(*state.shard);
    result.thread_ms += state.wall_ms;
  }
}

struct TracedStudy {
  double wall_ms = 0.0;
  double thread_ms = 0.0;
  std::string digest;
  std::string error;
  Tracer coordinator;
  std::vector<TracedCampaign> campaigns;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_fsyncs = 0;
};

/// run_study driven through the layers' public functions, in the order
/// it calls them: universe, journal, three concurrent campaigns, folds.
TracedStudy traced_study(std::uint64_t seed, const std::string& scratch) {
  TracedStudy study;
  const double start = now_ms();
  World world = study.coordinator.span(Layer::kWebUniverse, [&] {
    return make_world(seed, kAlexaSites / 2, kHarFirstRank + kHarSites);
  });
  json::Object fingerprint;
  fingerprint.set("bench", "h2bench traced study");
  auto writer = journal::JournalWriter::create(
      scratch + "/study-traced.journal", json::Value{std::move(fingerprint)});
  if (!writer) {
    study.error = "journal create: " + writer.error().message;
    return study;
  }
  const std::size_t overlap_end =
      std::min(kAlexaSites, kHarFirstRank + kHarSites);
  study.campaigns.resize(kStudyCampaigns);
  study.campaigns[0].campaign = alexa_campaign(seed, kAlexaSites);
  study.campaigns[1].campaign = nofetch_campaign(seed, kAlexaSites);
  study.campaigns[2].campaign = har_campaign(seed, kHarFirstRank, kHarSites);
  for (TracedCampaign& c : study.campaigns) {
    if (c.campaign.name != "nofetch") {
      c.campaign.overlap_begin = kHarFirstRank;
      c.campaign.overlap_end = overlap_end;
    }
  }
  study.thread_ms += now_ms() - start;

  std::mutex error_mutex;  // guards: study.error
  std::vector<std::thread> campaigns;
  for (TracedCampaign& c : study.campaigns) {
    campaigns.emplace_back([&] {
      try {
        traced_campaign(world, **writer, scratch + "/spill", c, error_mutex,
                        study.error);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (study.error.empty()) study.error = e.what();
      }
    });
  }
  for (std::thread& thread : campaigns) thread.join();

  const double output_start = now_ms();
  study.journal_bytes = (*writer)->bytes_written();
  study.journal_fsyncs = (*writer)->fsync_count();
  TracedCampaign& alexa = study.campaigns[0];
  TracedCampaign& nofetch = study.campaigns[1];
  TracedCampaign& har = study.campaigns[2];
  StudyOutput out;
  out.reports = {{"har_endless", &har.reports["endless"]},
                 {"har_immediate", &har.reports["immediate"]},
                 {"alexa_exact", &alexa.reports["exact"]},
                 {"alexa_endless", &alexa.reports["endless"]},
                 {"nofetch_exact", &nofetch.reports["exact"]},
                 {"overlap_har_endless", &har.reports["overlap"]},
                 {"overlap_alexa_endless", &alexa.reports["overlap"]}};
  out.summaries = {{"har", &har.counts.summary},
                   {"alexa", &alexa.counts.summary},
                   {"nofetch", &nofetch.counts.summary}};
  out.overlap_sites = har.overlap_sites;
  study.digest = digest(out.write());
  for (TracedCampaign& c : study.campaigns) c.reports.clear();
  const double end = now_ms();
  study.thread_ms += end - output_start;
  study.wall_ms = end - start;
  for (const TracedCampaign& c : study.campaigns) {
    study.thread_ms += c.thread_ms;
  }
  return study;
}

struct Call {
  double wall_ms = 0.0;
  std::string digest;
  /// The three campaigns' crawl summaries (alexa, nofetch, har); empty
  /// when run_study failed.
  std::vector<browser::CrawlSummary> crawls;
};

Call untraced_call(const experiments::StudyConfig& config, Outcome& out) {
  Call call;
  out.attempted += page_loads();
  const double start = now_ms();
  try {
    const experiments::StudyResults results = experiments::run_study(config);
    call.wall_ms = now_ms() - start;
    if (results.total_failures().total_injected() != 0) {
      out.failed += page_loads();
      out.errors.push_back("fault ledger is non-zero at fault rate 0");
    }
    call.digest = digest(untraced_output(results));
    call.crawls = {results.alexa_summary, results.nofetch_summary,
                   results.har_summary};
  } catch (const std::exception& e) {
    call.wall_ms = now_ms() - start;
    out.failed += page_loads();
    out.errors.push_back(std::string("run_study: ") + e.what());
  }
  return call;
}

}  // namespace

Outcome run_study_workload(const RunArgs& args) {
  Outcome out;
  const std::uint64_t seed = program_seed(args.seed);
  const std::string scratch = args.scratch + "/study";
  std::filesystem::create_directories(scratch + "/spill");

  // run_study builds its own world; the benchmark's set-up is the same
  // build, timed on its own.
  SetupTimer setup{kSetupRepeats, args.seconds * 1000.0};
  auto build_world = [&] {
    make_world(seed, kAlexaSites / 2, kHarFirstRank + kHarSites).clear();
  };
  setup.measure(build_world);

  // One warm-up call (checked, not timed), then calls until the measuring
  // time is used up. A trace run follows every run_study call with a
  // traced study, so both see the same phases of the machine.
  const experiments::StudyConfig config = study_config(seed, scratch);
  const Call warm_up = untraced_call(config, out);
  out.digests.push_back(warm_up.digest);
  out.threads = 0;
  for (const browser::CrawlSummary& crawl : warm_up.crawls) {
    out.threads += static_cast<unsigned>(crawl.per_worker.size());
  }
  const Metric rss = peak_rss();
  BatchLog log;
  log.threads = out.threads;
  std::vector<Call> calls;
  std::vector<TracedStudy> traced;
  std::vector<double> overheads;
  setup.open_window();
  const double start = now_ms();
  while (calls.size() < kMinCalls ||
         now_ms() - start < args.seconds * 1000.0) {
    if (setup.due()) setup.measure(build_world);
    log.record([&](std::vector<double>& unit_ms) {
      calls.push_back(untraced_call(config, out));
      // run_study has no per-site hook. The finest per-site latency it
      // exposes is each campaign's worker CPU time per site: CPU rather
      // than wall time, so that a worker's wait for a core on a loaded
      // host does not count.
      for (const browser::CrawlSummary& crawl : calls.back().crawls) {
        double cpu_ms = 0.0;
        std::uint64_t sites = 0;
        for (const browser::WorkerCounters& w : crawl.per_worker) {
          cpu_ms += w.cpu_ms;
          sites += w.sites_loaded + w.sites_unreachable;
        }
        unit_ms.push_back(sites > 0
                              ? cpu_ms / static_cast<double>(sites)
                              : std::numeric_limits<double>::infinity());
      }
      return calls.back().wall_ms;
    });
    const Call& call = calls.back();
    out.digests.push_back(call.digest);
    if (!args.trace) continue;
    traced.push_back(traced_study(seed, scratch));
    out.attempted += page_loads();
    if (!traced.back().error.empty()) {
      out.failed += page_loads();
      out.errors.push_back(traced.back().error);
    }
    out.traced_digests.push_back(traced.back().digest);
    overheads.push_back(traced.back().wall_ms / call.wall_ms);
  }

  if (!args.trace) {
    out.metrics["setup_s"] = setup.metric("world builds");
    throughput_metrics(log, static_cast<double>(page_loads()), "campaigns",
                       out);
    out.metrics["batch_s"].note += "; one batch is one run_study call";
    // Three values a call, so the quantiles are plainly their median and
    // maximum.
    const std::string per_campaign =
        "the 3 campaigns' worker CPU ms per site (run_study has no "
        "per-site hook); median of " +
        std::to_string(calls.size()) + " calls in reference time";
    out.metrics["site_p50_ms"].note = "median of " + per_campaign;
    out.metrics["site_p99_ms"].note = "maximum of " + per_campaign;
    out.metrics["peak_rss_mib"] = rss;
    return out;
  }

  std::vector<const browser::CrawlSummary*> crawls;
  for (const Call& call : calls) {
    for (const browser::CrawlSummary& crawl : call.crawls) {
      crawls.push_back(&crawl);
    }
  }

  Tracer totals;
  LoadCounts counts;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_fsyncs = 0;
  double thread_ms = 0.0;
  for (const TracedStudy& study : traced) {
    totals.add(study.coordinator);
    for (const TracedCampaign& c : study.campaigns) {
      for (const Tracer& tracer : c.tracers) totals.add(tracer);
      counts.merge(c.counts);
    }
    journal_bytes += study.journal_bytes;
    journal_fsyncs += study.journal_fsyncs;
    thread_ms += study.thread_ms;
  }
  const double sites =
      static_cast<double>(traced.size()) * static_cast<double>(page_loads());
  layer_metrics(totals, sites, out);
  load_metrics(counts, sites, out);
  out.metrics["journal.fsyncs"] = {
      static_cast<double>(journal_fsyncs) / sites, ""};
  out.metrics["journal.bytes"] = {
      static_cast<double>(journal_bytes) / sites, ""};
  worker_metrics(crawls, out);
  out.metrics["trace.overhead_ratio"] = {
      median(overheads),
      "traced study / adjacent run_study wall, median"};
  out.metrics["trace.unattributed_ratio"] = {
      1.0 - totals.attributed_ms() / thread_ms,
      "thread time outside every layer span"};
  return out;
}

}  // namespace h2bench
