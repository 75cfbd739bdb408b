// Shared pieces of the h2reuse benchmark driver: run arguments, the
// result record, the span tracer, the synthetic world and the per-site
// campaign logic that both the untraced and the traced drivers run.
//
// The benchmark reaches the library only through its stable entry points
// (browser::crawl + obs::Observer, experiments::run_study, Browser::load,
// netlog::stitch_site, har::*, ClassifyContext / classify_site,
// audit_site, JournalWriter / ReportFold). It changes nothing under src/.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/report.hpp"
#include "json/json.hpp"
#include "web/catalog.hpp"
#include "web/ecosystem.hpp"
#include "web/sitegen.hpp"

namespace h2bench {

using namespace h2r;

/// Real-clock reading in milliseconds. The one clock of the benchmark:
/// every timing it reports goes through here.
double now_ms();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Pinned output digest for (workload, seed); empty = not pinned.
  std::string expect_digest;
  /// Directory (inside the checkout) for journal and spill files.
  std::string scratch = ".";
};

/// One metric's value; its unit comes from per_layer_metrics() or
/// end_to_end_metrics().
struct Metric {
  double value = 0.0;
  std::string note;  // sample count or method, printed beside the value
};

/// What one workload run produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of every batch's deterministic output, in batch order.
  std::vector<std::string> digests;
  /// Digest of the traced driver's output (trace runs only).
  std::vector<std::string> traced_digests;
  /// Worker threads the measured code ran at once.
  unsigned threads = 1;
  std::map<std::string, Metric> metrics;
  /// Problems found while checking outputs, one line each.
  std::vector<std::string> errors;
};

/// 64-bit FNV-1a, hex-encoded: the output digest.
std::string digest(const std::string& bytes);

/// Median and nearest-rank quantile of a sample (sorted copy).
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// --------------------------------------------------------------- tracing

/// The layers the traced drivers time, named after the library modules.
enum class Layer : std::uint8_t {
  kWebUniverse,
  kWebGenerate,
  kDnsReplay,
  kBrowserLoad,
  kNetlogStitch,
  kHarExport,
  kHarImport,
  kJsonParse,
  kHarFromJson,
  kCorePrepare,
  kCoreClassify,
  kCoreAggregate,
  kCoreAudit,
  kCoreRender,
  kJournalAppend,
  kJournalFold,
  kJournalFinish,
  kCount,
};

/// Wall time spent in each layer's calls, in milliseconds. One per thread
/// while tracing; add() sums them afterwards. A null Tracer* means tracing
/// is off. Layer calls never nest, so the layers' times add up.
class Tracer {
 public:
  /// Runs `fn`, counting its wall time to `layer`.
  template <typename Fn>
  decltype(auto) span(Layer layer, Fn&& fn) {
    struct Close {
      double& total;
      double start_ms;
      ~Close() { total += now_ms() - start_ms; }
    } close{ms_[static_cast<std::size_t>(layer)], now_ms()};
    return fn();
  }

  void add(const Tracer& other) {
    for (std::size_t i = 0; i < ms_.size(); ++i) ms_[i] += other.ms_[i];
  }
  double get(Layer layer) const {
    return ms_[static_cast<std::size_t>(layer)];
  }
  /// Time inside any layer call.
  double attributed_ms() const {
    double total = 0.0;
    for (const double ms : ms_) total += ms;
    return total;
  }

 private:
  std::array<double, static_cast<std::size_t>(Layer::kCount)> ms_{};
};

/// Runs `fn` inside a span when tracing, directly otherwise.
template <typename Fn>
decltype(auto) timed(Tracer* tracer, Layer layer, Fn&& fn) {
  if (tracer == nullptr) return fn();
  return tracer->span(layer, std::forward<Fn>(fn));
}

// ----------------------------------------------------------------- world

/// Ecosystem, service catalog and site universe for one seed. The
/// universe holds references to the other two, hence the boxes.
struct World {
  std::unique_ptr<web::Ecosystem> eco;
  std::unique_ptr<web::ServiceCatalog> catalog;
  std::unique_ptr<web::SiteUniverse> universe;

  /// Destroys the parts dependents first.
  void clear() {
    universe.reset();
    catalog.reset();
    eco.reset();
  }
};

World make_world(std::uint64_t seed, std::size_t top_rank,
                 std::size_t tail_rank);

/// The program seed for a benchmark seed (the library treats 0 as a
/// degenerate seed in places, so shift by one).
inline std::uint64_t program_seed(std::uint64_t bench_seed) {
  return bench_seed + 1;
}

// -------------------------------------------------------------- campaigns

/// The study workload's crawls: run_study runs its three campaigns at
/// once, each on this many worker threads.
constexpr unsigned kStudyCampaigns = 3;
constexpr unsigned kStudyThreadsPerCampaign = 1;

/// One crawl campaign of the study, as run_study configures it.
struct Campaign {
  std::string name;  // "alexa", "nofetch" or "har"
  browser::CrawlOptions options;
  std::size_t first_rank = 0;
  std::size_t count = 0;
  /// Ranks in [overlap_begin, overlap_end) also feed the overlap report.
  std::size_t overlap_begin = 0;
  std::size_t overlap_end = 0;
};

Campaign alexa_campaign(std::uint64_t seed, std::size_t sites);
Campaign nofetch_campaign(std::uint64_t seed, std::size_t sites);
Campaign har_campaign(std::uint64_t seed, std::size_t first_rank,
                      std::size_t sites);

/// Per-worker classification state of one campaign: the aggregators
/// run_study keeps for it, fed exactly as run_study feeds them.
class Shard {
 public:
  Shard(const Campaign& campaign, const asdb::AsDatabase* as_db);

  /// Classifies one finished site into the campaign's reports.
  void add(const browser::SiteResult& site, Tracer* tracer);

  /// The campaign's report names, in run_study's checkpoint order.
  const std::vector<std::pair<std::string, core::Aggregator>>& reports()
      const noexcept {
    return reports_;
  }
  std::uint64_t overlap_sites() const noexcept { return overlap_sites_; }
  /// Redundant / total connections over every site added.
  std::uint64_t redundant_connections() const noexcept { return redundant_; }
  std::uint64_t total_connections() const noexcept { return total_; }

  /// Starts a fresh window (after a chunk checkpoint).
  void reset();

 private:
  core::Aggregator& report(std::size_t index) {
    return reports_[index].second;
  }

  const Campaign* campaign_;
  const asdb::AsDatabase* as_db_;
  std::vector<std::pair<std::string, core::Aggregator>> reports_;
  core::ClassifyContext classify_;
  std::uint64_t overlap_sites_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t total_ = 0;
};

/// Adds one site's page-load counters to a crawl summary, as the crawl
/// does for every site it visits.
void account(browser::CrawlSummary& summary, const browser::SiteResult& site);

/// Loads one site the way the crawl's worker does (flushed resolver,
/// Browser::load, HAR export + import on the HAR path), with every layer
/// call inside a span. Also replays the page's DNS lookups and its NetLog
/// stitch under their own spans, since Browser::load runs both inside.
struct TracedWorker {
  TracedWorker(web::SiteUniverse& universe, const Campaign& campaign);

  void load(std::size_t rank, util::SimTime when, browser::SiteResult& out,
            Tracer& tracer);

  web::SiteUniverse* universe;
  const Campaign* campaign;
  dns::RecursiveResolver resolver;
  dns::RecursiveResolver replay_resolver;
  browser::Browser browser;
  obs::Metrics metrics;
  std::uint64_t netlog_events = 0;
  std::uint64_t stitch_mismatches = 0;
};

/// What traced page loads counted, summed over workers and batches.
struct LoadCounts {
  browser::CrawlSummary summary;
  obs::Metrics metrics;
  std::uint64_t netlog_events = 0;
  std::uint64_t stitch_mismatches = 0;
  std::uint64_t redundant = 0;
  std::uint64_t connections = 0;

  void count_worker(const TracedWorker& worker);
  void count_shard(const Shard& shard);
  void merge(const LoadCounts& other);
};

/// Fills the per-site count and ratio metrics of traced page loads (dns,
/// browser, tls, h2, net, netlog, har, core.redundant_ratio), and reports
/// a stitch replay that disagreed with Browser::load as an error.
void load_metrics(const LoadCounts& counts, double sites, Outcome& out);

/// part / whole, 0 when whole is 0.
double ratio(std::uint64_t part, std::uint64_t whole);

/// Full-fidelity report JSON (the journal shape), via the one serializer.
json::Value report_json(const core::AggregateReport& report);

/// peak_rss_mib: this process's peak resident set size (VmHWM) so far, in
/// MiB. Workloads read it after set-up and the warm-up batch, which is the
/// footprint of a fresh process running the workload once, as the CLI
/// does. Later batches only add allocator fragmentation, which varies with
/// thread timing rather than with the program.
Metric peak_rss();

// ------------------------------------------------------------- workloads

Outcome run_study_workload(const RunArgs& args);
Outcome run_audit(const RunArgs& args);

/// Per-layer metrics every traced run prints (0 where a layer does no
/// work on the workload): name -> unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// End-to-end metrics every untraced run prints: name -> unit.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

// ------------------------------------------------------- host speed

/// The shared hosts this runs on alternate between fast and slow phases
/// lasting from seconds to minutes as other tenants load them: on one
/// 4-core VM with no steal time, a fixed single-threaded loop's best time
/// per 5 s drifted by 40% within a minute, in CPU time as in wall time,
/// and whole 50 s runs of the same workload differed by 25%. No estimator
/// over one run's own timings removes a phase that lasts the whole run.
///
/// So every timed sample is paired with the reference loop, run just
/// before it on as many threads as the sample keeps busy, and reported in
/// reference time: the sample's wall time times kReferenceLoopMs over the
/// loop's time. A slow phase stretches both and cancels; a slower program
/// stretches only the sample. The loop is the benchmark's own fixed work
/// (string keys, an ordered map, a sort: the kinds of work the program
/// does), so nothing the program changes can move it.
///
/// Returns the wall time of the loop run once on each of `threads`
/// threads at once.
double reference_loop_ms(unsigned threads);

/// The reference loop's typical single-threaded time on the 4-core
/// reference VM, which makes reference time read close to wall time
/// there.
constexpr double kReferenceLoopMs = 8.0;

/// `sample_ms` in reference time, given the reference loop's time next
/// to it.
inline double in_reference_time(double sample_ms, double loop_ms) {
  return sample_ms * kReferenceLoopMs / loop_ms;
}

/// Times a workload's set-up several times per run: once before the
/// measuring window (the set-up the run uses) and then at even intervals
/// inside it, so that setup_s, the median of their reference times,
/// samples the same phases of the machine as the batches. Set-ups run on
/// one thread, and so does their reference loop; with few set-ups a run,
/// each is paired with the median of three loops.
class SetupTimer {
 public:
  SetupTimer(int repeats, double window_ms)
      : repeats_(repeats), window_ms_(window_ms) {}

  template <typename Fn>
  void measure(Fn&& build) {
    const double loop_ms = median(
        {reference_loop_ms(1), reference_loop_ms(1), reference_loop_ms(1)});
    const double start = now_ms();
    build();
    const double ms = now_ms() - start;
    seconds_.push_back(in_reference_time(ms, loop_ms) / 1000.0);
    raw_seconds_.push_back(ms / 1000.0);
  }

  /// Marks the start of the measuring window.
  void open_window() { window_start_ms_ = now_ms(); }

  /// Whether the next repeat is due inside the window.
  bool due() const {
    const auto done = static_cast<double>(seconds_.size());
    return static_cast<int>(seconds_.size()) < repeats_ &&
           now_ms() - window_start_ms_ >= window_ms_ * done / repeats_;
  }

  Metric metric(const std::string& what) const {
    return {median(seconds_), "median of " + std::to_string(seconds_.size()) +
                                  " " + what + " in reference time (wall " +
                                  std::to_string(median(raw_seconds_)) + ")"};
  }

 private:
  int repeats_;
  double window_ms_;
  double window_start_ms_ = 0.0;
  std::vector<double> seconds_;
  std::vector<double> raw_seconds_;
};

/// A run's untraced batches: the reference loop's time just before each
/// batch, each batch's wall time and the latency of every unit (document
/// or campaign) in it. Every batch does identical work.
struct BatchLog {
  /// Threads a batch keeps busy at once; the reference loop runs on as
  /// many.
  unsigned threads = 1;
  std::vector<double> loop_ms;
  std::vector<double> wall_ms;
  std::vector<std::vector<double>> unit_ms;

  /// Runs the reference loop, then `batch`, which returns its wall time
  /// and fills in its unit times.
  template <typename Fn>
  void record(Fn&& batch) {
    loop_ms.push_back(reference_loop_ms(threads));
    unit_ms.emplace_back();
    wall_ms.push_back(batch(unit_ms.back()));
  }
};

/// Sets the throughput and latency metrics from every batch of a run,
/// each batch's times in reference time:
///   * batch_s: the median batch time;
///   * site_p50_ms / site_p99_ms: the median over batches of each batch's
///     median and 99th-percentile unit time;
///   * sites_per_s: page loads or documents per batch over batch_s.
void throughput_metrics(const BatchLog& log, double sites_per_batch,
                        const std::string& units, Outcome& out);

/// Fills the per-worker scheduling metrics from crawl summaries.
void worker_metrics(const std::vector<const browser::CrawlSummary*>& crawls,
                    Outcome& out);

/// Fills the layer-time and layer-count metrics shared by the drivers.
void layer_metrics(const Tracer& totals, double sites, Outcome& out);

}  // namespace h2bench
