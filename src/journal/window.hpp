// The windowed crawl observer: the one bridge between a crawl and the
// journal/fold spine, shared by the study's campaigns and the optimizer.
//
// Each crawl worker owns one WindowShard, which consumes that worker's
// sites into chunk-local state (a "window"). At every work-queue chunk
// boundary the observer asks the shard to flush its window into a
// ChunkCheckpoint, commits the checkpoint to the crash journal (when
// one is attached), folds it into the campaign's ReportFold and lets the
// shard start the next window. Merges are commutative, so windowed
// totals — and journal-recovered plus freshly crawled chunks — equal a
// single-pass accumulation bit for bit, while per-worker state stays
// bounded by one window.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "browser/crawl.hpp"
#include "journal/checkpoint.hpp"
#include "journal/journal.hpp"
#include "journal/spill.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"

namespace h2r::journal {

/// One worker's window state. Called only from that worker's thread.
class WindowShard {
 public:
  WindowShard() = default;
  WindowShard(const WindowShard&) = delete;
  WindowShard& operator=(const WindowShard&) = delete;
  virtual ~WindowShard();

  /// Consumes one finished site (reachable or not).
  virtual void add(const browser::SiteResult& site) = 0;

  /// Moves the window's reports, tallies and overlap count into
  /// `checkpoint` (whose campaign, ranges and summary are already set),
  /// then resets to an empty window.
  virtual void flush(ChunkCheckpoint& checkpoint) = 0;
};

class WindowObserver final : public obs::Observer {
 public:
  using MakeShard = std::function<std::unique_ptr<WindowShard>()>;

  /// `campaign` names the checkpoints. With `spill_dir` set, windows
  /// spill to `<spill_dir>/h2r-spill-<campaign>.spill` (throws
  /// std::runtime_error when that file cannot be created); `journal`
  /// (not owned, may be shared by concurrent campaigns) receives every
  /// checkpoint when non-null.
  WindowObserver(std::string campaign, MakeShard make_shard,
                 std::uint32_t hist_budget, const std::string& spill_dir,
                 JournalWriter* journal);
  WindowObserver(const WindowObserver&) = delete;
  WindowObserver& operator=(const WindowObserver&) = delete;

  void begin(unsigned workers) override;
  obs::Metrics* metrics(unsigned worker) override;
  void site(unsigned worker, browser::SiteResult& result) override;
  void chunk(const browser::ChunkEvent& event) override;

  /// Call once, after the crawl returns: rethrows the first journal or
  /// spill failure the workers hit, else returns the folded totals.
  FoldTotals finish();

  /// The workers' metric shards, merged.
  obs::Metrics merged_metrics() const { return registry_.merged(); }

 private:
  void record_error(const std::string& message);

  std::string campaign_;
  MakeShard make_shard_;
  JournalWriter* journal_;
  std::unique_ptr<ReportFold> fold_;
  std::vector<std::unique_ptr<WindowShard>> shards_;
  obs::MetricRegistry registry_;
  std::mutex error_mutex_;  // guards: error_
  std::exception_ptr error_;
};

}  // namespace h2r::journal
