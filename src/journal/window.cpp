#include "journal/window.hpp"

#include <stdexcept>
#include <utility>

namespace h2r::journal {

WindowShard::~WindowShard() = default;

WindowObserver::WindowObserver(std::string campaign, MakeShard make_shard,
                               std::uint32_t hist_budget,
                               const std::string& spill_dir,
                               JournalWriter* journal)
    : campaign_(std::move(campaign)),
      make_shard_(std::move(make_shard)),
      journal_(journal) {
  registry_.set_histogram_budget(hist_budget);
  if (spill_dir.empty()) {
    fold_ = std::make_unique<ReportFold>();
    return;
  }
  auto spilling = ReportFold::spilling(spill_dir + "/h2r-spill-" +
                                       campaign_ + ".spill");
  if (!spilling) {
    throw std::runtime_error("spill fold (" + campaign_ +
                             "): " + spilling.error().message);
  }
  fold_ = std::move(*spilling);
}

void WindowObserver::begin(unsigned workers) {
  while (shards_.size() < workers) {
    shards_.push_back(make_shard_());
    // Allocate the metric shard before the workers start.
    (void)registry_.shard(static_cast<unsigned>(shards_.size() - 1));
  }
}

obs::Metrics* WindowObserver::metrics(unsigned worker) {
  return &registry_.shard(worker);
}

void WindowObserver::site(unsigned worker, browser::SiteResult& result) {
  shards_[worker]->add(result);
}

void WindowObserver::chunk(const browser::ChunkEvent& event) {
  ChunkCheckpoint checkpoint;
  checkpoint.campaign = campaign_;
  checkpoint.ranges = event.ranges;
  checkpoint.summary = event.summary;
  shards_[event.worker]->flush(checkpoint);
  // A failed append or spill means durability or totals are gone: keep
  // crawling (the results stay correct) and fail loudly in finish().
  if (journal_ != nullptr) {
    auto committed = journal_->append(to_json(checkpoint));
    if (!committed) {
      record_error("journal append failed: " + committed.error().message);
    }
  }
  auto folded = fold_->fold(checkpoint);
  if (!folded) record_error("report spill failed: " + folded.error().message);
}

void WindowObserver::record_error(const std::string& message) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (error_ == nullptr) {
    error_ = std::make_exception_ptr(std::runtime_error(message));
  }
}

FoldTotals WindowObserver::finish() {
  if (error_ != nullptr) std::rethrow_exception(error_);
  auto totals = fold_->finish();
  if (!totals) {
    throw std::runtime_error("fold finish (" + campaign_ +
                             "): " + totals.error().message);
  }
  return std::move(*totals);
}

}  // namespace h2r::journal
