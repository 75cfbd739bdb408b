// Deterministic string interning for the classifier hot path.
//
// Domains, SANs and issuer organizations recur constantly inside a site
// (and across the sites one worker crawls); the classifier used to
// lowercase and compare them as strings on every pair it swept. An
// Interner maps each distinct string to a dense 32-bit id assigned in
// FIRST-SEEN order, so the sweep compares ids — two ids are equal iff
// the strings are equal — and lowercasing happens once per distinct
// string instead of once per comparison.
//
// Determinism contract (DESIGN §12):
//   * ids are a pure function of the sequence of distinct strings a
//     worker interns — no hashing order, no pointer order leaks in;
//   * ids NEVER appear in serialized output: findings, reports and
//     journal frames always carry the interned string itself, so
//     per-worker id spaces cannot make output depend on thread count;
//   * when shards must be combined id-wise, CanonicalRemap builds a
//     shard-count-independent canonical id space (lexicographic over the
//     union) and per-shard remap tables — tests/intern_test.cpp pins
//     that threads {1,2,7} emit byte-identical JSON through it.
//
// The lookup index is hand-rolled open addressing (power-of-two bucket
// array of ids + FNV-1a), NOT std::unordered_map: this TU feeds
// serializing code paths, where tools/h2r-lint's `order.unordered` rule
// bans unordered containers outright. Iteration surfaces (ids 0..size)
// are insertion-ordered and hash-free either way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace h2r::core {

class Interner {
 public:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  Interner() { rehash(1024); }

  /// Id of `s`, interning it first-seen. Ids are dense from 0 upward.
  std::uint32_t intern(std::string_view s);

  /// Id of the ASCII-lowercase of `s` (the classifier's host folding),
  /// without building a lowered copy when `s` is already lowercase.
  std::uint32_t intern_lower(std::string_view s);

  /// Id of `s` if already interned, kNpos otherwise. Never inserts.
  std::uint32_t find(std::string_view s) const noexcept;

  /// The interned string for `id`. The view is invalidated by the next
  /// intern() (the pool may grow); ids themselves are stable forever.
  std::string_view str(std::uint32_t id) const noexcept {
    const Entry& e = entries_[id];
    return {pool_.data() + e.offset, e.size};
  }

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Bytes of interned string payload (for periodic reset caps).
  std::size_t pool_bytes() const noexcept { return pool_.size(); }

  void clear();

 private:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t hash = 0;
  };

  static std::uint32_t fnv1a(std::string_view s) noexcept {
    std::uint32_t h = 2166136261u;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 16777619u;
    }
    return h;
  }

  std::uint32_t insert(std::string_view s, std::uint32_t hash);
  void rehash(std::size_t buckets);

  // Contiguous payload pool + per-id spans: stable views, two
  // allocations' worth of growth instead of one node per string.
  std::string pool_;
  std::vector<Entry> entries_;
  // Open addressing: bucket -> id + 1, 0 = empty. Power-of-two sized.
  std::vector<std::uint32_t> buckets_;
};

/// Canonical id space over several per-shard interners. Canonical ids
/// are assigned in lexicographic order of the UNION of the shards'
/// strings, so they do not depend on how many shards there were or which
/// shard saw a string first — the property that lets id-keyed shard
/// state be combined into thread-count-invariant output.
class CanonicalRemap {
 public:
  /// `shards` must outlive the remap and stay un-mutated while it is in
  /// use (str() returns views into their pools).
  explicit CanonicalRemap(const std::vector<const Interner*>& shards);

  /// Canonical id of shard-local `id` from `shard`.
  std::uint32_t remap(std::size_t shard, std::uint32_t id) const noexcept {
    return tables_[shard][id];
  }

  /// The string behind a canonical id.
  std::string_view str(std::uint32_t canonical) const noexcept {
    return strings_[canonical];
  }

  /// Number of distinct strings across all shards.
  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(strings_.size());
  }

 private:
  std::vector<std::string_view> strings_;  // sorted; views into the shards
  std::vector<std::vector<std::uint32_t>> tables_;  // per shard: id -> canon
};

}  // namespace h2r::core
