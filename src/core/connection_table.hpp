// Struct-of-arrays view of one site's connections for the classifier
// sweep (paper §4.1 — the O(n²) previous-connection scan).
//
// `std::vector<ConnectionRecord>` spreads the fields the sweep touches
// (open/close times, endpoint, domain, SANs, exclusions) across dozens
// of heap blocks per record; the sweep also re-lowercased and re-matched
// the same strings for every pair AND every duration model. The table
// flattens a site once:
//
//   * times and ids live in cache-dense columns (one per field);
//   * domains are interned (core/intern.hpp) and compressed to a dense
//     per-site domain index, endpoints to a dense endpoint id — the
//     sweep compares 32-bit ids, never strings;
//   * the model-INDEPENDENT pair predicates — "P's certificate covers
//     C's domain" and "P excluded C's domain" — are precomputed into
//     connection × distinct-domain bit matrices, shared by all 2-3
//     duration-model sweeps of the same site.
//
// Columns are allocated from a per-worker util::Arena (reset per site);
// the table holds no owning pointers into the observation it was built
// from except through the Interner, so every output string always
// goes ids -> interned string -> ordinary heap string (ids never appear
// in serialized output — DESIGN §12).
#pragma once

#include <cstdint>

#include "core/connection.hpp"
#include "core/intern.hpp"
#include "util/arena.hpp"

namespace h2r::core {

struct ConnectionTable {
  /// Sentinel operator id when the record carried no operator name.
  static constexpr std::uint32_t kNoOperator = 0xFFFFFFFFu;

  explicit ConnectionTable(util::Arena* arena)
      : opened(alloc_time(arena)),
        closed_or_max(alloc_time(arena)),
        last_request_end(alloc_time(arena)),
        domain(alloc_u32(arena)),
        local_domain(alloc_u32(arena)),
        endpoint(alloc_u32(arena)),
        base_domain(alloc_u32(arena)),
        operator_id(alloc_u32(arena)),
        host_order(alloc_u32(arena)),
        privacy(alloc_u8(arena)),
        has_served(alloc_u8(arena)),
        domains(alloc_u32(arena)),
        covers(alloc_u8(arena)),
        excluded(alloc_u8(arena)),
        served(alloc_u8(arena)) {}

  /// Builds every column and matrix from `site` (connections in open
  /// order, as the classifier contract requires). Lowered domains and
  /// SAN patterns are interned into `interner`.
  void build(const SiteObservation& site, Interner& interner);

  std::size_t size() const noexcept { return opened.size(); }
  std::size_t distinct_domains() const noexcept { return domains.size(); }

  /// Did connection `j`'s certificate cover distinct domain `d`?
  bool covers_domain(std::size_t j, std::size_t d) const noexcept {
    return covers[j * domains.size() + d] != 0;
  }
  /// Did connection `j` exclude distinct domain `d` (421 / ORIGIN)?
  bool excludes_domain(std::size_t j, std::size_t d) const noexcept {
    return excluded[j * domains.size() + d] != 0;
  }
  /// Does connection `j`'s server serve distinct domain `d`? Only
  /// meaningful when has_served[j] (NetLog records carry vhost lists; HAR
  /// records do not).
  bool serves_domain(std::size_t j, std::size_t d) const noexcept {
    return served[j * domains.size() + d] != 0;
  }

  // Per-connection columns, index = connection index in open order.
  util::ArenaVector<util::SimTime> opened;
  util::ArenaVector<util::SimTime> closed_or_max;  // closed_at or kSimTimeMax
  util::ArenaVector<util::SimTime> last_request_end;
  util::ArenaVector<std::uint32_t> domain;        // interned lowered domain
  util::ArenaVector<std::uint32_t> local_domain;  // index into `domains`
  util::ArenaVector<std::uint32_t> endpoint;      // dense per-site endpoint
  util::ArenaVector<std::uint32_t> base_domain;   // interned eTLD+1 of domain
  util::ArenaVector<std::uint32_t> operator_id;   // interned; kNoOperator
  util::ArenaVector<std::uint32_t> host_order;    // nth connection (0-based)
                                                  // of this initial domain
  util::ArenaVector<std::uint8_t> privacy;        // credentialless pool bit
  util::ArenaVector<std::uint8_t> has_served;     // served row is meaningful

  /// Distinct interned initial domains, in first-appearance order.
  util::ArenaVector<std::uint32_t> domains;

  // size() x distinct_domains() matrices, row-major by connection.
  util::ArenaVector<std::uint8_t> covers;
  util::ArenaVector<std::uint8_t> excluded;
  util::ArenaVector<std::uint8_t> served;

 private:
  static util::ArenaAllocator<util::SimTime> alloc_time(util::Arena* a) {
    return util::ArenaAllocator<util::SimTime>(a);
  }
  static util::ArenaAllocator<std::uint32_t> alloc_u32(util::Arena* a) {
    return util::ArenaAllocator<std::uint32_t>(a);
  }
  static util::ArenaAllocator<std::uint8_t> alloc_u8(util::Arena* a) {
    return util::ArenaAllocator<std::uint8_t>(a);
  }
};

}  // namespace h2r::core
