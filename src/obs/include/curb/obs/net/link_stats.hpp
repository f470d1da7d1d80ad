#pragma once

// Topology-aware per-link message accounting (curb::obs::net).
//
// LinkStats mirrors net::MessageStats at (src, dst) granularity: every send
// the bus accounts globally is also attributed to its directed link, by
// message category, including sends that are later dropped (partition or
// fault) — so the per-link counters always sum exactly to the bus totals
// (the conservation invariant pinned in tests). Fault-injected
// duplicate deliveries are *wire* copies the bus never re-records; they are
// tracked separately per link and per category so
//   wire messages = msgs + dups
// and a duplication fault shows up as dups > 0 without breaking the
// conservation sum.
//
// This header deliberately depends on nothing from curb::net (the bus
// depends on curb::obs, not the other way round): node endpoints are plain
// u32 indices, and exports take a name-lookup callback for labels.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace curb::obs::net {

/// Directed link endpoint pair (topology node indices).
struct LinkKey {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  [[nodiscard]] friend bool operator<(const LinkKey& a, const LinkKey& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  }
  [[nodiscard]] friend bool operator==(const LinkKey& a, const LinkKey& b) {
    return a.src == b.src && a.dst == b.dst;
  }
};

/// Per-link counters. `msgs`/`bytes` count exactly what MessageStats counts
/// for the same sends (drops included); `drops` is the never-delivered
/// subset; `dups` counts fault-injected extra wire deliveries.
struct LinkEntry {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dups = 0;
  std::uint64_t drops = 0;
  /// Messages per category over this link (bus accounting categories:
  /// "PKT-IN", "intra-pbft", "AGREE", ...).
  std::map<std::string, std::uint64_t> by_category;
};

/// Per-category aggregate across all links (wire view: counts + dups).
struct CategoryTotals {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dups = 0;
};

class LinkStats {
 public:
  /// Attribute one accounted send. `dups` is the number of fault-injected
  /// extra deliveries scheduled for the same send; `dropped` marks sends
  /// that will never be delivered.
  void record(std::uint32_t src, std::uint32_t dst, std::size_t bytes,
              std::size_t dups, bool dropped, const std::string& category);

  [[nodiscard]] const std::map<LinkKey, LinkEntry>& links() const { return links_; }
  [[nodiscard]] const std::map<std::string, CategoryTotals>& categories() const {
    return categories_;
  }

  /// Conservation-side totals: must equal MessageStats::total_messages() /
  /// total_bytes() when every bus send is observed.
  [[nodiscard]] std::uint64_t total_msgs() const { return total_msgs_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  /// Fault-injected wire copies across all links (not part of the
  /// conservation sum; the bus never re-records duplicates).
  [[nodiscard]] std::uint64_t total_dups() const { return total_dups_; }
  [[nodiscard]] std::uint64_t total_drops() const { return total_drops_; }
  /// Duplicate wire copies recorded for one category.
  [[nodiscard]] std::uint64_t category_dups(const std::string& category) const;

 private:
  std::map<LinkKey, LinkEntry> links_;
  std::map<std::string, CategoryTotals> categories_;
  std::uint64_t total_msgs_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_dups_ = 0;
  std::uint64_t total_drops_ = 0;
};

}  // namespace curb::obs::net
