#include "curb/obs/net/link_stats.hpp"

namespace curb::obs::net {

void LinkStats::record(std::uint32_t src, std::uint32_t dst, std::size_t bytes,
                       std::size_t dups, bool dropped, const std::string& category) {
  LinkEntry& link = links_[LinkKey{src, dst}];
  ++link.msgs;
  link.bytes += bytes;
  link.dups += dups;
  if (dropped) ++link.drops;
  ++link.by_category[category];

  CategoryTotals& totals = categories_[category];
  ++totals.msgs;
  totals.bytes += bytes;
  totals.dups += dups;

  ++total_msgs_;
  total_bytes_ += bytes;
  total_dups_ += dups;
  if (dropped) ++total_drops_;
}

std::uint64_t LinkStats::category_dups(const std::string& category) const {
  const auto it = categories_.find(category);
  return it == categories_.end() ? 0 : it->second.dups;
}

}  // namespace curb::obs::net
