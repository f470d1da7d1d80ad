#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace curb::bft {

/// The distinct voters of one quorum, kept in a flat vector. A quorum has at
/// most a group's worth of members, so a linear scan beats a tree node per
/// vote. Decisions read only the count, so none depends on vote order; the
/// voters themselves are read only to copy them into a HotStuff QC.
class VoteSet {
 public:
  /// Records `voter`'s vote; a replayed vote never counts twice.
  void insert(std::uint32_t voter) {
    if (std::find(voters_.begin(), voters_.end(), voter) == voters_.end()) {
      voters_.push_back(voter);
    }
  }
  [[nodiscard]] std::size_t size() const { return voters_.size(); }
  [[nodiscard]] const std::vector<std::uint32_t>& voters() const { return voters_; }
  void clear() { voters_.clear(); }

 private:
  std::vector<std::uint32_t> voters_;
};

}  // namespace curb::bft
