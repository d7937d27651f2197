// CacheTree — the on-chip MAC tree ASIT and STAR keep over their tracking
// state (ASIT: one leaf MAC per metadata-cache line; STAR: one set-MAC per
// metadata-cache set). Each internal node is the MAC of its kTreeArity
// children; the root is what the scheme copies into its non-volatile root
// register.
//
// The tree is lazy on the host. A modification sets a leaf (set_leaf) or
// marks it stale (mark_stale), and every node above it is marked stale;
// settle() recomputes the stale nodes bottom-up in one pass. The schemes
// charge the modelled hash latency at the modification itself, so timing
// is the same as recomputing the path every time. The values are too:
// an internal node is a pure function of its children, and a stale leaf is
// recomputed from the state it summarises at settle time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "crypto/mac.hpp"

namespace steins {

class CacheTree {
 public:
  CacheTree(const crypto::MacEngine& mac, std::size_t leaves) : mac_(mac) {
    std::size_t n = leaves;
    levels_.emplace_back(n, 0);
    while (n > 1) {
      n = (n + kTreeArity - 1) / kTreeArity;
      levels_.emplace_back(n, 0);
    }
    for (const auto& level : levels_) stale_.emplace_back(level.size(), 0);
  }

  /// Number of levels, leaves included.
  std::size_t depth() const { return levels_.size(); }
  std::uint64_t leaf(std::size_t i) const { return levels_[0][i]; }
  std::uint64_t root() const { return levels_.back()[0]; }

  /// Store an up-to-date leaf MAC; the path above it goes stale.
  void set_leaf(std::size_t i, std::uint64_t mac) {
    levels_[0][i] = mac;
    mark_path(1, i / kTreeArity);
    changed_ = true;
  }

  /// The state summarised by leaf `i` changed; settle() recomputes it.
  void mark_stale(std::size_t i) {
    mark_path(0, i);
    changed_ = true;
  }

  /// Recompute every stale node bottom-up, stale leaves via `leaf_mac(i)`.
  /// Returns true if anything changed since the last settle or rebuild,
  /// i.e. when the root register must be refreshed.
  template <class LeafMac>
  bool settle(LeafMac&& leaf_mac) {
    if (!changed_) return false;
    for (std::size_t level = 0; level < levels_.size(); ++level) {
      std::vector<std::uint8_t>& stale = stale_[level];
      for (std::size_t i = 0; i < stale.size(); ++i) {
        if (stale[i] == 0) continue;
        stale[i] = 0;
        levels_[level][i] = level == 0 ? leaf_mac(i) : internal_mac(level, i);
      }
    }
    changed_ = false;
    return true;
  }

  /// A tree whose leaves are always set eagerly (never marked stale).
  bool settle() {
    return settle([this](std::size_t i) { return levels_[0][i]; });
  }

  /// Recompute every leaf via `leaf_mac(i)` and every internal node.
  template <class LeafMac>
  void rebuild(LeafMac&& leaf_mac) {
    for (std::size_t i = 0; i < levels_[0].size(); ++i) levels_[0][i] = leaf_mac(i);
    for (std::size_t level = 1; level < levels_.size(); ++level) {
      for (std::size_t p = 0; p < levels_[level].size(); ++p) {
        levels_[level][p] = internal_mac(level, p);
      }
    }
    for (auto& stale : stale_) std::fill(stale.begin(), stale.end(), 0);
    changed_ = false;
  }

  /// Power loss: the tree body is volatile.
  void clear() {
    for (auto& level : levels_) std::fill(level.begin(), level.end(), 0);
    for (auto& stale : stale_) std::fill(stale.begin(), stale.end(), 0);
    changed_ = false;
  }

 private:
  /// Mark node `i` of `level` and its ancestors stale. A stale node's
  /// ancestors are already stale, so the walk stops at the first one.
  void mark_path(std::size_t level, std::size_t i) {
    for (; level < levels_.size(); ++level, i /= kTreeArity) {
      if (stale_[level][i] != 0) return;
      stale_[level][i] = 1;
    }
  }

  std::uint64_t internal_mac(std::size_t level, std::size_t p) const {
    const std::vector<std::uint64_t>& children = levels_[level - 1];
    const std::size_t first = p * kTreeArity;
    const std::size_t n = std::min(kTreeArity, children.size() - first);
    return mac_.mac64({reinterpret_cast<const std::uint8_t*>(&children[first]), n * 8});
  }

  const crypto::MacEngine& mac_;
  std::vector<std::vector<std::uint64_t>> levels_;  // [0] leaves ... back() root
  std::vector<std::vector<std::uint8_t>> stale_;    // same shape as levels_
  bool changed_ = false;
};

}  // namespace steins
