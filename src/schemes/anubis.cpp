#include "schemes/anubis.hpp"

#include <cstring>
#include <vector>

#include "common/flat_map.hpp"

namespace steins {

AnubisMemory::AnubisMemory(const SystemConfig& cfg)
    : SecureMemoryBase(cfg), tree_(cme_.mac(), mcache_.num_lines()) {
  STEINS_CHECK(cfg.counter_mode == CounterMode::kGeneral,
               "ASIT is evaluated with general counter blocks only (paper §IV)");
  shadow_base_ = geo_.aux_base();
  tree_.rebuild([this](std::size_t i) { return tree_.leaf(i); });
  root_reg_ = tree_.root();
}

std::uint64_t AnubisMemory::leaf_mac(const Block& image, std::size_t line_idx) const {
  std::uint8_t buf[kBlockSize + 8];
  std::memcpy(buf, image.data(), kBlockSize);
  const std::uint64_t idx = line_idx;
  std::memcpy(buf + kBlockSize, &idx, 8);
  return cme_.mac().mac64({buf, sizeof(buf)});
}

void AnubisMemory::on_node_modified(NodeId id, Cycle& now) {
  const Addr addr = geo_.node_addr(id);
  const std::int64_t line_idx = mcache_.line_index(addr);
  STEINS_CHECK(line_idx >= 0, "modified node must be cached");
  const MetadataLine* line = mcache_.peek(addr);
  const Block image = line->payload.to_block(0);

  // Persist the updated node to the shadow table: the 2x write overhead.
  // Anubis persists the ST entry atomically with the update, so the cell
  // programming time sits on the critical path of every modification.
  const Addr saddr = shadow_addr(static_cast<std::size_t>(line_idx));
  const std::uint64_t sid = encode_id(id);
  now = timed_write(saddr, image, now, nullptr, 0, &sid);
  if (!recovering_) charge_tracking(cfg_.nvm_write_cycles());
  ++stats_.aux_writes;

  // The leaf MAC covers the exact image just written; the sequential HMACs
  // up the cache-tree (paper §II-D) are modification-path cost, charged to
  // the write-latency side channel now and computed at crash().
  tree_.set_leaf(static_cast<std::size_t>(line_idx),
                 leaf_mac(image, static_cast<std::size_t>(line_idx)));
  for (std::size_t level = 0; level < tree_.depth(); ++level) {
    charge_tracking(cfg_.secure.hash_latency_cycles, /*is_hash=*/true);
  }
}

void AnubisMemory::crash() {
  // The root register is about to be read (by recover()): bring the
  // cache-tree path HMACs up to date first.
  if (tree_.settle()) root_reg_ = tree_.root();
  SecureMemoryBase::crash();
  // The cache-tree body is volatile; only the root register survives.
  tree_.clear();
}

RecoveryReport AnubisMemory::recover() {
  RecoveryReport result;
  recovery_prologue();
  try {
    recover_impl(result);
  } catch (const IntegrityViolation& e) {
    if (!result.attack_detected) {
      result.attack_detected = true;
      result.attack_detail = e.what();
    }
  } catch (const StatusError& e) {
    result.status = e.status();
  } catch (const std::exception& e) {
    result.status = Status(ErrorCode::kInternal, e.what());
  }
  return finish_recovery(std::move(result));
}

void AnubisMemory::recover_impl(RecoveryReport& result) {
  const std::size_t lines = mcache_.num_lines();
  bool ecc_evidence = false;

  // Pass 1: read every shadow entry, rebuild the cache-tree, compare roots.
  std::vector<Block> images(lines);
  std::vector<bool> present(lines, false);
  for (std::size_t i = 0; i < lines; ++i) {
    const Addr saddr = shadow_addr(i);
    ++recovery_reads_;
    if (!dev_.contains(saddr)) continue;
    bool dead = false;
    const Block img = dev_.peek_corrected(saddr, &dead);
    if (dead) {
      // The entry's latest node image is gone. Its identity survives in the
      // ECC-colocated tag: quarantine the data the lost node covered and
      // keep replaying every other entry.
      ecc_evidence = true;
      result.tracking_degraded = true;
      NodeId id;
      if (decode_id(dev_.read_tag(saddr), &id)) {
        quarantine_node_subtree(id, QuarantineReason::kEccMeta);
      }
      continue;
    }
    images[i] = img;
    present[i] = true;
  }
  tree_.rebuild(
      [&](std::size_t i) { return present[i] ? leaf_mac(images[i], i) : tree_.leaf(i); });
  if (tree_.root() != root_reg_) {
    if (!ecc_evidence) {
      result.attack_detected = true;
      result.attack_detail = "ASIT cache-tree root mismatch: shadow table corrupted";
      return;
    }
    // Lost entries make the aggregate root unprovable; the replay below is
    // individually cross-checked against NVM images and anything tampered
    // still fails its node/data MAC at first use. Proceed degraded.
  }

  // Pass 2: replay shadow entries into the metadata cache. A node can
  // appear in more than one (stale) entry; counters are monotone, so the
  // entry with the largest parent value is the latest.
  FlatMap<SitNode> latest;
  std::vector<std::uint64_t> latest_keys;  // replay in first-seen order
  for (std::size_t i = 0; i < lines; ++i) {
    if (!present[i]) continue;
    NodeId id;
    if (!decode_id(dev_.read_tag(shadow_addr(i)), &id)) continue;
    SitNode node = SitNode::from_block(id, false, images[i]);
    const std::uint64_t key = encode_id(id);
    if (SitNode* existing = latest.find(key)) {
      if (node.parent_value() > existing->parent_value()) *existing = node;
    } else {
      latest.get_or_create(key) = node;
      latest_keys.push_back(key);
    }
  }
  for (const std::uint64_t key : latest_keys) {
    SitNode& node = *latest.find(key);
    MetadataLine* line = nullptr;
    const Addr addr = geo_.node_addr(node.id);
    if (mcache_.peek(addr) != nullptr) continue;
    // A shadow entry can be stale: the node was evicted (persisted) later
    // and its fresher entry overwritten by the line's next occupant.
    // Counters are monotone, so skip entries at or below the NVM image —
    // the node is clean and current in NVM.
    if (dev_.contains(addr)) {
      ++recovery_reads_;
      bool dead = false;
      const Block nvm_img = dev_.peek_corrected(addr, &dead);
      if (!dead) {
        const SitNode nvm_node = SitNode::from_block(node.id, false, nvm_img);
        if (nvm_node.parent_value() >= node.parent_value()) continue;
      }
      // Dead NVM copy: the shadow entry is the only readable version —
      // install it; re-persisting lays down a fresh codeword.
    }
    auto victim = mcache_.insert(addr, true, node, &line);
    if (victim && victim->dirty) {
      persist_detached(victim->payload, 0);
    }
    // Refresh the shadow entry at the node's (possibly new) cache line so
    // the next crash still finds its latest state.
    Cycle t = 0;
    on_node_modified(node.id, t);
    ++result.nodes_recovered;
  }
}

}  // namespace steins
