// Blacklist exact-match table. The control plane (see faults.hpp) receives
// digests from the data plane whenever a flow's class is determined (13 B
// five-tuple + 1-bit label, App. B.2), installs a blacklist rule for
// malicious flows, and evicts old rules FIFO or LRU when the table is full
// (§3.3.2). A sustained-DDoS blacklist churns one eviction per install, so
// the entries live in a flat open-addressing table (flat_table.hpp) and FIFO
// order in a ring — FIFO churn allocates nothing — and LRU eviction is
// O(log n) via a stamp index, where a per-install linear scan could not
// keep up.
#pragma once

#include <cstddef>
#include <map>

#include "switchsim/flat_table.hpp"
#include "trafficgen/packet.hpp"

namespace iguard::switchsim {

enum class EvictionPolicy { kFifo, kLru };

class BlacklistTable {
 public:
  explicit BlacklistTable(std::size_t capacity, EvictionPolicy policy = EvictionPolicy::kFifo)
      : capacity_(capacity), policy_(policy) {}

  /// Bidirectional table key of a 5-tuple — exposed so the pipeline can
  /// hash a packet once and reuse the key for the blacklist lookup and the
  /// leak check.
  static std::uint64_t flow_key(const traffic::FiveTuple& ft) {
    return traffic::bihash(ft, 0xB1AC);
  }

  /// True if the 5-tuple (either direction) is blacklisted. LRU mode
  /// refreshes recency on hit.
  bool contains(const traffic::FiveTuple& ft) { return contains_key(key(ft)); }

  /// Same, keyed by a precomputed flow_key(ft).
  bool contains_key(std::uint64_t k);

  /// Install a rule; evicts the oldest/least-recently-used entry when full.
  /// Returns true when a new entry was inserted (false = duplicate; LRU
  /// refreshes recency, FIFO keeps the original install position).
  bool install(const traffic::FiveTuple& ft);

  /// Remove a rule (operator withdrawal / reconciliation). Returns true if
  /// the entry existed. FIFO mode leaves the stale key in the order queue;
  /// install() compacts it away lazily.
  bool erase(const traffic::FiveTuple& ft);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t evictions() const { return evictions_; }
  /// FIFO bookkeeping queue length (0 under LRU); exposed so tests can
  /// assert the queue stays bounded by the live entry count.
  std::size_t order_queue_size() const { return order_.size(); }

 private:
  std::uint64_t key(const traffic::FiveTuple& ft) const { return flow_key(ft); }
  void touch(std::uint64_t k);

  std::size_t capacity_;
  EvictionPolicy policy_;
  FlatKeyTable<std::uint64_t> entries_;              // key -> stamp
  KeyFifo order_;                                    // FIFO install order
  std::map<std::uint64_t, std::uint64_t> by_stamp_;  // LRU: stamp -> key
  std::uint64_t clock_ = 0;
  std::size_t evictions_ = 0;
};

/// One digest message (data plane -> controller).
struct Digest {
  traffic::FiveTuple ft;
  int label = 0;

  /// Wire size: 13 B 5-tuple + 1 B carrying the 1-bit label (App. B.2).
  static constexpr std::size_t kBytes = 14;
};

}  // namespace iguard::switchsim
