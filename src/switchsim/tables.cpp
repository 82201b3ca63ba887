#include "switchsim/tables.hpp"

namespace iguard::switchsim {

bool BlacklistTable::contains_key(std::uint64_t k) {
  if (!entries_.contains(k)) return false;
  if (policy_ == EvictionPolicy::kLru) touch(k);
  return true;
}

void BlacklistTable::touch(std::uint64_t k) {
  std::uint64_t& stamp = *entries_.find(k);
  by_stamp_.erase(stamp);
  stamp = ++clock_;
  by_stamp_.emplace(stamp, k);
}

bool BlacklistTable::install(const traffic::FiveTuple& ft) {
  if (capacity_ == 0) return false;
  const std::uint64_t k = key(ft);
  if (entries_.contains(k)) {
    if (policy_ == EvictionPolicy::kLru) touch(k);
    return false;
  }
  if (entries_.size() >= capacity_) {
    if (policy_ == EvictionPolicy::kFifo) {
      // Lazy compaction: erase() leaves withdrawn keys in the queue.
      while (!order_.empty() && !entries_.contains(order_.front())) order_.pop_front();
      if (!order_.empty()) {
        entries_.erase(order_.front());
        order_.pop_front();
        ++evictions_;
      }
    } else {
      const auto victim = by_stamp_.begin();
      entries_.erase(victim->second);
      by_stamp_.erase(victim);
      ++evictions_;
    }
  }
  const std::uint64_t stamp = ++clock_;
  entries_.insert(k, stamp);
  // The install-order ring exists only for FIFO eviction; the stamp index
  // only for LRU. Maintaining the idle structure would grow it one entry
  // per install for the lifetime of the table without ever draining it.
  if (policy_ == EvictionPolicy::kFifo) {
    order_.push_back(k);
  } else {
    by_stamp_.emplace(stamp, k);
  }
  return true;
}

bool BlacklistTable::erase(const traffic::FiveTuple& ft) {
  const std::uint64_t k = key(ft);
  const std::uint64_t* stamp = entries_.find(k);
  if (stamp == nullptr) return false;
  if (policy_ == EvictionPolicy::kLru) by_stamp_.erase(*stamp);
  entries_.erase(k);
  return true;
}

}  // namespace iguard::switchsim
