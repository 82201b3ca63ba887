// Flat flow-keyed containers (switchsim/flat_table.hpp) against standard
// containers, and the BlacklistTable built on them against the
// unordered_map + deque + map implementation it replaced, kept here as the
// oracle. Key pools force collisions in the low bits — the bits that pick a
// slot — so probe clusters wrap past the end of the slot array and
// backward-shift deletes run through them.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "ml/rng.hpp"
#include "switchsim/flat_table.hpp"
#include "switchsim/tables.hpp"

namespace iguard::switchsim {
namespace {

/// Keys sharing their low 12 bits (one home slot at every table size up to
/// 4096; all ones = the last slot, so clusters wrap), some ordinary keys,
/// and the sentinel value 0.
std::vector<std::uint64_t> colliding_key_pool(ml::Rng& rng) {
  std::vector<std::uint64_t> pool{0};
  for (std::uint64_t i = 1; i <= 24; ++i) pool.push_back(i << 12 | 0xFFF);
  for (std::uint64_t i = 1; i <= 12; ++i) pool.push_back(i << 12);
  for (int i = 0; i < 24; ++i) pool.push_back(rng.engine()());
  return pool;
}

TEST(FlatKeyTable, MatchesUnorderedMapUnderRandomChurn) {
  ml::Rng rng(0xF1A7ull);
  const auto pool = colliding_key_pool(rng);
  FlatKeyTable<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  for (int op = 0; op < 40000; ++op) {
    const std::uint64_t k = pool[rng.index(pool.size())];
    switch (rng.index(3)) {
      case 0: {
        const std::uint64_t v = rng.engine()();
        ASSERT_EQ(table.insert(k, v), oracle.emplace(k, v).second) << "op " << op;
        break;
      }
      case 1:
        ASSERT_EQ(table.erase(k), oracle.erase(k) == 1) << "op " << op;
        break;
      default: {
        const std::uint64_t* got = table.find(k);
        const auto it = oracle.find(k);
        ASSERT_EQ(got != nullptr, it != oracle.end()) << "op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << "op " << op;
        }
      }
    }
    ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
  }
  // Every key still reachable (or absent) after the churn.
  for (const std::uint64_t k : pool) EXPECT_EQ(table.contains(k), oracle.contains(k));
}

TEST(FlatKeyTable, EraseShiftsWrappedClusterBack) {
  // Five keys homed on the last slot of a 16-slot table wrap into slots
  // 0..3; erasing each position in turn must leave the rest findable.
  for (std::size_t victim = 0; victim < 5; ++victim) {
    FlatKeySet set;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 1; i <= 5; ++i) keys.push_back(i << 12 | 0xF);
    keys.push_back(0x20);  // homed on slot 0, displaced by the wrapped keys
    for (const std::uint64_t k : keys) ASSERT_TRUE(set.insert(k));
    ASSERT_TRUE(set.erase(keys[victim]));
    EXPECT_FALSE(set.contains(keys[victim]));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i != victim) {
        EXPECT_TRUE(set.contains(keys[i])) << "victim " << victim << " key " << i;
      }
    }
    EXPECT_EQ(set.size(), keys.size() - 1);
  }
}

TEST(FlatKeyTable, KeyZeroLivesInTheSideSlot) {
  FlatKeyTable<int> t;
  EXPECT_FALSE(t.contains(0));
  EXPECT_TRUE(t.insert(0, 7));
  EXPECT_FALSE(t.insert(0, 8));  // present: value unchanged
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.erase(0));
  EXPECT_FALSE(t.erase(0));
  EXPECT_EQ(t.size(), 0u);
}

TEST(KeyFifo, MatchesDequeAcrossGrowthAndWrap) {
  ml::Rng rng(0xF1F0ull);
  KeyFifo fifo;
  std::deque<std::uint64_t> oracle;
  for (int op = 0; op < 20000; ++op) {
    // Push-biased phases grow the ring while its head has wrapped.
    const bool push = oracle.empty() || rng.index(op % 3000 < 1500 ? 3 : 5) != 0;
    if (push) {
      const std::uint64_t k = rng.engine()();
      fifo.push_back(k);
      oracle.push_back(k);
    } else {
      ASSERT_EQ(fifo.front(), oracle.front()) << "op " << op;
      fifo.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(fifo.size(), oracle.size());
    ASSERT_EQ(fifo.empty(), oracle.empty());
  }
}

/// The BlacklistTable this code base used before the flat table and the
/// ring, verbatim in behaviour, keyed by BlacklistTable::flow_key.
class OracleBlacklist {
 public:
  OracleBlacklist(std::size_t capacity, EvictionPolicy policy)
      : capacity_(capacity), policy_(policy) {}

  bool contains_key(std::uint64_t k) {
    const auto it = entries_.find(k);
    if (it == entries_.end()) return false;
    if (policy_ == EvictionPolicy::kLru) touch(it->first);
    return true;
  }

  bool install(std::uint64_t k) {
    if (capacity_ == 0) return false;
    if (entries_.contains(k)) {
      if (policy_ == EvictionPolicy::kLru) touch(k);
      return false;
    }
    if (entries_.size() >= capacity_) {
      if (policy_ == EvictionPolicy::kFifo) {
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
    entries_.emplace(k, stamp);
    if (policy_ == EvictionPolicy::kFifo) {
      order_.push_back(k);
    } else {
      by_stamp_.emplace(stamp, k);
    }
    return true;
  }

  bool erase(std::uint64_t k) {
    const auto it = entries_.find(k);
    if (it == entries_.end()) return false;
    if (policy_ == EvictionPolicy::kLru) by_stamp_.erase(it->second);
    entries_.erase(it);
    return true;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t evictions() const { return evictions_; }
  std::size_t order_queue_size() const { return order_.size(); }

 private:
  void touch(std::uint64_t k) {
    auto& stamp = entries_[k];
    by_stamp_.erase(stamp);
    stamp = ++clock_;
    by_stamp_.emplace(stamp, k);
  }

  std::size_t capacity_;
  EvictionPolicy policy_;
  std::unordered_map<std::uint64_t, std::uint64_t> entries_;
  std::deque<std::uint64_t> order_;
  std::map<std::uint64_t, std::uint64_t> by_stamp_;
  std::uint64_t clock_ = 0;
  std::size_t evictions_ = 0;
};

/// Five-tuples whose flow keys share their low 12 bits (searched for), plus
/// ordinary ones.
std::vector<traffic::FiveTuple> colliding_flow_pool() {
  std::vector<traffic::FiveTuple> pool;
  std::size_t wrapped = 0, zero_low = 0;
  for (std::uint32_t ip = 1; wrapped < 16 || zero_low < 8; ++ip) {
    const traffic::FiveTuple ft{ip, 0x0A0000FEu, 40000, 80, traffic::kProtoTcp};
    const std::uint64_t low = BlacklistTable::flow_key(ft) & 0xFFF;
    if (low == 0xFFF && wrapped < 16) {
      pool.push_back(ft);
      ++wrapped;
    } else if (low == 0 && zero_low < 8) {
      pool.push_back(ft);
      ++zero_low;
    }
  }
  for (std::uint16_t i = 1; i <= 16; ++i) {
    pool.push_back({0xC0A80000u + i, 0x0A000001u, static_cast<std::uint16_t>(1000 + i), 53,
                    traffic::kProtoUdp});
  }
  return pool;
}

TEST(BlacklistOracle, RandomInstallContainsEraseMatchOldTable) {
  const auto pool = colliding_flow_pool();
  for (const EvictionPolicy policy : {EvictionPolicy::kFifo, EvictionPolicy::kLru}) {
    for (const std::size_t capacity : {1u, 3u, 8u, 21u, 64u}) {
      SCOPED_TRACE(::testing::Message() << "policy " << static_cast<int>(policy)
                                        << " capacity " << capacity);
      ml::Rng rng(0xB1ACull + capacity);
      BlacklistTable table(capacity, policy);
      OracleBlacklist oracle(capacity, policy);
      for (int op = 0; op < 20000; ++op) {
        const traffic::FiveTuple ft = pool[rng.index(pool.size())];
        const std::uint64_t k = BlacklistTable::flow_key(ft);
        const std::size_t kind = rng.index(8);
        if (kind < 3) {
          ASSERT_EQ(table.install(ft), oracle.install(k)) << "op " << op;
        } else if (kind < 5) {
          ASSERT_EQ(table.erase(ft), oracle.erase(k)) << "op " << op;
        } else if (kind == 5) {
          // Erase then reinstall at once: FIFO keeps the stale queue slot.
          ASSERT_EQ(table.erase(ft), oracle.erase(k)) << "op " << op;
          ASSERT_EQ(table.install(ft.reversed()), oracle.install(k)) << "op " << op;
        } else {
          const traffic::FiveTuple probe = kind == 6 ? ft : ft.reversed();
          ASSERT_EQ(table.contains(probe), oracle.contains_key(k)) << "op " << op;
        }
        ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
        ASSERT_EQ(table.evictions(), oracle.evictions()) << "op " << op;
        ASSERT_EQ(table.order_queue_size(), oracle.order_queue_size()) << "op " << op;
      }
      for (const auto& ft : pool) {
        ASSERT_EQ(table.contains(ft), oracle.contains_key(BlacklistTable::flow_key(ft)));
      }
    }
  }
}

}  // namespace
}  // namespace iguard::switchsim
