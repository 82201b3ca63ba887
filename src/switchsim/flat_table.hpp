// Flat flow-keyed containers for the per-packet path. A flow key is a
// bihash() output, already mixed by SplitMix64 rounds, so FlatKeyTable takes
// a key's slot straight from its low bits: linear probing, backward-shift
// deletion (no tombstones, so a table that churns forever never degrades),
// and a slot array that doubles at half load. Once a table has grown to its
// working set, insert, find and erase allocate nothing — where
// std::unordered_map allocates a node on every insert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace iguard::switchsim {

/// Value type of a keys-only FlatKeyTable (a slot is then just the key).
struct NoValue {};

template <typename V>
class FlatKeyTable {
 public:
  std::size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

  V* find(std::uint64_t k) {
    if (k == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = k & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].key == k) return &slots_[i].value;
      if (slots_[i].key == 0) return nullptr;
    }
  }
  const V* find(std::uint64_t k) const { return const_cast<FlatKeyTable*>(this)->find(k); }
  bool contains(std::uint64_t k) const { return find(k) != nullptr; }

  /// Insert k -> v unless k is present (then nothing changes). Returns true
  /// when inserted.
  bool insert(std::uint64_t k, V v = {}) {
    if (k == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      zero_value_ = v;
      return true;
    }
    if (contains(k)) return false;
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(Slot{k, v});
    ++size_;
    return true;
  }

  /// Remove k; returns true if it was present. The rest of k's probe
  /// cluster shifts back over the hole, so every remaining key stays
  /// reachable from its home slot without tombstones.
  bool erase(std::uint64_t k) {
    if (k == 0) return std::exchange(has_zero_, false);
    if (slots_.empty()) return false;
    std::size_t hole = k & mask_;
    while (slots_[hole].key != k) {
      if (slots_[hole].key == 0) return false;
      hole = (hole + 1) & mask_;
    }
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != 0; j = (j + 1) & mask_) {
      // The key at j may fill the hole iff the hole lies on its probe path,
      // i.e. cyclically within [home, j).
      const std::size_t home = slots_[j].key & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

 private:
  /// Key 0 marks an empty slot; a real key 0 lives in the side slot.
  struct Slot {
    std::uint64_t key = 0;
    [[no_unique_address]] V value{};
  };
  static_assert(!std::is_empty_v<V> || sizeof(Slot) == sizeof(std::uint64_t),
                "a keys-only slot is just the key");

  void place(const Slot& s) {
    std::size_t i = s.key & mask_;
    while (slots_[i].key != 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key != 0) place(s);
    }
  }

  std::vector<Slot> slots_;  // power-of-two length, at most half full
  std::size_t mask_ = 0;
  std::size_t size_ = 0;     // keys in slots_ (the side slot excluded)
  bool has_zero_ = false;
  V zero_value_{};
};

using FlatKeySet = FlatKeyTable<NoValue>;

/// FIFO of flow keys in a power-of-two ring that doubles when full: the
/// push_back/front/pop_front semantics of std::deque, but a queue whose
/// length holds steady allocates nothing (a deque allocates a chunk every
/// 64 pushes).
class KeyFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::uint64_t front() const { return buf_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  void push_back(std::uint64_t k) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = k;
    ++size_;
  }

 private:
  void grow() {
    std::vector<std::uint64_t> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<std::uint64_t> buf_;  // power-of-two length
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace iguard::switchsim
