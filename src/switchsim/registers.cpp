#include "switchsim/registers.hpp"

#include <stdexcept>

namespace iguard::switchsim {

FlowStore::FlowStore(std::size_t slots_per_table, std::uint64_t seed)
    : table1_(slots_per_table),
      table2_(slots_per_table),
      seed1_(seed ^ 0xA5A5A5A5ull),
      seed2_(seed ^ 0x3C3C3C3Cull),
      sig_seed_(seed) {
  if (slots_per_table == 0) throw std::invalid_argument("FlowStore: zero slots");
}

std::uint64_t FlowStore::signature(const traffic::FiveTuple& ft) const {
  // Never 0 (0 marks an empty slot).
  const std::uint64_t s = traffic::bihash(ft, sig_seed_);
  return s == 0 ? 1 : s;
}

FlowStore::Access FlowStore::access(const traffic::FiveTuple& ft) {
  const std::uint64_t sig = signature(ft);
  IntFlowState& s1 = table1_[static_cast<std::size_t>(traffic::bihash(ft, seed1_)) % table1_.size()];
  IntFlowState& s2 = table2_[static_cast<std::size_t>(traffic::bihash(ft, seed2_)) % table2_.size()];

  Access a;
  a.sig = sig;
  if (!s1.empty() && s1.sig == sig) {
    a.state = &s1;
    a.found = true;
  } else if (!s2.empty() && s2.sig == sig) {
    a.state = &s2;
    a.found = true;
  } else if (s1.empty()) {
    a.state = &s1;
    a.inserted = true;
  } else if (s2.empty()) {
    a.state = &s2;
    a.inserted = true;
  } else {
    // Both ways occupied by other flows: the primary slot is the resident
    // the orange path inspects.
    a.state = &s1;
    a.collision = true;
  }
  return a;
}

const IntFlowState* FlowStore::find(const traffic::FiveTuple& ft) const {
  const std::uint64_t sig = signature(ft);
  const IntFlowState& s1 =
      table1_[static_cast<std::size_t>(traffic::bihash(ft, seed1_)) % table1_.size()];
  const IntFlowState& s2 =
      table2_[static_cast<std::size_t>(traffic::bihash(ft, seed2_)) % table2_.size()];
  if (!s1.empty() && s1.sig == sig) return &s1;
  if (!s2.empty() && s2.sig == sig) return &s2;
  return nullptr;
}

std::size_t FlowStore::occupied() const {
  std::size_t n = 0;
  for (const auto& s : table1_) n += s.empty() ? 0 : 1;
  for (const auto& s : table2_) n += s.empty() ? 0 : 1;
  return n;
}

}  // namespace iguard::switchsim
