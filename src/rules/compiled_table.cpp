#include "rules/compiled_table.hpp"

#include <algorithm>
#include <bit>

namespace iguard::rules {

namespace {

constexpr std::uint64_t kDomainEnd = 1ull << 32;  // one past the largest key

/// Widest key the AND sweep handles on the stack; real tables are 4 (PL) or
/// 13 (FL) fields wide. Wider rules fall back to the linear scan.
constexpr std::size_t kMaxFields = 64;

/// Keys per batched inner block: bounds the stack scratch (row pointers are
/// kChunk × kMaxBatchWidth) and keeps per-key cursors in L1.
constexpr std::size_t kChunk = 64;

/// A field's bucket table has at most 2^kBucketBits buckets.
constexpr int kBucketBits = 10;

/// Bucket scans longer than this (bounds clustered inside one bucket) fall
/// back to a binary search over the bucket's intervals, so a lookup never
/// costs more than the plain upper_bound it replaces.
constexpr std::size_t kMaxScan = 8;

constexpr std::size_t kBlockBits = 512;  // rules per MaskBlock

}  // namespace

// Inlined into every lookup loop of this file (the only callers): a call
// per field would cost as much as the scan itself.
[[gnu::always_inline]] inline std::size_t CompiledRuleTable::FieldIndex::resolve(
    std::uint32_t key) const {
  const std::size_t b = std::min<std::size_t>(key >> shift, bucket.size() - 2);
  std::size_t iv = bucket[b];
  const std::size_t end = bucket[b + 1];
  if (end - iv > kMaxScan) {
    const std::uint32_t* first = bounds.data() + iv + 1;
    return static_cast<std::size_t>(std::upper_bound(first, bounds.data() + end + 1, key) -
                                    bounds.data()) - 1;
  }
  while (iv < end && bounds[iv + 1] <= key) ++iv;
  return iv;
}

void CompiledRuleTable::compile(const std::vector<RangeRule>& sorted_rules) {
  rules_ = sorted_rules;
  groups_.clear();

  // Group rule indices by width, preserving priority order within a group.
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const std::size_t w = rules_[ri].fields.size();
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [w](const WidthGroup& g) { return g.width == w; });
    if (it == groups_.end()) {
      groups_.push_back(WidthGroup{w, 0, {}, {}});
      it = std::prev(groups_.end());
    }
    it->to_global.push_back(static_cast<std::uint32_t>(ri));
  }
  std::sort(groups_.begin(), groups_.end(),
            [](const WidthGroup& a, const WidthGroup& b) { return a.width < b.width; });

  for (auto& g : groups_) {
    const std::size_t n = g.to_global.size();
    g.blocks = (n + kBlockBits - 1) / kBlockBits;
    g.fields.resize(g.width);
    if (g.width > kMaxFields) continue;  // match_index falls back to the scan
    for (std::size_t f = 0; f < g.width; ++f) {
      FieldIndex& fi = g.fields[f];
      // Breakpoints: every rule's lo and hi+1 (the first value past the
      // range). Between consecutive breakpoints the covering set is
      // constant. Collected in 64-bit (hi+1 can be 2^32), narrowed below
      // once the one out-of-domain candidate is dropped.
      std::vector<std::uint64_t> bounds;
      bounds.push_back(0);
      for (const std::uint32_t gi : g.to_global) {
        const FieldRange& r = rules_[gi].fields[f];
        if (r.empty()) continue;  // matches nothing: never sets a bit
        bounds.push_back(r.lo);
        bounds.push_back(static_cast<std::uint64_t>(r.hi) + 1);
      }
      std::sort(bounds.begin(), bounds.end());
      bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
      if (bounds.back() >= kDomainEnd) bounds.pop_back();  // hi = 2^32-1
      fi.bounds.assign(bounds.begin(), bounds.end());

      fi.masks.assign(fi.bounds.size() * g.blocks, MaskBlock{});
      // Locals, so the bit stores below cannot alias them.
      MaskBlock* const rows = fi.masks.data();
      const std::size_t stride = g.blocks;
      for (std::size_t li = 0; li < n; ++li) {
        const FieldRange& r = rules_[g.to_global[li]].fields[f];
        if (r.empty()) continue;
        // Intervals are either fully inside or fully outside [lo, hi]; the
        // covered ones start at bound == lo and end before the bound > hi.
        const auto first = std::lower_bound(fi.bounds.begin(), fi.bounds.end(), r.lo);
        const auto last = std::upper_bound(first, fi.bounds.end(), r.hi);
        const std::uint64_t bit = 1ull << (li % 64);
        const std::size_t block = li / kBlockBits;
        const std::size_t word = li % kBlockBits / 64;
        const auto iv_end = static_cast<std::size_t>(last - fi.bounds.begin());
        for (auto iv = static_cast<std::size_t>(first - fi.bounds.begin()); iv < iv_end; ++iv) {
          rows[iv * stride + block].w[word] |= bit;
        }
      }
      // Coverage flags: an interval with an all-zero mask row can reject a
      // lookup after one interval lookup, before any AND work.
      fi.covered.assign(fi.bounds.size(), 0);
      for (std::size_t iv = 0; iv < fi.bounds.size(); ++iv) {
        std::uint64_t any = 0;
        for (std::size_t b = 0; b < g.blocks; ++b) {
          for (const std::uint64_t w : fi.masks[iv * g.blocks + b].w) any |= w;
        }
        fi.covered[iv] = any != 0 ? 1 : 0;
      }
      // Bucket table, in one pass over buckets and bounds together. The
      // shift leaves at most 2^kBucketBits buckets up to the highest bound,
      // and at most about two per interval, so a field with few intervals
      // gets a small table.
      const std::uint32_t top = fi.bounds.back();
      const int bits = std::min(kBucketBits, static_cast<int>(std::bit_width(fi.bounds.size())));
      fi.shift = static_cast<unsigned>(std::max(0, static_cast<int>(std::bit_width(top)) - bits));
      const std::size_t buckets = (static_cast<std::size_t>(top) >> fi.shift) + 1;
      fi.bucket.resize(buckets + 1);
      std::size_t iv = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint64_t first_key = static_cast<std::uint64_t>(b) << fi.shift;
        while (iv + 1 < fi.bounds.size() && fi.bounds[iv + 1] <= first_key) ++iv;
        fi.bucket[b] = static_cast<std::uint32_t>(iv);
      }
      fi.bucket[buckets] = static_cast<std::uint32_t>(fi.bounds.size() - 1);
    }
  }
}

const CompiledRuleTable::WidthGroup* CompiledRuleTable::group_of(std::size_t width) const {
  for (const auto& g : groups_) {
    if (g.width == width) return &g;
  }
  return nullptr;
}

int CompiledRuleTable::first_match(const WidthGroup& g, const MaskBlock* const* rows) const {
  for (std::size_t b = 0; b < g.blocks; ++b) {
    // AND the fields' rows one cache line at a time; an all-zero
    // accumulator ends the block early. The zero test ORs the whole block,
    // so the sweep itself has no branches.
    MaskBlock acc = rows[0][b];
    std::size_t f = 1;
    for (; f < g.width; ++f) {
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < 8; ++w) {
        acc.w[w] &= rows[f][b].w[w];
        any |= acc.w[w];
      }
      if (any == 0) break;
    }
    if (f < g.width) continue;
    // Low rule indices first: the first set bit is the highest-priority
    // match (the TCAM priority encoder).
    for (std::size_t w = 0; w < 8; ++w) {
      if (acc.w[w] == 0) continue;
      const std::size_t local =
          b * kBlockBits + w * 64 + static_cast<std::size_t>(std::countr_zero(acc.w[w]));
      return static_cast<int>(g.to_global[local]);
    }
  }
  return -1;
}

int CompiledRuleTable::match_index(std::span<const std::uint32_t> key) const {
  const WidthGroup* g = group_of(key.size());
  if (g == nullptr) return -1;
  if (g->width == 0) return static_cast<int>(g->to_global[0]);  // empty conjunction
  if (g->width > kMaxFields) {
    for (const std::uint32_t gi : g->to_global) {
      if (rules_[gi].matches(key)) return static_cast<int>(gi);
    }
    return -1;
  }
  // Resolve every field before the AND: the lookups are independent, so
  // their row loads overlap instead of waiting on each other's zero tests.
  const MaskBlock* rows[kMaxFields];
  for (std::size_t f = 0; f < g->width; ++f) {
    const FieldIndex& fi = g->fields[f];
    const std::size_t iv = fi.resolve(key[f]);
    if (fi.covered[iv] == 0) return -1;  // no rule covers key[f] here
    rows[f] = fi.masks.data() + iv * g->blocks;
  }
  return first_match(*g, rows);
}

template <typename Emit>
void CompiledRuleTable::batch_match(std::span<const std::uint32_t> keys, std::size_t width,
                                    std::size_t n, const std::uint8_t* skip,
                                    Emit&& emit) const {
  if (keys.size() < n * width) return;  // malformed: leave out untouched
  const auto wanted = [skip](std::size_t i) { return skip == nullptr || skip[i] == 0; };
  const WidthGroup* g = group_of(width);
  if (g == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (wanted(i)) emit(i, -1);
    }
    return;
  }
  if (width == 0 || width > kMaxBatchWidth) {
    // Degenerate or too wide for the stack scratch: per-key scalar lookups
    // (still bit-exact; kMaxBatchWidth covers the FL=13 / PL=4 deployments).
    for (std::size_t i = 0; i < n; ++i) {
      if (wanted(i)) emit(i, match_index(keys.subspan(i * width, width)));
    }
    return;
  }
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    const MaskBlock* rows[kChunk * kMaxBatchWidth];
    std::uint8_t dead[kChunk];
    for (std::size_t i = 0; i < m; ++i) dead[i] = wanted(base + i) ? 0 : 2;
    // Field-major interval resolution: field f's bucket table and bounds are
    // reused by every key of the chunk before the next field is touched.
    for (std::size_t f = 0; f < width; ++f) {
      const FieldIndex& fi = g->fields[f];
      for (std::size_t i = 0; i < m; ++i) {
        if (dead[i] != 0) continue;
        const std::size_t iv = fi.resolve(keys[(base + i) * width + f]);
        if (fi.covered[iv] == 0) {
          dead[i] = 1;  // provable miss: skip this key's remaining fields
          continue;
        }
        rows[i * width + f] = fi.masks.data() + iv * g->blocks;
      }
    }
    // Per-key AND sweep, identical to the scalar priority encoder.
    for (std::size_t i = 0; i < m; ++i) {
      if (dead[i] == 2) continue;  // caller-skipped: leave out untouched
      emit(base + i, dead[i] == 1 ? -1 : first_match(*g, rows + i * width));
    }
  }
}

void CompiledRuleTable::match_index_batch(std::span<const std::uint32_t> keys,
                                          std::size_t width, std::span<int> out,
                                          const std::uint8_t* skip) const {
  batch_match(keys, width, out.size(), skip, [&](std::size_t i, int m) { out[i] = m; });
}

void CompiledRuleTable::matches_any_batch(std::span<const std::uint32_t> keys,
                                          std::size_t width, std::span<std::uint8_t> out,
                                          const std::uint8_t* skip) const {
  batch_match(keys, width, out.size(), skip,
              [&](std::size_t i, int m) { out[i] = m >= 0 ? 1 : 0; });
}

void CompiledRuleTable::classify_batch(std::span<const std::uint32_t> keys, std::size_t width,
                                       std::span<int> out) const {
  match_index_batch(keys, width, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = out[i] >= 0 ? rules_[static_cast<std::size_t>(out[i])].label : 1;
  }
}

}  // namespace iguard::rules
