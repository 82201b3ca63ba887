// Compiled rule-match engine: the bitmap-intersection model of a TCAM range
// stage. A RuleTable's priority-ordered linear scan costs O(rules × fields)
// per lookup; a real Tofino answers the same query in one pipeline pass. To
// match that asymptotically, compilation builds one interval index per field:
// the sorted range endpoints of every rule partition the 32-bit domain into
// intervals on which the covering rule set is constant, and each interval
// carries that set as a bitmask (bit i = priority-sorted rule i) padded to
// whole 512-bit blocks. A lookup resolves each field's interval through a
// bucket table (a short forward scan, no binary search), then ANDs the
// selected mask rows one cache line at a time, stopping as soon as the
// accumulator is empty; the first set bit of the full intersection is the
// highest-priority match — exactly the TCAM's priority encoder. Results are
// bit-identical to RuleTable by construction (tests/test_compiled_table.cpp
// property-checks this on random rule sets), which is what lets the pipeline
// swap engines freely.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rules/rule_table.hpp"

namespace iguard::rules {

class CompiledRuleTable {
 public:
  CompiledRuleTable() = default;
  /// Compile a priority-sorted table. The source rules are copied so match()
  /// can return them and so recompilation never dangles.
  explicit CompiledRuleTable(const RuleTable& table) { compile(table.rules()); }
  explicit CompiledRuleTable(std::vector<RangeRule> rules) {
    compile(RuleTable(std::move(rules)).rules());
  }

  std::size_t size() const { return rules_.size(); }
  const std::vector<RangeRule>& rules() const { return rules_; }

  /// Index (into rules(), i.e. priority order) of the first matching rule,
  /// or -1. Performs no heap allocation.
  int match_index(std::span<const std::uint32_t> key) const;

  /// True iff any rule matches (the per-tree benign vote). No allocation.
  bool matches_any(std::span<const std::uint32_t> key) const { return match_index(key) >= 0; }

  /// Batch width above which the batched entry points fall back to per-key
  /// scalar lookups (the row-pointer scratch is stack-resident).
  static constexpr std::size_t kMaxBatchWidth = 16;

  /// Batched match: `keys` holds out.size() row-major keys of `width` fields
  /// each; out[i] = match_index(key_i). The per-field interval lookups
  /// run field-major across the batch (one field's bucket table and bounds
  /// stay cache-resident for every key) before the per-key bitmask AND
  /// sweeps. Bit-exact with the scalar loop; no heap allocation. `skip`
  /// (optional, out.size() bytes) marks keys to leave untouched.
  void match_index_batch(std::span<const std::uint32_t> keys, std::size_t width,
                         std::span<int> out, const std::uint8_t* skip = nullptr) const;

  /// Batched any-match (the per-tree benign vote): out[i] = matches_any.
  /// Same amortisation and exactness contract as match_index_batch.
  void matches_any_batch(std::span<const std::uint32_t> keys, std::size_t width,
                         std::span<std::uint8_t> out, const std::uint8_t* skip = nullptr) const;

  /// Batched whitelist classify: matched rule's label, else 1. Bit-exact
  /// with per-key classify; no allocation.
  void classify_batch(std::span<const std::uint32_t> keys, std::size_t width,
                      std::span<int> out) const;

  /// First matching rule in priority order — same contract as
  /// RuleTable::match (copies the rule; use match_index on hot paths).
  std::optional<RangeRule> match(std::span<const std::uint32_t> key) const {
    const int i = match_index(key);
    return i >= 0 ? std::optional<RangeRule>(rules_[static_cast<std::size_t>(i)]) : std::nullopt;
  }

  /// Whitelist semantics, identical to RuleTable::classify: matched rule's
  /// label, else 1 (no-match defaults to malicious). No allocation.
  int classify(std::span<const std::uint32_t> key) const {
    const int i = match_index(key);
    return i >= 0 ? rules_[static_cast<std::size_t>(i)].label : 1;
  }

 private:
  /// One cache line of rule bits: the unit the AND sweep works in. Mask
  /// rows are padded to whole blocks so the sweep never handles a tail.
  struct alignas(64) MaskBlock {
    std::uint64_t w[8];
  };

  /// Interval index for one field of one key-width group. Interval i spans
  /// [bounds[i], bounds[i+1]) (the last one extends to 2^32), and row i of
  /// `masks` (`blocks` blocks) holds bit b for every local rule b whose
  /// range covers the whole interval. Bounds are stored as uint32 (every
  /// start point fits: the one candidate equal to 2^32 is popped during
  /// compilation). covered[i] == 0 marks an interval no rule covers on this
  /// field — a key landing there cannot match anything, so lookups reject
  /// before touching any mask row (the common case for off-whitelist
  /// traffic).
  ///
  /// bucket[b] is the interval holding key b << shift, for the buckets up
  /// to the highest bound (at most 1024, and about two per interval), and a
  /// trailing entry holds the last interval. The interval of a key in
  /// bucket b therefore lies in [bucket[b], bucket[b+1]]; keys past the
  /// last bucket use the last bucket's range, which ends at the last
  /// interval.
  struct FieldIndex {
    std::vector<std::uint32_t> bounds;   // ascending interval start points
    std::vector<std::uint32_t> bucket;   // first interval of each bucket
    unsigned shift = 0;
    std::vector<std::uint8_t> covered;   // per interval: any mask bit set
    std::vector<MaskBlock> masks;        // bounds.size() rows × `blocks`

    /// The interval holding `key`: exactly upper_bound(bounds, key) - 1.
    std::size_t resolve(std::uint32_t key) const;
  };

  /// Rules are grouped by field count: a key only ever matches rules of its
  /// own width (RangeRule::matches), and priority order within a width group
  /// is the global priority order restricted to that group.
  struct WidthGroup {
    std::size_t width = 0;
    std::size_t blocks = 0;                // mask row length in MaskBlocks
    std::vector<FieldIndex> fields;        // one per key position
    std::vector<std::uint32_t> to_global;  // local rule index -> rules_ index
  };

  const WidthGroup* group_of(std::size_t width) const;
  /// The early-exit AND over one key's resolved mask rows (rows[f] is
  /// field f's row): the first matching rule's rules_ index, or -1.
  int first_match(const WidthGroup& g, const MaskBlock* const* rows) const;
  /// Shared body of the batched entry points: emit(i, match_index(key_i))
  /// for every key not marked in `skip`.
  template <typename Emit>
  void batch_match(std::span<const std::uint32_t> keys, std::size_t width, std::size_t n,
                   const std::uint8_t* skip, Emit&& emit) const;
  void compile(const std::vector<RangeRule>& sorted_rules);

  std::vector<RangeRule> rules_;        // priority-sorted, as in RuleTable
  std::vector<WidthGroup> groups_;      // ascending width
};

}  // namespace iguard::rules
