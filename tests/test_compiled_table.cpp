#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/whitelist.hpp"
#include "ml/rng.hpp"
#include "rules/compiled_table.hpp"
#include "rules/rule_table.hpp"

namespace iguard::rules {
namespace {

/// Reference first-match index: the linear scan the compiled engine must
/// reproduce bit for bit.
int linear_match_index(const RuleTable& t, std::span<const std::uint32_t> key) {
  for (std::size_t i = 0; i < t.rules().size(); ++i) {
    if (t.rules()[i].matches(key)) return static_cast<int>(i);
  }
  return -1;
}

void expect_equivalent(const RuleTable& lin, const CompiledRuleTable& comp,
                       std::span<const std::uint32_t> key) {
  const int want = linear_match_index(lin, key);
  ASSERT_EQ(comp.match_index(key), want);
  ASSERT_EQ(comp.classify(key), lin.classify(key));
  const auto m_lin = lin.match(key);
  const auto m_comp = comp.match(key);
  ASSERT_EQ(m_comp.has_value(), m_lin.has_value());
  if (m_lin) {
    ASSERT_EQ(*m_comp, *m_lin);
  }
}

/// Random rule over `width` fields drawn from a small domain so overlaps,
/// adjacency, duplicates, and empties all occur often.
RangeRule random_rule(ml::Rng& rng, std::size_t width, std::uint32_t domain) {
  RangeRule r;
  r.fields.resize(width);
  for (auto& f : r.fields) {
    switch (rng.index(10)) {
      case 0:  // full domain
        f = {0, domain};
        break;
      case 1:  // empty (lo > hi): must match nothing
        f = {domain / 2 + 1, domain / 2};
        break;
      case 2: {  // point
        const auto v = static_cast<std::uint32_t>(rng.integer(0, domain));
        f = {v, v};
        break;
      }
      default: {
        const auto a = static_cast<std::uint32_t>(rng.integer(0, domain));
        const auto b = static_cast<std::uint32_t>(rng.integer(0, domain));
        f = {std::min(a, b), std::max(a, b)};
      }
    }
  }
  r.label = static_cast<int>(rng.index(2));
  r.priority = static_cast<int>(rng.index(5));  // duplicate priorities likely
  return r;
}

TEST(CompiledRuleTable, PropertyEquivalentToLinearScan) {
  ml::Rng rng(0xC0117ull);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t width = 1 + rng.index(5);
    const std::uint32_t domain = trial % 2 == 0 ? 15u : 255u;
    const std::size_t n_rules = rng.index(40);
    std::vector<RangeRule> rules;
    for (std::size_t i = 0; i < n_rules; ++i) rules.push_back(random_rule(rng, width, domain));

    const RuleTable lin(rules);
    const CompiledRuleTable comp(rules);
    ASSERT_EQ(comp.size(), lin.size());
    ASSERT_EQ(comp.rules(), lin.rules());  // same priority-stable order

    std::vector<std::uint32_t> key(width);
    // Random keys, including out-of-domain values.
    for (int k = 0; k < 50; ++k) {
      for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 2 * domain));
      expect_equivalent(lin, comp, key);
    }
    // Endpoint-adjacent keys: perturb a random rule's corner, where
    // off-by-one interval bugs live.
    for (int k = 0; k < 50 && !rules.empty(); ++k) {
      const auto& r = rules[rng.index(rules.size())];
      for (std::size_t f = 0; f < width; ++f) {
        const std::uint32_t base = rng.index(2) == 0 ? r.fields[f].lo : r.fields[f].hi;
        const std::int64_t jitter = rng.integer(-1, 1);
        key[f] = static_cast<std::uint32_t>(
            std::max<std::int64_t>(0, static_cast<std::int64_t>(base) + jitter));
      }
      expect_equivalent(lin, comp, key);
    }
  }
}

TEST(CompiledRuleTable, ManyRulesCrossWordBoundaries) {
  // >2 mask words with interleaved priorities: the first set bit of the
  // word sweep must match the scan even when the winner is in word 2.
  ml::Rng rng(0x77AB1Eull);
  std::vector<RangeRule> rules;
  for (int i = 0; i < 150; ++i) rules.push_back(random_rule(rng, 3, 31));
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  std::vector<std::uint32_t> key(3);
  for (int k = 0; k < 500; ++k) {
    for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 40));
    expect_equivalent(lin, comp, key);
  }
}

TEST(CompiledRuleTable, MixedWidthsMatchOnlyOwnWidth) {
  std::vector<RangeRule> rules{
      {{{0, 10}}, 0, 0},            // width 1
      {{{0, 10}, {0, 10}}, 1, 1},   // width 2
      {{}, 0, 2},                   // width 0: matches the empty key
  };
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  const std::uint32_t k1[] = {5};
  const std::uint32_t k2[] = {5, 5};
  const std::uint32_t k3[] = {5, 5, 5};
  expect_equivalent(lin, comp, k1);
  expect_equivalent(lin, comp, k2);
  expect_equivalent(lin, comp, k3);
  expect_equivalent(lin, comp, std::span<const std::uint32_t>{});
}

TEST(CompiledRuleTable, DomainEdgeRanges) {
  // hi = 2^32-1 exercises the hi+1 breakpoint at the end of the domain.
  const std::uint32_t max = 0xFFFFFFFFu;
  std::vector<RangeRule> rules{
      {{{max - 1, max}}, 0, 1},
      {{{0, 0}}, 0, 0},
  };
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  for (const std::uint32_t v : {0u, 1u, max - 2, max - 1, max}) {
    const std::uint32_t key[] = {v};
    expect_equivalent(lin, comp, key);
  }
}

TEST(CompiledRuleTable, BatchPropertyBitExactWithScalar) {
  // The batched entry points must reproduce per-key scalar lookups exactly:
  // random tables, batch sizes straddling the internal 64-key chunk, keys
  // spanning in-domain / out-of-domain / endpoint-adjacent values.
  ml::Rng rng(0xBA7C4ull);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t width = 1 + rng.index(5);
    const std::uint32_t domain = trial % 2 == 0 ? 15u : 255u;
    const std::size_t n_rules = rng.index(90);  // >64 rules crosses mask words
    std::vector<RangeRule> rules;
    for (std::size_t i = 0; i < n_rules; ++i) rules.push_back(random_rule(rng, width, domain));
    const CompiledRuleTable comp(rules);

    const std::size_t n = 1 + rng.index(150);
    std::vector<std::uint32_t> keys(n * width);
    for (auto& v : keys) v = static_cast<std::uint32_t>(rng.integer(0, 2 * domain));
    std::vector<int> got_idx(n, -7);
    std::vector<std::uint8_t> got_any(n, 7);
    std::vector<int> got_cls(n, -7);
    comp.match_index_batch(keys, width, got_idx);
    comp.matches_any_batch(keys, width, got_any);
    comp.classify_batch(keys, width, got_cls);
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const std::uint32_t> key(keys.data() + i * width, width);
      ASSERT_EQ(got_idx[i], comp.match_index(key));
      ASSERT_EQ(got_any[i], comp.matches_any(key) ? 1 : 0);
      ASSERT_EQ(got_cls[i], comp.classify(key));
    }

    // Skip mask: marked keys must be left untouched, unmarked ones exact.
    std::vector<std::uint8_t> skip(n);
    for (auto& s : skip) s = static_cast<std::uint8_t>(rng.index(2));
    std::vector<int> skipped_idx(n, -7);
    std::vector<std::uint8_t> skipped_any(n, 7);
    comp.match_index_batch(keys, width, skipped_idx, skip.data());
    comp.matches_any_batch(keys, width, skipped_any, skip.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const std::uint32_t> key(keys.data() + i * width, width);
      ASSERT_EQ(skipped_idx[i], skip[i] != 0 ? -7 : comp.match_index(key));
      ASSERT_EQ(skipped_any[i], skip[i] != 0 ? 7 : (comp.matches_any(key) ? 1 : 0));
    }
  }
}

TEST(CompiledRuleTable, BatchNoGroupAndWideWidthFallbacks) {
  // Width with no rule group: every out slot is a miss. Width past
  // kMaxBatchWidth: the per-key scalar fallback must still be exact.
  std::vector<RangeRule> rules{{{{0, 10}, {0, 10}}, 0, 0}};
  const CompiledRuleTable comp(rules);
  std::vector<std::uint32_t> k3(9, 5);
  std::vector<int> idx(3, -7);
  comp.match_index_batch(k3, 3, idx);
  EXPECT_EQ(idx, (std::vector<int>{-1, -1, -1}));

  const std::size_t wide = CompiledRuleTable::kMaxBatchWidth + 3;
  std::vector<RangeRule> wide_rules{{std::vector<FieldRange>(wide, FieldRange{2, 8}), 0, 0}};
  const CompiledRuleTable wcomp(wide_rules);
  std::vector<std::uint32_t> wkeys(2 * wide, 5);
  wkeys[wide] = 100;  // second key misses
  std::vector<int> widx(2, -7);
  wcomp.match_index_batch(wkeys, wide, widx);
  EXPECT_EQ(widx[0], 0);
  EXPECT_EQ(widx[1], -1);
  std::vector<int> wcls(2, -7);
  wcomp.classify_batch(wkeys, wide, wcls);
  EXPECT_EQ(wcls[0], 0);
  EXPECT_EQ(wcls[1], 1);
}

TEST(CompiledVoteWhitelist, BatchVoteBitExactWithScalar) {
  ml::Rng rng(0xB07E5ull);
  for (const std::size_t trees : {1u, 2u, 5u, 8u}) {
    core::VoteWhitelist wl;
    wl.tree_count = trees;
    for (std::size_t t = 0; t < trees; ++t) {
      std::vector<RangeRule> rules;
      const std::size_t n = 1 + rng.index(20);
      for (std::size_t i = 0; i < n; ++i) rules.push_back(random_rule(rng, 4, 31));
      wl.tables.emplace_back(std::move(rules));
    }
    const core::CompiledVoteWhitelist comp(wl);
    // Batch sizes straddling the vote kernel's 256-key block.
    for (const std::size_t n : {1u, 64u, 255u, 256u, 300u}) {
      std::vector<std::uint32_t> keys(n * 4);
      for (auto& v : keys) v = static_cast<std::uint32_t>(rng.integer(0, 40));
      std::vector<int> got(n, -7);
      comp.classify_batch(keys, 4, got);
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const std::uint32_t> key(keys.data() + i * 4, 4);
        ASSERT_EQ(got[i], wl.classify(key));
      }
    }
  }
}

// --- interval index edges ------------------------------------------------------
// The bucketed interval lookup must return exactly the upper_bound interval
// at every key where an off-by-one could hide: the domain ends, every
// interval bound and its neighbours, and the first and last key of every
// bucket. Buckets are defined from the highest bound `top` and the interval
// count n: shift = max(0, bit_width(top) - min(10, bit_width(n))), so at
// most 1024 buckets, and about two per interval, span [0, top].

constexpr std::uint32_t kKeyMax = std::numeric_limits<std::uint32_t>::max();

/// Keys worth probing on field f of `rules`.
std::vector<std::uint32_t> edge_values(const std::vector<RangeRule>& rules, std::size_t f) {
  std::vector<std::uint64_t> bounds{0};
  for (const auto& r : rules) {
    if (r.fields[f].empty()) continue;
    bounds.push_back(r.fields[f].lo);
    bounds.push_back(static_cast<std::uint64_t>(r.fields[f].hi) + 1);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (bounds.back() > kKeyMax) bounds.pop_back();
  std::vector<std::uint64_t> vals{0, kKeyMax};
  for (const std::uint64_t b : bounds) vals.insert(vals.end(), {b == 0 ? 0 : b - 1, b, b + 1});
  const std::uint64_t top = bounds.back();
  const int bits = std::min(10, static_cast<int>(std::bit_width(bounds.size())));
  const int shift = std::max(0, static_cast<int>(std::bit_width(top)) - bits);
  for (std::uint64_t b = 0; b <= (top >> shift) + 1; ++b) {
    vals.push_back(b << shift);                      // first key of bucket b
    vals.push_back(((b + 1) << shift) - 1);          // last key of bucket b
  }
  std::vector<std::uint32_t> out;
  for (const std::uint64_t v : vals) {
    if (v <= kKeyMax) out.push_back(static_cast<std::uint32_t>(v));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Linear RuleTable, scalar compiled lookups and the batched kernels agree
/// on every edge value of every field, each probed from a few base keys
/// (rule corners, so the other fields sit inside a rule and the AND runs).
void expect_engines_agree_on_edges(const std::vector<RangeRule>& rules, std::size_t width) {
  const RuleTable lin(rules);
  const CompiledRuleTable comp(rules);
  std::vector<std::vector<std::uint32_t>> bases{std::vector<std::uint32_t>(width, 0),
                                                std::vector<std::uint32_t>(width, kKeyMax)};
  for (const std::size_t ri : {std::size_t{0}, rules.size() / 2, rules.size() - 1}) {
    if (ri >= rules.size()) continue;
    std::vector<std::uint32_t> lo(width), hi(width);
    for (std::size_t f = 0; f < width; ++f) {
      lo[f] = rules[ri].fields[f].lo;
      hi[f] = rules[ri].fields[f].hi;
    }
    bases.push_back(lo);
    bases.push_back(hi);
  }
  std::vector<std::uint32_t> keys;
  for (std::size_t f = 0; f < width; ++f) {
    const auto vals = edge_values(rules, f);
    for (const auto& base : bases) {
      for (const std::uint32_t v : vals) {
        keys.insert(keys.end(), base.begin(), base.end());
        keys[keys.size() - width + f] = v;
      }
    }
  }
  const std::size_t n = width == 0 ? 1 : keys.size() / width;
  std::vector<int> idx(n, -7), cls(n, -7);
  std::vector<std::uint8_t> any(n, 7);
  comp.match_index_batch(keys, width, idx);
  comp.matches_any_batch(keys, width, any);
  comp.classify_batch(keys, width, cls);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const std::uint32_t> key(keys.data() + i * width, width);
    expect_equivalent(lin, comp, key);
    const int want = linear_match_index(lin, key);
    ASSERT_EQ(idx[i], want) << "batched key " << i;
    ASSERT_EQ(any[i], want >= 0 ? 1 : 0) << "batched key " << i;
    ASSERT_EQ(cls[i], lin.classify(key)) << "batched key " << i;
  }
}

/// Random rule over the full 32-bit domain: wide ranges (so keys match on
/// several fields and the AND decides), points, and some empty ranges.
RangeRule random_wide_rule(ml::Rng& rng, std::size_t width) {
  RangeRule r;
  r.fields.resize(width);
  for (auto& f : r.fields) {
    const auto a = static_cast<std::uint32_t>(rng.integer(0, kKeyMax));
    switch (rng.index(8)) {
      case 0:
        f = {a, a};
        break;
      case 1:
        f = {a | 1u, a & ~1u};  // empty
        break;
      case 2:
        f = {a, kKeyMax};
        break;
      default: {
        const auto len = static_cast<std::uint32_t>(rng.integer(0, kKeyMax / 2));
        f = {a, a > kKeyMax - len ? kKeyMax : a + len};
      }
    }
  }
  r.label = static_cast<int>(rng.index(2));
  r.priority = static_cast<int>(rng.index(7));
  return r;
}

TEST(CompiledRuleTable, IntervalIndexEdgesAcrossWordAndBlockBoundaries) {
  // 64 rules fill one mask word, 512 one cache-line block. Overlapping
  // random rules, then disjoint ones, where every rule — the last word's
  // and the last block's included — is the only match for its own keys.
  ml::Rng rng(0xED6E5ull);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 511u, 512u, 513u}) {
    SCOPED_TRACE(n);
    std::vector<RangeRule> rules;
    for (std::size_t i = 0; i < n; ++i) rules.push_back(random_wide_rule(rng, 2));
    expect_engines_agree_on_edges(rules, 2);
    std::vector<RangeRule> disjoint;
    for (std::uint32_t i = 0; i < n; ++i) {
      disjoint.push_back({{{i * 1000, i * 1000 + 999}, {0, kKeyMax - i}}, static_cast<int>(i % 2),
                          static_cast<int>(i)});
    }
    expect_engines_agree_on_edges(disjoint, 2);
  }
}

TEST(CompiledRuleTable, IntervalIndexEdgesAtTheShiftLimit) {
  // Highest bounds around 2^31 and 2^32 move the bucket shift between 21
  // and 22; hi = 2^32-1 drops the out-of-domain breakpoint entirely.
  for (const std::uint32_t hi : {kKeyMax, kKeyMax - 1, 0x80000000u, 0x7FFFFFFFu, 0x7FFFFFFEu}) {
    SCOPED_TRACE(hi);
    const std::vector<RangeRule> rules{
        {{{hi - 5, hi}, {0, kKeyMax}}, 0, 0},
        {{{0, hi / 3}, {7, 7}}, 1, 1},
        {{{hi / 3 + 1, hi - 6}, {0, 100}}, 0, 2},
    };
    expect_engines_agree_on_edges(rules, 2);
  }
}

TEST(CompiledRuleTable, IntervalIndexEdgesForClusteredBounds) {
  // Dozens of bounds inside the first bucket of a field whose top bound is
  // near 2^32: the lookup must leave its short scan for a search and still
  // land on the right interval.
  std::vector<RangeRule> rules{{{{kKeyMax - 9, kKeyMax - 2}, {0, kKeyMax}}, 0, 0}};
  for (std::uint32_t i = 0; i < 40; ++i) {
    rules.push_back({{{3 * i, 3 * i + 1}, {i, 1000}}, static_cast<int>(i % 2),
                     static_cast<int>(i + 1)});
  }
  expect_engines_agree_on_edges(rules, 2);
}

TEST(CompiledRuleTable, IntervalIndexEdgesForDegenerateFields) {
  // Field 0 is one interval (every rule spans the domain), field 1 has only
  // empty ranges on some rules, field 2 is a single point.
  const std::vector<RangeRule> rules{
      {{{0, kKeyMax}, {5, 4}, {9, 9}}, 0, 0},
      {{{0, kKeyMax}, {0, 10}, {9, 9}}, 1, 1},
      {{{0, kKeyMax}, {11, 2}, {9, 9}}, 0, 2},
  };
  expect_engines_agree_on_edges(rules, 3);
  // Every range empty: the whole field is one uncovered interval.
  const std::vector<RangeRule> none{{{{3, 2}}, 0, 0}, {{{kKeyMax, 0}}, 1, 1}};
  expect_engines_agree_on_edges(none, 1);
  // Width 0: the empty conjunction matches the empty key.
  expect_engines_agree_on_edges({{{}, 1, 0}}, 0);
}

TEST(CompiledRuleTable, IntervalIndexEdgesAboveMaxBatchWidth) {
  ml::Rng rng(0x3D6E5ull);
  const std::size_t wide = CompiledRuleTable::kMaxBatchWidth + 2;
  std::vector<RangeRule> rules;
  for (std::size_t i = 0; i < 70; ++i) rules.push_back(random_wide_rule(rng, wide));
  expect_engines_agree_on_edges(rules, wide);
}

TEST(CompiledRuleTable, EmptyTableMatchesNothing) {
  const CompiledRuleTable comp{RuleTable{}};
  const std::uint32_t key[] = {0, 1};
  EXPECT_EQ(comp.match_index(key), -1);
  EXPECT_EQ(comp.classify(key), 1);  // no-match defaults to malicious
}

TEST(CompiledVoteWhitelist, VoteIdenticalToLinear) {
  ml::Rng rng(0x70735ull);
  core::VoteWhitelist wl;
  wl.tree_count = 5;
  for (std::size_t t = 0; t < 5; ++t) {
    std::vector<RangeRule> rules;
    const std::size_t n = 1 + rng.index(20);
    for (std::size_t i = 0; i < n; ++i) rules.push_back(random_rule(rng, 4, 31));
    wl.tables.emplace_back(std::move(rules));
  }
  const core::CompiledVoteWhitelist comp(wl);
  std::vector<std::uint32_t> key(4);
  for (int k = 0; k < 1000; ++k) {
    for (auto& v : key) v = static_cast<std::uint32_t>(rng.integer(0, 40));
    ASSERT_EQ(comp.classify(key), wl.classify(key));
    ASSERT_DOUBLE_EQ(comp.malicious_vote_fraction(key), wl.malicious_vote_fraction(key));
  }
}

TEST(Quantizer, QuantizeIntoMatchesQuantize) {
  ml::Matrix fake(2, 13);
  for (std::size_t j = 0; j < 13; ++j) {
    fake(0, j) = -3.0 * static_cast<double>(j);
    fake(1, j) = 100.0 + static_cast<double>(j);
  }
  Quantizer q(16);
  q.fit(fake);
  ml::Rng rng(0x9143ull);
  std::array<double, 13> x;
  std::array<std::uint32_t, 13> buf;
  for (int k = 0; k < 100; ++k) {
    for (auto& v : x) v = rng.uniform(-50.0, 150.0);
    q.quantize_into(x, buf);
    const auto ref = q.quantize(x);
    for (std::size_t j = 0; j < 13; ++j) ASSERT_EQ(buf[j], ref[j]);
  }
  std::array<std::uint32_t, 5> small;
  EXPECT_THROW(q.quantize_into(x, small), std::invalid_argument);
}

}  // namespace
}  // namespace iguard::rules
