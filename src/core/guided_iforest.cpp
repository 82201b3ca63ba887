#include "core/guided_iforest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "ml/parallel.hpp"

namespace iguard::core {

namespace {

struct Box {
  std::vector<double> lo, hi;
};

// Bounding box of the given training rows — the "feature ranges associated
// with the node" of §3.2.1. Augmenting inside the *data's* box (rather than
// the full split cell) concentrates the synthetic probes on the interior
// holes of the benign distribution, which is where malicious structure
// hides; the exterior is malicious by construction (no whitelist match).
Box data_box(const ml::Matrix& train, std::span<const std::size_t> rows) {
  const std::size_t m = train.cols();
  Box b{std::vector<double>(m, std::numeric_limits<double>::infinity()),
        std::vector<double>(m, -std::numeric_limits<double>::infinity())};
  for (std::size_t r : rows) {
    auto x = train.row(r);
    for (std::size_t j = 0; j < m; ++j) {
      b.lo[j] = std::min(b.lo[j], x[j]);
      b.hi[j] = std::max(b.hi[j], x[j]);
    }
  }
  return b;
}

double entropy(double pr) {
  if (pr <= 0.0 || pr >= 1.0) return 0.0;
  return -pr * std::log2(pr) - (1.0 - pr) * std::log2(1.0 - pr);
}

// X_aug ~ features_range: normal around the box midpoint with sd equal to
// the quartile range of a uniform draw over the box, (hi - lo)/2, clipped to
// the box (§3.2.1 footnote 7).
void augment_box(const Box& box, std::size_t k, ml::Rng& rng, ml::Matrix& out) {
  const std::size_t m = box.lo.size();
  std::vector<double> row(m);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double mid = 0.5 * (box.lo[j] + box.hi[j]);
      const double sd = 0.5 * (box.hi[j] - box.lo[j]);
      row[j] = std::clamp(rng.normal(mid, sd), box.lo[j], box.hi[j]);
    }
    out.push_row(row);
  }
}

struct BuildContext {
  const ml::Matrix& train;
  const AeEnsemble& teacher;
  const GuidedForestConfig& cfg;
  ml::Rng& rng;
  int height_cap;
};

// Recursive teacher-guided node expansion. `rows` indexes ctx.train.
int build_node(BuildContext& ctx, std::vector<GuidedNode>& nodes,
               std::vector<std::size_t> rows, int depth) {
  const int self = static_cast<int>(nodes.size());
  nodes.push_back({});
  nodes[self].depth = depth;
  nodes[self].train_count = rows.size();

  if (rows.size() <= 1 || depth >= ctx.height_cap) return self;

  const std::size_t m = ctx.train.cols();
  const Box box = data_box(ctx.train, rows);

  // X_decision = X_node U X_aug, with teacher labels.
  ml::Matrix decision(0, m);
  for (std::size_t r : rows) decision.push_row(ctx.train.row(r));
  augment_box(box, ctx.cfg.augment, ctx.rng, decision);
  const std::size_t n = decision.rows();
  const std::vector<int> lab = ctx.teacher.predict_batch(decision);
  std::size_t mal = 0;
  for (int l : lab) mal += static_cast<std::size_t>(l);
  const std::size_t ben = n - mal;

  // Stopping criterion 3: the node is already heavily skewed to one class.
  const double ratio = static_cast<double>(std::min(mal, ben)) /
                       static_cast<double>(std::max<std::size_t>(std::max(mal, ben), 1));
  if (ratio < ctx.cfg.tau_split) return self;

  const double h_node = entropy(static_cast<double>(mal) / static_cast<double>(n));

  // Search candidate (q, p): quantile-spaced values of each feature over
  // X_decision; maximise information gain (Eq. 4).
  double best_gain = -1.0;
  int best_q = -1;
  double best_p = 0.0;
  std::vector<double> vals(n);
  std::vector<std::size_t> order(n);
  for (std::size_t q = 0; q < m; ++q) {
    for (std::size_t i = 0; i < n; ++i) vals[i] = decision(i, q);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });
    const std::size_t cands = std::max<std::size_t>(1, ctx.cfg.candidates_per_feature);
    for (std::size_t c = 1; c <= cands; ++c) {
      const std::size_t pos = c * n / (cands + 1);
      if (pos == 0 || pos >= n) continue;
      const double a = vals[order[pos - 1]];
      const double b = vals[order[pos]];
      if (!(b > a)) continue;
      const double p = 0.5 * (a + b);
      std::size_t nl = 0, mal_l = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (vals[i] < p) {
          ++nl;
          mal_l += static_cast<std::size_t>(lab[i]);
        }
      }
      if (nl == 0 || nl == n) continue;
      const std::size_t nr = n - nl;
      const std::size_t mal_r = mal - mal_l;
      const double wl = static_cast<double>(nl) / static_cast<double>(n);
      const double h_children =
          wl * entropy(static_cast<double>(mal_l) / static_cast<double>(nl)) +
          (1.0 - wl) * entropy(static_cast<double>(mal_r) / static_cast<double>(nr));
      const double gain = h_node - h_children;
      if (gain > best_gain) {
        best_gain = gain;
        best_q = static_cast<int>(q);
        best_p = p;
      }
    }
  }
  if (best_q < 0 || best_gain <= 0.0) return self;  // no informative split

  // Children receive only the real samples (X_node filtered by the split);
  // augmentation is redrawn from each child's own data box.
  std::vector<std::size_t> left_rows, right_rows;
  for (std::size_t r : rows) {
    (ctx.train(r, static_cast<std::size_t>(best_q)) < best_p ? left_rows : right_rows)
        .push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();

  nodes[self].feature = best_q;
  nodes[self].threshold = best_p;
  const int l = build_node(ctx, nodes, std::move(left_rows), depth + 1);
  const int r = build_node(ctx, nodes, std::move(right_rows), depth + 1);
  nodes[self].left = l;
  nodes[self].right = r;
  return self;
}

// Split-cell boxes (clipped to the root data box) for leaves that no
// training sample reaches — their feature range is the cell itself.
void collect_cell_boxes(const std::vector<GuidedNode>& nodes, int idx, Box box,
                        std::vector<Box>& out) {
  const auto& nd = nodes[static_cast<std::size_t>(idx)];
  if (nd.feature < 0) {
    out[static_cast<std::size_t>(idx)] = std::move(box);
    return;
  }
  Box lbox = box, rbox = std::move(box);
  const auto f = static_cast<std::size_t>(nd.feature);
  lbox.hi[f] = std::min(lbox.hi[f], nd.threshold);
  rbox.lo[f] = std::max(rbox.lo[f], nd.threshold);
  collect_cell_boxes(nodes, nd.left, std::move(lbox), out);
  collect_cell_boxes(nodes, nd.right, std::move(rbox), out);
}

}  // namespace

int GuidedTree::leaf_index(std::span<const double> x) const {
  int i = 0;
  while (nodes[static_cast<std::size_t>(i)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(i)];
    i = x[static_cast<std::size_t>(n.feature)] < n.threshold ? n.left : n.right;
  }
  return i;
}

std::size_t GuidedTree::leaf_count() const {
  std::size_t c = 0;
  for (const auto& n : nodes) c += n.feature < 0 ? 1 : 0;
  return c;
}

int GuidedTree::vote(std::span<const double> x) const {
  const auto& leaf = nodes[static_cast<std::size_t>(leaf_index(x))];
  if (leaf.label == 1) return 1;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < leaf.box_lo[j] || x[j] > leaf.box_hi[j]) return 1;
  }
  return 0;
}

void GuidedIsolationForest::fit(const ml::Matrix& train, const AeEnsemble& teacher,
                                ml::Rng& rng) {
  if (train.rows() == 0) throw std::invalid_argument("GuidedIsolationForest: empty data");
  if (teacher.size() == 0) throw std::invalid_argument("GuidedIsolationForest: untrained teacher");
  const std::size_t m = train.cols();
  const std::size_t psi = std::min(cfg_.subsample, train.rows());
  const int height_cap =
      static_cast<int>(std::ceil(std::log2(std::max<double>(2.0, static_cast<double>(psi)))));

  feat_min_.assign(m, std::numeric_limits<double>::infinity());
  feat_max_.assign(m, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    auto r = train.row(i);
    for (std::size_t j = 0; j < m; ++j) {
      feat_min_[j] = std::min(feat_min_[j], r[j]);
      feat_max_[j] = std::max(feat_max_[j], r[j]);
    }
  }

  // One root seed from the caller's stream; every randomised task below
  // derives its own independent stream from (phase seed, task index). Tasks
  // therefore depend only on their index and on immutable shared inputs —
  // the fitted forest is bit-identical at every thread count.
  const std::uint64_t root_seed = rng.engine()();
  const std::uint64_t grow_seed = ml::mix64(root_seed ^ 0x67726f77ull);     // "grow"
  const std::uint64_t distill_seed = ml::mix64(root_seed ^ 0x64697374ull);  // "dist"
  ml::ThreadPool pool(ml::resolve_threads(cfg_.num_threads));

  // --- Training: teacher-guided growth (§3.2.1), one task per tree --------
  trees_.assign(cfg_.num_trees, {});
  pool.parallel_for(cfg_.num_trees, [&](std::size_t t) {
    ml::Rng tree_rng = ml::task_rng(grow_seed, t);
    auto rows = tree_rng.sample_without_replacement(train.rows(), psi);
    BuildContext ctx{train, teacher, cfg_, tree_rng, height_cap};
    build_node(ctx, trees_[t].nodes, std::move(rows), 0);
  });

  // --- Knowledge distillation (§3.2.2) ------------------------------------
  // Per-tree preparation (routing + split cells), one task per tree …
  const std::size_t r = teacher.size();
  const double inf = std::numeric_limits<double>::infinity();
  struct TreeAux {
    std::vector<std::vector<std::size_t>> leaf_rows;  // train rows per leaf
    std::vector<Box> cell_boxes;                      // split cell per node
  };
  std::vector<TreeAux> aux(trees_.size());
  pool.parallel_for(trees_.size(), [&](std::size_t t) {
    const GuidedTree& tree = trees_[t];
    aux[t].leaf_rows.resize(tree.nodes.size());
    for (std::size_t i = 0; i < train.rows(); ++i) {
      aux[t].leaf_rows[static_cast<std::size_t>(tree.leaf_index(train.row(i)))].push_back(i);
    }
    aux[t].cell_boxes.resize(tree.nodes.size());
    collect_cell_boxes(tree.nodes, 0,
                       Box{std::vector<double>(m, -inf), std::vector<double>(m, inf)},
                       aux[t].cell_boxes);
  });

  // … then one scoring task per (tree, leaf): batched AE inference over
  // X_leaf U X_aug, a large share of fit() wall time. Each task writes only
  // its own leaf node and reads only const state, so no synchronisation is
  // needed.
  struct LeafTask {
    std::uint32_t tree, node;
  };
  std::vector<LeafTask> leaves;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    for (std::size_t li = 0; li < trees_[t].nodes.size(); ++li) {
      if (trees_[t].nodes[li].feature < 0) {
        leaves.push_back({static_cast<std::uint32_t>(t), static_cast<std::uint32_t>(li)});
      }
    }
  }
  pool.parallel_for(leaves.size(), [&](std::size_t k) {
    const std::size_t t = leaves[k].tree;
    const std::size_t li = leaves[k].node;
    auto& node = trees_[t].nodes[li];
    const auto& leaf_rows = aux[t].leaf_rows[li];
    const auto& cell_boxes = aux[t].cell_boxes;
    // Stream keyed by (tree, leaf) — not by k — so it does not depend on
    // how the task list happened to be flattened.
    ml::Rng leaf_rng =
        ml::task_rng(distill_seed, (static_cast<std::uint64_t>(t) << 32) | li);

    auto finite_cell = [&] {
      Box b = cell_boxes[li];
      for (std::size_t j = 0; j < m; ++j) {
        b.lo[j] = std::max(b.lo[j], feat_min_[j]);
        b.hi[j] = std::min(b.hi[j], feat_max_[j]);
        if (b.lo[j] > b.hi[j]) b.lo[j] = b.hi[j];  // cell fully outside data
      }
      return b;
    };

    // X_leaf U X_aug; X_aug ~ features_range(leaf): the routed samples'
    // bounding box when the leaf holds data, else the leaf's split cell.
    ml::Matrix pts(0, m);
    for (std::size_t row : leaf_rows) pts.push_row(train.row(row));
    const Box box = leaf_rows.size() > 1 ? data_box(train, leaf_rows) : finite_cell();
    augment_box(box, cfg_.augment, leaf_rng, pts);

    const ml::Matrix re = teacher.reconstruction_errors(pts);
    node.leaf_re.assign(r, 0.0);
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      for (std::size_t u = 0; u < r; ++u) node.leaf_re[u] += re(i, u);
    }
    for (auto& v : node.leaf_re) v /= static_cast<double>(pts.rows());
    node.label = teacher.vote_from_errors(node.leaf_re);

    // Benign support hypercube: routed samples' bounding box inflated by
    // the margin (plus a small absolute slack so zero-span dimensions
    // still generalise), clipped to the leaf's split cell. Empty leaves
    // keep the whole cell as their box (their label already covers it).
    node.box_lo.assign(m, 0.0);
    node.box_hi.assign(m, 0.0);
    if (leaf_rows.size() > 1) {
      const Box data = data_box(train, leaf_rows);
      for (std::size_t j = 0; j < m; ++j) {
        const double span = data.hi[j] - data.lo[j];
        const double slack =
            cfg_.box_margin * span + 0.005 * (feat_max_[j] - feat_min_[j]);
        node.box_lo[j] = std::max(data.lo[j] - slack, cell_boxes[li].lo[j]);
        node.box_hi[j] = std::min(data.hi[j] + slack, cell_boxes[li].hi[j]);
      }
    } else {
      node.box_lo = cell_boxes[li].lo;
      node.box_hi = cell_boxes[li].hi;
    }
  });
}

int GuidedIsolationForest::predict(std::span<const double> x) const {
  return 2.0 * vote_fraction(x) > 1.0 ? 1 : 0;
}

double GuidedIsolationForest::vote_fraction(std::span<const double> x) const {
  if (trees_.empty()) throw std::logic_error("GuidedIsolationForest: not fitted");
  std::size_t mal = 0;
  for (const auto& t : trees_) mal += static_cast<std::size_t>(t.vote(x));
  return static_cast<double>(mal) / static_cast<double>(trees_.size());
}

}  // namespace iguard::core
