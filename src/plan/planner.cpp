#include "plan/planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "contraction/estimators.hpp"
#include "obs/json.hpp"

namespace sparta::plan {

namespace {

using Mask = std::uint64_t;      // subset of operands (inputs)
using LabelMask = std::uint64_t; // subset of distinct mode labels

constexpr std::size_t kMaxOperands = 64;
constexpr std::size_t kMaxLabels = 64;
constexpr std::size_t kMaxEnumerateOperands = 6;
constexpr double kInfCost = std::numeric_limits<double>::infinity();

[[nodiscard]] int popcount(Mask m) {
  int n = 0;
  while (m != 0) {
    m &= m - 1;
    ++n;
  }
  return n;
}

[[nodiscard]] std::size_t coo_bytes(double nnz, int order) {
  const double per =
      static_cast<double>(order) * sizeof(index_t) + sizeof(value_t);
  const double v = std::min(nnz * per, 9.0e15);
  return v <= 0.0 ? 0 : static_cast<std::size_t>(v);
}

[[nodiscard]] std::size_t round_nnz(double v) {
  if (v <= 0.0) return 0;
  return static_cast<std::size_t>(std::llround(std::min(v, 9.0e15)));
}

/// Everything the search needs, resolved once per plan_* call: the
/// distinct label universe (order of first appearance), per-label dims
/// and user masks, per-input label masks and index spaces.
struct Ctx {
  const ContractionNetwork* net = nullptr;
  const std::vector<BoundInput>* inputs = nullptr;
  PlanOptions opts;

  std::vector<std::string> labels;
  std::vector<double> label_dim;
  std::vector<Mask> label_users;       // which inputs use each label
  std::vector<LabelMask> input_labels; // which labels each input uses
  std::vector<double> input_space;     // product of the input's dims
};

Ctx make_ctx(const ContractionNetwork& net,
             const std::vector<BoundInput>& inputs,
             const PlanOptions& opts) {
  if (inputs.size() != net.inputs.size()) {
    throw Error("plan: bound-input count (" + std::to_string(inputs.size()) +
                ") does not match the network's operand count (" +
                std::to_string(net.inputs.size()) + ")");
  }
  if (net.inputs.size() > kMaxOperands) {
    throw Error("plan: network has " + std::to_string(net.inputs.size()) +
                " operands; the planner supports at most " +
                std::to_string(kMaxOperands));
  }
  Ctx ctx;
  ctx.net = &net;
  ctx.inputs = &inputs;
  ctx.opts = opts;
  ctx.input_labels.resize(inputs.size());
  ctx.input_space.resize(inputs.size(), 1.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const NetworkTensor& t = net.inputs[i];
    const BoundInput& b = inputs[i];
    if (b.name != t.name) {
      throw Error("plan: bound input #" + std::to_string(i) + " is '" +
                  b.name + "' but the network names operand '" + t.name +
                  "'");
    }
    if (b.dims.size() != t.labels.size()) {
      throw Error("plan: tensor '" + t.name + "' has " +
                  std::to_string(b.dims.size()) + " modes but the network "
                  "labels " + std::to_string(t.labels.size()));
    }
    for (std::size_t m = 0; m < t.labels.size(); ++m) {
      const std::string& l = t.labels[m];
      const auto it =
          std::find(ctx.labels.begin(), ctx.labels.end(), l);
      std::size_t li;
      if (it == ctx.labels.end()) {
        li = ctx.labels.size();
        if (li >= kMaxLabels) {
          throw Error("plan: network uses more than " +
                      std::to_string(kMaxLabels) + " distinct mode labels");
        }
        ctx.labels.push_back(l);
        ctx.label_dim.push_back(static_cast<double>(b.dims[m]));
        ctx.label_users.push_back(0);
      } else {
        li = static_cast<std::size_t>(it - ctx.labels.begin());
        if (ctx.label_dim[li] != static_cast<double>(b.dims[m])) {
          throw Error("plan: mode label '" + l + "' has dimension " +
                      std::to_string(b.dims[m]) + " in tensor '" + t.name +
                      "' but " +
                      std::to_string(
                          static_cast<std::size_t>(ctx.label_dim[li])) +
                      " elsewhere");
        }
      }
      ctx.label_users[li] |= Mask{1} << i;
      ctx.input_labels[i] |= LabelMask{1} << li;
      ctx.input_space[i] *= static_cast<double>(b.dims[m]);
    }
  }
  return ctx;
}

/// Labels of the result of contracting subset `s` together: a label
/// survives iff exactly one of its users is inside `s`.
[[nodiscard]] LabelMask result_labels(const Ctx& ctx, Mask s) {
  LabelMask out = 0;
  for (std::size_t li = 0; li < ctx.labels.size(); ++li) {
    if (popcount(ctx.label_users[li] & s) == 1) out |= LabelMask{1} << li;
  }
  return out;
}

[[nodiscard]] double label_space(const Ctx& ctx, LabelMask lm) {
  double space = 1.0;
  for (std::size_t li = 0; li < ctx.labels.size(); ++li) {
    if (lm & (LabelMask{1} << li)) space *= ctx.label_dim[li];
  }
  return space;
}

/// Uniform density propagation: the expected nnz of the subset's
/// result is (product of member nnz) / (space of the labels contracted
/// *within* the subset), capped by the result's index space. For a
/// singleton this reduces to the input's real nnz.
[[nodiscard]] double subset_est_nnz(const Ctx& ctx, Mask s) {
  double raw = 1.0;
  for (std::size_t i = 0; i < ctx.inputs->size(); ++i) {
    if (s & (Mask{1} << i)) {
      raw *= static_cast<double>((*ctx.inputs)[i].nnz);
    }
  }
  double contracted = 1.0;
  for (std::size_t li = 0; li < ctx.labels.size(); ++li) {
    const Mask users = ctx.label_users[li];
    if (popcount(users) == 2 && (users & s) == users) {
      contracted *= ctx.label_dim[li];
    }
  }
  const double free_space = label_space(ctx, result_labels(ctx, s));
  return std::min(free_space, raw / contracted);
}

/// Metrics of one candidate pairwise merge, oriented and costed.
struct StepEst {
  bool a_is_y = false;  ///< orientation: which side feeds HtY
  double seconds = 0.0;
  std::size_t bytes = 0;       ///< full working set of the step
  std::size_t hash_bytes = 0;  ///< transient Eq.5 + Eq.6 share of bytes
  std::size_t est_out_nnz = 0;
  int num_contract = 0;
};

StepEst cost_step(const Ctx& ctx, Mask a, Mask b, double nnz_a,
                  double nnz_b, double nnz_out) {
  const LabelMask la = result_labels(ctx, a);
  const LabelMask lb = result_labels(ctx, b);
  const LabelMask shared = la & lb;
  StepEst est;
  est.num_contract = popcount(shared);
  // Orientation: prefer the persistent original input on the Y side so
  // the service's HtY PlanCache can amortize across requests; between
  // two peers, hash the smaller operand. Ties break on the lower mask
  // for determinism.
  const bool a_single = popcount(a) == 1;
  const bool b_single = popcount(b) == 1;
  if (a_single != b_single) {
    est.a_is_y = a_single;
  } else {
    est.a_is_y = nnz_a < nnz_b || (nnz_a == nnz_b && a < b);
  }
  const double nnz_x = est.a_is_y ? nnz_b : nnz_a;
  const double nnz_y = est.a_is_y ? nnz_a : nnz_b;
  const LabelMask lx = est.a_is_y ? lb : la;
  const LabelMask ly = est.a_is_y ? la : lb;
  const int order_x = popcount(lx);
  const int order_y = popcount(ly);
  const double contract_space = label_space(ctx, shared);

  // Eq. 5: HtY footprint for the Y side, keyed on the shared labels.
  const std::size_t rounded_y = round_nnz(nnz_y);
  const std::size_t hty =
      estimate_hty_bytes(rounded_y, round_nnz(contract_space));
  // Eq. 6 upper bound with uniform group sizes: the largest X
  // sub-tensor / HtY group is estimated as nnz over distinct groups.
  const double free_space_x = label_space(ctx, lx & ~shared);
  const double groups_x = std::max(1.0, std::min(nnz_x, free_space_x));
  const double groups_y = std::max(1.0, std::min(nnz_y, contract_space));
  const auto fmax_x =
      static_cast<std::size_t>(std::ceil(std::max(1.0, nnz_x / groups_x)));
  const auto fmax_y =
      static_cast<std::size_t>(std::ceil(std::max(1.0, nnz_y / groups_y)));
  const std::size_t hta = estimate_hta_bytes(fmax_x, fmax_y);

  est.est_out_nnz = round_nnz(nnz_out);
  const int order_out = popcount((lx | ly) & ~shared);
  est.hash_bytes = hty + hta;
  est.bytes = coo_bytes(nnz_x, order_x) + coo_bytes(nnz_y, order_y) +
              est.hash_bytes + coo_bytes(nnz_out, order_out);

  // Expected scalar multiplies under the same uniformity assumption.
  const double multiplies = nnz_x * nnz_y / std::max(1.0, contract_space);
  double seconds = kInfCost;
  if (ctx.opts.model != nullptr && !ctx.opts.model->empty()) {
    serve::CostFeatures f;
    f.nnz_x = round_nnz(nnz_x);
    f.nnz_y = rounded_y;
    f.order_y = order_y;
    f.num_contract_modes = est.num_contract;
    f.density_x = std::min(1.0, nnz_x / std::max(1.0, label_space(ctx, lx)));
    f.density_y = std::min(1.0, nnz_y / std::max(1.0, label_space(ctx, ly)));
    for (const Algorithm v : serve::CostModel::kVariants) {
      if (!ctx.opts.model->has(v)) continue;
      seconds = std::min(seconds, ctx.opts.model->predict_seconds(v, f));
    }
  }
  if (seconds == kInfCost) {
    // Analytic proxy: touch every input non-zero once, every expected
    // multiply once, every output non-zero once.
    seconds = 1e-8 * (nnz_x + nnz_y + multiplies + nnz_out);
  }
  est.seconds = seconds;
  return est;
}

/// Per-subtree annotation shared by the DP and the emitters.
struct SubInfo {
  double est_nnz = 0.0;
  std::size_t temp_bytes = 0;  ///< COO bytes of the intermediate (0: leaf)
  std::size_t peak = 0;        ///< Sethi–Ullman peak of intermediates
  double seconds = 0.0;        ///< total predicted seconds of the subtree
  bool a_first = true;         ///< evaluate the `a` side first
};

/// Computes a subtree's annotation from its two annotated children.
/// The peak recurrence considers both evaluation orders: whichever
/// subtree runs second does so with the first one's result resident.
SubInfo combine(const Ctx& ctx, Mask a, Mask b, const SubInfo& ia,
                const SubInfo& ib, const StepEst& step) {
  SubInfo out;
  const Mask s = a | b;
  out.est_nnz = subset_est_nnz(ctx, s);
  const bool is_root = s == (Mask{1} << ctx.inputs->size()) - 1;
  // The root result is the request's Z (returned / stored under its own
  // name), not a "__tmp/" intermediate — it does not count toward the
  // intermediate peak.
  out.temp_bytes =
      is_root ? 0
              : coo_bytes(out.est_nnz, popcount(result_labels(ctx, s)));
  const std::size_t live_at_merge =
      ia.temp_bytes + ib.temp_bytes + step.hash_bytes + out.temp_bytes;
  const std::size_t a_first_peak =
      std::max(ia.peak, ia.temp_bytes + ib.peak);
  const std::size_t b_first_peak =
      std::max(ib.peak, ib.temp_bytes + ia.peak);
  out.a_first = a_first_peak <= b_first_peak;
  out.peak =
      std::max(live_at_merge, std::min(a_first_peak, b_first_peak));
  out.seconds = ia.seconds + ib.seconds + step.seconds;
  return out;
}

[[nodiscard]] SubInfo leaf_info(const Ctx& ctx, std::size_t i) {
  SubInfo info;
  info.est_nnz = static_cast<double>((*ctx.inputs)[i].nnz);
  return info;
}

/// A full plan shape: for every internal subset, the chosen `a` side.
using SplitMap = std::map<Mask, Mask>;

/// Turns a split map into the final NetworkPlan: annotates each
/// subtree, emits steps in the chosen evaluation order, resolves
/// contract-mode positions and the final output permutation.
NetworkPlan emit_plan(const Ctx& ctx, const SplitMap& splits,
                      const std::string& search) {
  const std::size_t n = ctx.inputs->size();
  NetworkPlan plan;
  plan.search = search;

  std::map<Mask, SubInfo> info;
  // Annotate bottom-up (recursive lambda via explicit stack-free
  // recursion).
  auto annotate = [&](auto&& self, Mask s) -> const SubInfo& {
    const auto it = info.find(s);
    if (it != info.end()) return it->second;
    if (popcount(s) == 1) {
      std::size_t i = 0;
      while ((s & (Mask{1} << i)) == 0) ++i;
      return info.emplace(s, leaf_info(ctx, i)).first->second;
    }
    const Mask a = splits.at(s);
    const Mask b = s ^ a;
    const SubInfo& ia = self(self, a);
    const SubInfo& ib = self(self, b);
    const StepEst step =
        cost_step(ctx, a, b, ia.est_nnz, ib.est_nnz, subset_est_nnz(ctx, s));
    const SubInfo combined = combine(ctx, a, b, ia, ib, step);
    return info.emplace(s, combined).first->second;
  };
  const Mask full = (Mask{1} << n) - 1;
  annotate(annotate, full);

  // Emission: walk the tree in the annotated evaluation order, handing
  // each subtree a node id (inputs: 0..n-1, steps: n, n+1, ...).
  struct Node {
    std::size_t id = 0;
    std::string name;
    std::vector<std::string> labels;
    std::vector<index_t> dims;
  };
  auto emit = [&](auto&& self, Mask s) -> Node {
    if (popcount(s) == 1) {
      std::size_t i = 0;
      while ((s & (Mask{1} << i)) == 0) ++i;
      Node node;
      node.id = i;
      node.name = (*ctx.inputs)[i].name;
      node.labels = ctx.net->inputs[i].labels;
      node.dims = (*ctx.inputs)[i].dims;
      return node;
    }
    const Mask a = splits.at(s);
    const Mask b = s ^ a;
    const SubInfo& si = info.at(s);
    Node na, nb;
    if (si.a_first) {
      na = self(self, a);
      nb = self(self, b);
    } else {
      nb = self(self, b);
      na = self(self, a);
    }
    const SubInfo& ia = info.at(a);
    const SubInfo& ib = info.at(b);
    const StepEst step =
        cost_step(ctx, a, b, ia.est_nnz, ib.est_nnz, si.est_nnz);
    const Node& nx = step.a_is_y ? nb : na;
    const Node& ny = step.a_is_y ? na : nb;

    PlanStepSpec spec;
    spec.x = nx.id;
    spec.y = ny.id;
    spec.x_name = nx.name;
    spec.y_name = ny.name;
    // einsum convention: scan X's labels in order; each label also in Y
    // becomes the next (cx, cy) pair, the rest stay free.
    for (std::size_t i = 0; i < nx.labels.size(); ++i) {
      const auto it =
          std::find(ny.labels.begin(), ny.labels.end(), nx.labels[i]);
      if (it == ny.labels.end()) continue;
      spec.cx.push_back(static_cast<int>(i));
      spec.cy.push_back(static_cast<int>(it - ny.labels.begin()));
    }
    auto push_free = [&](const Node& node, const Node& other) {
      for (std::size_t i = 0; i < node.labels.size(); ++i) {
        if (std::find(other.labels.begin(), other.labels.end(),
                      node.labels[i]) != other.labels.end()) {
          continue;
        }
        spec.out_labels.push_back(node.labels[i]);
        spec.out_dims.push_back(node.dims[i]);
      }
    };
    push_free(nx, ny);
    push_free(ny, nx);
    spec.est_nnz = step.est_out_nnz;
    spec.est_bytes = step.bytes;
    spec.est_seconds = step.seconds;

    Node node;
    node.id = n + plan.steps.size();
    node.name = "step" + std::to_string(plan.steps.size());
    node.labels = spec.out_labels;
    node.dims = spec.out_dims;
    plan.steps.push_back(std::move(spec));
    return node;
  };
  const Node root = emit(emit, full);

  plan.est_total_seconds = info.at(full).seconds;
  plan.est_peak_bytes = info.at(full).peak;

  // Map the declared output-label order onto the last step's order.
  bool identity = root.labels.size() == ctx.net->output_labels.size();
  plan.final_perm.clear();
  for (std::size_t k = 0; k < ctx.net->output_labels.size(); ++k) {
    const auto it = std::find(root.labels.begin(), root.labels.end(),
                              ctx.net->output_labels[k]);
    SPARTA_ASSERT(it != root.labels.end());
    const auto pos = static_cast<int>(it - root.labels.begin());
    if (pos != static_cast<int>(k)) identity = false;
    plan.final_perm.push_back(pos);
  }
  if (identity) plan.final_perm.clear();
  return plan;
}

}  // namespace

std::string NetworkPlan::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("search").value(std::string_view(search));
  w.key("num_steps").value(static_cast<std::uint64_t>(steps.size()));
  w.key("steps").begin_array();
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const PlanStepSpec& s = steps[k];
    w.begin_object();
    w.key("step_index").value(static_cast<std::uint64_t>(k));
    w.key("x").value(std::string_view(s.x_name));
    w.key("y").value(std::string_view(s.y_name));
    auto modes = [&](const char* key, const Modes& m) {
      w.key(key).begin_array();
      for (const int v : m) w.value(v);
      w.end_array();
    };
    modes("cx", s.cx);
    modes("cy", s.cy);
    w.key("out_labels").begin_array();
    for (const std::string& l : s.out_labels) w.value(std::string_view(l));
    w.end_array();
    w.key("est_nnz").value(static_cast<std::uint64_t>(s.est_nnz));
    w.key("est_bytes").value(static_cast<std::uint64_t>(s.est_bytes));
    w.key("est_seconds").value(s.est_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("est_total_seconds").value(est_total_seconds);
  w.key("est_peak_bytes").value(static_cast<std::uint64_t>(est_peak_bytes));
  w.key("rejected_alternatives").value(rejected_alternatives);
  w.key("budget_pruned").value(budget_pruned);
  w.end_object();
  return w.str();
}

NetworkPlan plan_network(const ContractionNetwork& net,
                         const std::vector<BoundInput>& inputs,
                         const PlanOptions& opts) {
  const Ctx ctx = make_ctx(net, inputs, opts);
  const std::size_t n = inputs.size();

  if (n > kMaxDpOperands) {
    // Greedy cheapest-connected-merge fallback: no optimality claim,
    // but linear-ish in merges and deterministic.
    struct Live {
      Mask mask;
      SubInfo info;
    };
    std::vector<Live> live;
    for (std::size_t i = 0; i < n; ++i) {
      live.push_back({Mask{1} << i, leaf_info(ctx, i)});
    }
    SplitMap splits;
    std::uint64_t considered = 0;
    while (live.size() > 1) {
      double best_cost = kInfCost;
      std::size_t bi = 0, bj = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        for (std::size_t j = i + 1; j < live.size(); ++j) {
          const LabelMask shared = result_labels(ctx, live[i].mask) &
                                   result_labels(ctx, live[j].mask);
          if (shared == 0) continue;
          ++considered;
          const StepEst step = cost_step(
              ctx, live[i].mask, live[j].mask, live[i].info.est_nnz,
              live[j].info.est_nnz,
              subset_est_nnz(ctx, live[i].mask | live[j].mask));
          if (step.seconds < best_cost) {
            best_cost = step.seconds;
            bi = i;
            bj = j;
          }
        }
      }
      SPARTA_ASSERT(best_cost != kInfCost);  // network is connected
      const Mask a = live[bi].mask;
      const Mask b = live[bj].mask;
      const StepEst step =
          cost_step(ctx, a, b, live[bi].info.est_nnz, live[bj].info.est_nnz,
                    subset_est_nnz(ctx, a | b));
      Live merged{a | b,
                  combine(ctx, a, b, live[bi].info, live[bj].info, step)};
      splits[a | b] = a;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(bj));
      live[bi] = std::move(merged);
    }
    NetworkPlan plan = emit_plan(ctx, splits, "greedy");
    plan.rejected_alternatives = considered - (n - 1);
    if (opts.budget_bytes != 0 && plan.est_peak_bytes > opts.budget_bytes) {
      throw Error(
          "plan: greedy order's estimated peak intermediate footprint (" +
          std::to_string(plan.est_peak_bytes) + " bytes) exceeds the " +
          std::to_string(opts.budget_bytes) + "-byte budget");
    }
    return plan;
  }

  // Exact bitmask DP over connected subsets. dp[s] holds the cheapest
  // way to fully contract subset s; infeasible subsets (disconnected,
  // or every candidate over budget) stay at infinite cost.
  const Mask full = (Mask{1} << n) - 1;
  struct DpEntry {
    double cost = kInfCost;
    Mask split = 0;
    SubInfo info;
  };
  std::vector<DpEntry> dp(static_cast<std::size_t>(full) + 1);
  for (std::size_t i = 0; i < n; ++i) {
    DpEntry& e = dp[std::size_t{1} << i];
    e.cost = 0.0;
    e.info = leaf_info(ctx, i);
  }
  std::uint64_t considered = 0;
  std::uint64_t budget_pruned = 0;
  for (Mask s = 1; s <= full; ++s) {
    if (popcount(s) < 2) continue;
    DpEntry& entry = dp[s];
    const double out_nnz = subset_est_nnz(ctx, s);
    // Enumerate proper splits once per unordered pair by anchoring the
    // lowest operand of s on the `a` side.
    const Mask low = s & (~s + 1);
    for (Mask a = (s - 1) & s; a != 0; a = (a - 1) & s) {
      if ((a & low) == 0) continue;
      const Mask b = s ^ a;
      const DpEntry& ea = dp[a];
      const DpEntry& eb = dp[b];
      if (ea.cost == kInfCost || eb.cost == kInfCost) continue;
      const LabelMask shared =
          result_labels(ctx, a) & result_labels(ctx, b);
      if (shared == 0) continue;  // would be an outer product
      ++considered;
      const StepEst step =
          cost_step(ctx, a, b, ea.info.est_nnz, eb.info.est_nnz, out_nnz);
      const SubInfo merged = combine(ctx, a, b, ea.info, eb.info, step);
      if (opts.budget_bytes != 0 && merged.peak > opts.budget_bytes) {
        ++budget_pruned;
        continue;
      }
      const double cost = merged.seconds;
      const bool better =
          cost < entry.cost ||
          (cost == entry.cost &&
           (merged.peak < entry.info.peak ||
            (merged.peak == entry.info.peak && a < entry.split)));
      if (entry.cost == kInfCost || better) {
        entry.cost = cost;
        entry.split = a;
        entry.info = merged;
      }
    }
  }
  if (dp[full].cost == kInfCost) {
    if (opts.budget_bytes != 0 && budget_pruned > 0) {
      throw Error("plan: no contraction order fits the " +
                  std::to_string(opts.budget_bytes) +
                  "-byte peak-intermediate budget (" +
                  std::to_string(budget_pruned) +
                  " candidate merges pruned); raise the budget");
    }
    throw Error("plan: network admits no connected contraction order");
  }
  SplitMap splits;
  auto collect = [&](auto&& self, Mask s) -> void {
    if (popcount(s) < 2) return;
    splits[s] = dp[s].split;
    self(self, dp[s].split);
    self(self, s ^ dp[s].split);
  };
  collect(collect, full);
  NetworkPlan plan = emit_plan(ctx, splits, "dp");
  plan.rejected_alternatives = considered - static_cast<std::uint64_t>(
                                                splits.size());
  plan.budget_pruned = budget_pruned;
  return plan;
}

NetworkPlan plan_fixed_order(const ContractionNetwork& net,
                             const std::vector<BoundInput>& inputs,
                             const std::vector<std::size_t>& order,
                             const PlanOptions& opts) {
  const Ctx ctx = make_ctx(net, inputs, opts);
  const std::size_t n = inputs.size();
  if (order.size() != n) {
    throw Error("plan: fixed order lists " + std::to_string(order.size()) +
                " operands, network has " + std::to_string(n));
  }
  std::vector<bool> seen(n, false);
  for (const std::size_t i : order) {
    if (i >= n || seen[i]) {
      throw Error("plan: fixed order is not a permutation of 0.." +
                  std::to_string(n - 1));
    }
    seen[i] = true;
  }
  SplitMap splits;
  Mask acc = Mask{1} << order[0];
  for (std::size_t k = 1; k < n; ++k) {
    const Mask next = Mask{1} << order[k];
    if ((result_labels(ctx, acc) & result_labels(ctx, next)) == 0) {
      throw Error("plan: fixed order reaches tensor '" +
                  inputs[order[k]].name +
                  "' before any label connects it (outer product)");
    }
    splits[acc | next] = acc;
    acc |= next;
  }
  return emit_plan(ctx, splits, "fixed");
}

std::vector<NetworkPlan> enumerate_plans(
    const ContractionNetwork& net, const std::vector<BoundInput>& inputs,
    const PlanOptions& opts) {
  const Ctx ctx = make_ctx(net, inputs, opts);
  const std::size_t n = inputs.size();
  if (n > kMaxEnumerateOperands) {
    throw Error("plan: enumerate_plans supports at most " +
                std::to_string(kMaxEnumerateOperands) + " operands, got " +
                std::to_string(n));
  }
  const Mask full = (Mask{1} << n) - 1;
  // All ways to contract subset s, as partial split maps.
  auto trees = [&](auto&& self, Mask s) -> std::vector<SplitMap> {
    if (popcount(s) == 1) return {SplitMap{}};
    std::vector<SplitMap> out;
    const Mask low = s & (~s + 1);
    for (Mask a = (s - 1) & s; a != 0; a = (a - 1) & s) {
      if ((a & low) == 0) continue;
      const Mask b = s ^ a;
      if ((result_labels(ctx, a) & result_labels(ctx, b)) == 0) continue;
      for (const SplitMap& ta : self(self, a)) {
        for (const SplitMap& tb : self(self, b)) {
          SplitMap m = ta;
          m.insert(tb.begin(), tb.end());
          m[s] = a;
          out.push_back(std::move(m));
        }
      }
    }
    return out;
  };
  std::vector<NetworkPlan> plans;
  for (const SplitMap& m : trees(trees, full)) {
    plans.push_back(emit_plan(ctx, m, "fixed"));
  }
  return plans;
}

}  // namespace sparta::plan
