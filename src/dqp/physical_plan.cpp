#include "dqp/physical_plan.hpp"

namespace ahsw::dqp {

using sparql::Algebra;
using sparql::AlgebraKind;

net::Charge subquery_charge(const sparql::BgpPattern& p) {
  std::size_t n = p.pattern.byte_size() + 32;
  if (p.pushed_filter != nullptr) n += p.pushed_filter->byte_size();
  return net::Charge::fixed(n);
}

namespace {

/// Recursive algebra -> DAG compiler. Operators are appended in
/// topological order (every input precedes its consumer).
struct Compiler {
  const ExecutionPolicy& policy;
  PhysicalPlan& plan;

  OpId add(PhysicalOp op) {
    op.id = static_cast<OpId>(plan.ops.size());
    plan.ops.push_back(std::move(op));
    return plan.ops.back().id;
  }

  /// Attach the current barrier (the op that must fire before this subtree
  /// may start touching shared index state) to a source op.
  void gate(PhysicalOp& op, OpId barrier) {
    if (barrier != kNoOp) op.control.push_back(barrier);
  }

  OpId compile_bgp(const std::vector<sparql::BgpPattern>& bgp, OpId pend,
                   OpId barrier) {
    if (bgp.empty()) {
      PhysicalOp c;
      c.kind = PhysOpKind::kConst;
      gate(c, barrier);
      return add(std::move(c));
    }
    if (bgp.size() == 1) {
      PhysicalOp l;
      l.kind = PhysOpKind::kIndexLookup;
      l.pattern = bgp.front();
      gate(l, barrier);
      OpId lid = add(std::move(l));
      PhysicalOp s;
      s.kind = PhysOpKind::kProviderScan;
      s.pattern = bgp.front();
      s.lookup = lid;
      s.inputs = {lid};
      s.preferred_end_from = pend;
      s.group_size = 1;
      return add(std::move(s));
    }

    // Conjunction: all index lookups first (the initiator resolves every
    // pattern in parallel), then one scan per join slot. Which pattern a
    // slot runs is a runtime decision (frequency-driven join order), so the
    // slots carry positions, not patterns; slot 0 owns the group state.
    std::vector<OpId> lookups;
    lookups.reserve(bgp.size());
    for (const sparql::BgpPattern& p : bgp) {
      PhysicalOp l;
      l.kind = PhysOpKind::kIndexLookup;
      l.pattern = p;
      gate(l, barrier);
      lookups.push_back(add(std::move(l)));
    }
    OpId prev = kNoOp;
    OpId slot0 = kNoOp;
    for (int k = 0; k < static_cast<int>(bgp.size()); ++k) {
      PhysicalOp s;
      s.kind = PhysOpKind::kProviderScan;
      s.slot = k;
      s.group_size = static_cast<int>(bgp.size());
      s.preferred_end_from = pend;
      if (k == 0) {
        s.inputs = lookups;
        s.group_lookups = lookups;
        slot0 = static_cast<OpId>(plan.ops.size());
        s.group = slot0;
      } else {
        s.inputs = {prev};
        s.group = slot0;
      }
      prev = add(std::move(s));
    }
    return prev;
  }

  OpId compile(const Algebra& a, OpId pend, OpId barrier) {
    switch (a.kind) {
      case AlgebraKind::kBgp:
        return compile_bgp(a.bgp, pend, barrier);

      case AlgebraKind::kJoin: {
        OpId l = compile(*a.left, kNoOp, barrier);
        // The right subtree's chains prefer to end where the left operand
        // landed (its runtime site), so the join starts co-located; the
        // left root also barriers the right subtree (repair order).
        OpId r = compile(*a.right, l, l);
        PhysicalOp op;
        op.kind = PhysOpKind::kJoin;
        op.inputs = {l, r};
        return add(std::move(op));
      }

      case AlgebraKind::kLeftJoin: {
        OpId l = compile(*a.left, kNoOp, barrier);
        OpId r = compile(*a.right, kNoOp, l);
        PhysicalOp op;
        op.kind = PhysOpKind::kLeftJoin;
        op.inputs = {l, r};
        op.expr = a.expr;
        return add(std::move(op));
      }

      case AlgebraKind::kUnion: {
        OpId l = compile(*a.left, pend, barrier);
        OpId r = compile(*a.right,
                         policy.overlap_aware_sites ? l : kNoOp, l);
        PhysicalOp op;
        op.kind = PhysOpKind::kUnion;
        op.inputs = {l, r};
        return add(std::move(op));
      }

      case AlgebraKind::kFilter: {
        OpId c = compile(*a.left, pend, barrier);
        PhysicalOp op;
        op.kind = PhysOpKind::kFilter;
        op.inputs = {c};
        op.expr = a.expr;
        return add(std::move(op));
      }
    }
    return kNoOp;
  }
};

[[nodiscard]] std::string describe_op(const PhysicalPlan& plan,
                                      const PhysicalOp& op) {
  const ExecutionPolicy& pol = plan.policy;
  const std::string colocate =
      std::string(optimizer::join_site_policy_name(pol.join_site));
  switch (op.kind) {
    case PhysOpKind::kConst:
      return "Const [empty BGP -> one empty solution]";
    case PhysOpKind::kIndexLookup:
      return "IndexLookup " + op.pattern.to_string();
    case PhysOpKind::kProviderScan: {
      std::string strat =
          pol.adaptive
              ? "adaptive"
              : std::string(optimizer::primitive_strategy_name(pol.primitive));
      std::string end;
      if (op.preferred_end_from != kNoOp) {
        end = ", end@site(#" + std::to_string(op.preferred_end_from) + ")";
      }
      if (op.slot < 0) {
        return "ProviderScan " + op.pattern.to_string() + " [strategy=" +
               strat + end + "]";
      }
      std::string order =
          pol.frequency_join_order ? "frequency" : "textual";
      return "ProviderScan [slot " + std::to_string(op.slot) + "/" +
             std::to_string(op.group_size) + ", order=" + order +
             ", strategy=" + strat + end + "]";
    }
    case PhysOpKind::kShip:
      return "Ship [result -> initiator]";
    case PhysOpKind::kJoin:
      return "Join [site=" + colocate + "]";
    case PhysOpKind::kLeftJoin:
      return "LeftJoin [site=" + colocate + ", cond=" +
             (op.expr != nullptr ? op.expr->to_string() : "true") + "]";
    case PhysOpKind::kUnion:
      return std::string("Union [colocate=") + colocate +
             (pol.overlap_aware_sites ? ", overlap-aware ends]" : "]");
    case PhysOpKind::kFilter:
      return "Filter " +
             (op.expr != nullptr ? op.expr->to_string() : "true");
    case PhysOpKind::kPostProcess:
      return plan.form == sparql::QueryForm::kDescribe
                 ? "PostProcess [DESCRIBE expansion @ initiator]"
                 : "PostProcess [modifiers + projection @ initiator]";
  }
  return "?";
}

}  // namespace

std::vector<std::string> PhysicalPlan::to_lines() const {
  std::vector<std::string> out;
  if (post == kNoOp) return out;
  std::vector<char> printed(ops.size(), 0);
  auto rec = [&](auto&& self, OpId id, int depth) -> void {
    const PhysicalOp& op = ops[id];
    std::string line(static_cast<std::size_t>(depth) * 2, ' ');
    if (printed[id] != 0) {
      // Shared input (a DAG, not a tree): reference the earlier rendering.
      line += "^#" + std::to_string(id);
      out.push_back(std::move(line));
      return;
    }
    printed[id] = 1;
    line += "#" + std::to_string(id) + " " + describe_op(*this, op);
    out.push_back(std::move(line));
    for (OpId in : op.inputs) self(self, in, depth + 1);
  };
  rec(rec, post, 0);
  return out;
}

PhysicalPlan compile_physical_plan(const Algebra& a,
                                   const ExecutionPolicy& policy,
                                   sparql::QueryForm form) {
  PhysicalPlan plan;
  plan.policy = policy;
  plan.form = form;
  Compiler c{policy, plan};
  plan.root = c.compile(a, kNoOp, kNoOp);

  PhysicalOp ship;
  ship.kind = PhysOpKind::kShip;
  ship.inputs = {plan.root};
  plan.ship = c.add(std::move(ship));

  PhysicalOp post;
  post.kind = PhysOpKind::kPostProcess;
  post.inputs = {plan.ship};
  plan.post = c.add(std::move(post));
  return plan;
}

}  // namespace ahsw::dqp
