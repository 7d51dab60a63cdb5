// Seeded-corruption suite: deliberately break each invariant class through
// the fault-injection hooks (Ring::mutable_state, HybridOverlay::
// index_state) and assert the auditor reports exactly that class — 100%
// detection, zero cross-talk between invariants. One case per invariant also
// pins the line a failing audit prints for it.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "check/audit.hpp"
#include "dqp/processor.hpp"
#include "fault/harness.hpp"
#include "workload/testbed.hpp"

namespace ahsw::check {
namespace {

std::set<Invariant> classes(const AuditReport& rep) {
  std::set<Invariant> out;
  for (int i = 0; i < kInvariantCount; ++i) {
    auto inv = static_cast<Invariant>(i);
    if (rep.has(inv)) out.insert(inv);
  }
  return out;
}

/// The rendered line of the first violation of `inv` (what a failing audit
/// prints), or "" when there is none.
std::string first_line(const AuditReport& rep, Invariant inv) {
  for (const Violation& v : rep.violations) {
    if (v.invariant == inv) return v.to_string();
  }
  return {};
}

workload::TestbedConfig config(int replication) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 6;
  cfg.storage_nodes = 6;
  cfg.overlay.replication_factor = replication;
  cfg.foaf.persons = 30;
  cfg.foaf.seed = 7;
  cfg.partition.seed = 8;
  return cfg;
}

/// One published (storage node, index key, ring owner, frequency) entry — a
/// concrete corruption target. Picks the highest-frequency key across all
/// storage nodes so frequency-skew tests have room below the true count.
struct Target {
  net::NodeAddress provider = net::kNoAddress;
  chord::Key key = 0;
  chord::Key owner = 0;
  std::uint32_t freq = 0;
};

Target pick_target(workload::Testbed& bed) {
  Target t;
  for (const auto& [addr, st] : bed.overlay().storage_nodes()) {
    for (const auto& [key, freq] : st.published) {
      if (freq > t.freq) {
        t.provider = addr;
        t.key = key;
        t.freq = freq;
      }
    }
  }
  EXPECT_GT(t.freq, 1u) << "dataset too small to pick a shared key";
  t.owner = bed.overlay().ring().oracle_successor(
      bed.overlay().ring().truncate(t.key));
  return t;
}

TEST(SeededCorruption, CleanSystemAuditsPristine) {
  workload::Testbed bed(config(1));
  AuditReport rep = audit(bed);
  EXPECT_TRUE(rep.pristine()) << rep.to_string();
  EXPECT_GT(rep.nodes_checked, 0u);
  EXPECT_GT(rep.triples_checked, 0u);
  EXPECT_GT(rep.keys_checked, 0u);
  EXPECT_GT(rep.rows_checked, 0u);
}

TEST(SeededCorruption, I1SkewedSuccessorPointer) {
  workload::Testbed bed(config(1));
  chord::Ring& ring = bed.overlay().ring();
  std::vector<chord::Key> ids = ring.live_ids();
  // Point the first node's immediate successor past the true one.
  chord::NodeState& st = ring.mutable_state(ids.front());
  ASSERT_GE(st.successors.size(), 2u);
  const chord::Key truth = st.successors.front();
  st.successors.front() = st.successors[1];

  AuditReport rep = audit(bed);
  EXPECT_TRUE(rep.has(Invariant::kRingTopology)) << rep.to_string();
  EXPECT_GT(rep.count(Invariant::kRingTopology, Severity::kCorrupt), 0u);
  EXPECT_EQ(classes(rep),
            std::set<Invariant>{Invariant::kRingTopology})
      << rep.to_string();
  EXPECT_EQ(first_line(rep, Invariant::kRingTopology),
            "[CORRUPT] I1-ring-topology node=" + std::to_string(ids.front()) +
                ": first live successor is " +
                std::to_string(st.successors[1]) + ", ring order expects " +
                std::to_string(truth));
}

TEST(SeededCorruption, I1SkewedPredecessorPointer) {
  workload::Testbed bed(config(1));
  chord::Ring& ring = bed.overlay().ring();
  std::vector<chord::Key> ids = ring.live_ids();
  ring.mutable_state(ids.front()).predecessor = ids.front();

  AuditReport rep = audit(bed);
  EXPECT_GT(rep.count(Invariant::kRingTopology, Severity::kCorrupt), 0u);
  EXPECT_EQ(classes(rep), std::set<Invariant>{Invariant::kRingTopology})
      << rep.to_string();
}

TEST(SeededCorruption, I1LaggingFingersReportStaleNotCorrupt) {
  workload::Testbed bed(config(1));
  chord::Ring& ring = bed.overlay().ring();
  std::vector<chord::Key> ids = ring.live_ids();
  // Valid-but-slow fingers (all at the immediate successor): the lazily
  // maintained table lags, which routing tolerates — stale, never corrupt.
  chord::NodeState& st = ring.mutable_state(ids.front());
  st.fingers.assign(st.fingers.size(), st.successors.front());

  AuditReport rep = audit(bed);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_GT(rep.count(Invariant::kRingTopology, Severity::kStale), 0u);
  EXPECT_EQ(classes(rep), std::set<Invariant>{Invariant::kRingTopology})
      << rep.to_string();
}

TEST(SeededCorruption, I2DroppedIndexKey) {
  workload::Testbed bed(config(1));
  Target t = pick_target(bed);
  ASSERT_TRUE(
      bed.overlay().index_state(t.owner).table.purge(t.key, t.provider));

  AuditReport rep = audit(bed);
  EXPECT_GT(rep.count(Invariant::kSixKey, Severity::kCorrupt), 0u);
  EXPECT_EQ(classes(rep), std::set<Invariant>{Invariant::kSixKey})
      << rep.to_string();
  EXPECT_EQ(first_line(rep, Invariant::kSixKey),
            "[CORRUPT] I2-six-key node=" + std::to_string(t.owner) +
                " key=" + std::to_string(t.key) +
                " provider=" + std::to_string(t.provider) +
                ": shared triples (" + std::to_string(t.freq) +
                ") have no index entry at the owner");
  // The violation names the exact (owner, key, provider).
  bool located = false;
  for (const Violation& v : rep.violations) {
    if (v.invariant == Invariant::kSixKey && v.key == t.key &&
        v.provider == t.provider && v.node == t.owner) {
      located = true;
    }
  }
  EXPECT_TRUE(located) << rep.to_string();
}

TEST(SeededCorruption, I3SkewedFrequency) {
  workload::Testbed bed(config(1));
  Target t = pick_target(bed);
  overlay::LocationTable& table = bed.overlay().index_state(t.owner).table;
  table.upsert(t.key, t.provider, t.freq + 3);

  AuditReport rep = audit(bed);
  EXPECT_GT(rep.count(Invariant::kLocationCoherence, Severity::kCorrupt), 0u);
  EXPECT_EQ(classes(rep), std::set<Invariant>{Invariant::kLocationCoherence})
      << rep.to_string();
  EXPECT_EQ(first_line(rep, Invariant::kLocationCoherence),
            "[CORRUPT] I3-location-coherence node=" + std::to_string(t.owner) +
                " key=" + std::to_string(t.key) +
                " provider=" + std::to_string(t.provider) + ": frequency " +
                std::to_string(t.freq + 3) + " inflated over actual " +
                std::to_string(t.freq) +
                " (at-least-once replication window)");
}

TEST(SeededCorruption, I3UndercountedFrequencyIsAlwaysCorrupt) {
  workload::Testbed bed(config(1));
  Target t = pick_target(bed);
  ASSERT_GT(t.freq, 1u);
  overlay::LocationTable& table = bed.overlay().index_state(t.owner).table;
  table.upsert(t.key, t.provider, t.freq + 1);  // inflated ...

  // ... under churn inflation is the documented at-least-once window
  // (stale), but an undercount is a lost publish even mid-churn.
  AuditOptions churned;
  churned.churned = true;
  AuditReport lenient = audit(bed, churned);
  EXPECT_TRUE(lenient.clean()) << lenient.to_string();
  EXPECT_GT(lenient.count(Invariant::kLocationCoherence, Severity::kStale),
            0u);

  table.upsert(t.key, t.provider, t.freq - 1);  // ... then undercounted
  AuditReport rep = audit(bed, churned);
  EXPECT_GT(rep.count(Invariant::kLocationCoherence, Severity::kCorrupt), 0u)
      << rep.to_string();
  EXPECT_EQ(classes(rep), std::set<Invariant>{Invariant::kLocationCoherence})
      << rep.to_string();
}

TEST(SeededCorruption, I4DeletedReplicaRow) {
  workload::Testbed bed(config(3));
  Target t = pick_target(bed);
  // The designated replica holders are the owner's first rf-1 successors
  // hosting index state (the walk replicate_row performs).
  const chord::Ring& ring = bed.overlay().ring();
  std::optional<chord::Key> holder;
  for (chord::Key succ : ring.state(t.owner).successors) {
    if (succ != t.owner && bed.overlay().index_nodes().count(succ) > 0) {
      holder = succ;
      break;
    }
  }
  ASSERT_TRUE(holder.has_value());
  bed.overlay().index_state(*holder).replicas.upsert(t.key, t.provider, 0);

  AuditReport rep = audit(bed);
  EXPECT_GT(rep.count(Invariant::kReplication, Severity::kCorrupt), 0u);
  EXPECT_EQ(classes(rep), std::set<Invariant>{Invariant::kReplication})
      << rep.to_string();
  EXPECT_EQ(first_line(rep, Invariant::kReplication),
            "[CORRUPT] I4-replication node=" + std::to_string(*holder) +
                " key=" + std::to_string(t.key) +
                " provider=" + std::to_string(t.provider) +
                ": replica row missing at designated holder (owner " +
                std::to_string(t.owner) + ")");
}

TEST(SeededCorruption, I5DesyncedSpanCounters) {
  workload::Testbed bed(config(1));
  dqp::DistributedQueryProcessor proc(bed.overlay());
  obs::QueryTrace trace;
  proc.set_trace(&trace);  // binds the trace to the testbed network

  const std::string query =
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
      "SELECT ?s ?o WHERE { ?s foaf:knows ?o }";
  net::TrafficStats before = bed.network().stats();
  (void)proc.execute(query, bed.storage_addrs().front(), nullptr);

  // The traced execution conserves exactly.
  {
    net::TrafficStats delta = bed.network().stats().delta_since(before);
    AuditReport rep;
    audit_conservation(trace, delta, rep);
    EXPECT_TRUE(rep.pristine()) << rep.to_string();
  }

  // Desync: traffic charged outside the trace's observation window lands in
  // the delta but in no span — the conservation sum must catch the hole.
  proc.set_trace(nullptr);  // unbinds the trace
  bed.network().send(bed.storage_addrs().front(), bed.storage_addrs().back(),
                     64, 0, net::Category::kData);
  net::TrafficStats delta = bed.network().stats().delta_since(before);
  AuditReport rep;
  audit_conservation(trace, delta, rep);
  EXPECT_GT(rep.count(Invariant::kConservation, Severity::kCorrupt), 0u);
  EXPECT_EQ(classes(rep), std::set<Invariant>{Invariant::kConservation})
      << rep.to_string();
  // The one message sent outside the trace is the hole.
  EXPECT_EQ(first_line(rep, Invariant::kConservation),
            "[CORRUPT] I5-conservation: messages do not conserve: span sum " +
                std::to_string(delta.messages - 1) + " != traffic delta " +
                std::to_string(delta.messages));
}

TEST(SeededCorruption, I6FailedProviderRevivedInPrimaryRow) {
  workload::Testbed bed(config(1));
  Target t = pick_target(bed);
  bed.overlay().storage_node_fail(t.provider);
  fault::converge(bed.overlay(), 0);

  AuditOptions opt;
  opt.converged = true;
  opt.churned = true;
  EXPECT_TRUE(audit(bed.overlay(), opt).clean())
      << "converge must establish I6 before the corruption is planted";

  // Resurrect the corpse in the owner's primary row — the post-convergence
  // state the replica-propagation bug produced.
  bed.overlay().index_state(t.owner).table.publish(t.key, t.provider, t.freq);
  AuditReport rep = audit(bed.overlay(), opt);
  EXPECT_GT(rep.count(Invariant::kLiveness, Severity::kCorrupt), 0u)
      << rep.to_string();
  bool located = false;
  for (const Violation& v : rep.violations) {
    if (v.invariant == Invariant::kLiveness && v.key == t.key &&
        v.provider == t.provider) {
      located = true;
    }
  }
  EXPECT_TRUE(located) << rep.to_string();
  EXPECT_EQ(first_line(rep, Invariant::kLiveness),
            "[CORRUPT] I6-liveness node=" + std::to_string(t.owner) +
                " key=" + std::to_string(t.key) +
                " provider=" + std::to_string(t.provider) +
                ": primary row still lists a failed provider after "
                "convergence");

  // Without the converged bar the same entry is lazy-repair staleness (I3),
  // not an I6 violation.
  AuditOptions lax;
  lax.churned = true;
  AuditReport lenient = audit(bed.overlay(), lax);
  EXPECT_TRUE(lenient.clean()) << lenient.to_string();
  EXPECT_EQ(lenient.count(Invariant::kLiveness), 0u);
}

TEST(SeededCorruption, I6FailedProviderSurvivingInReplicaRow) {
  workload::Testbed bed(config(2));
  Target t = pick_target(bed);
  bed.overlay().storage_node_fail(t.provider);
  fault::converge(bed.overlay(), 0);

  AuditOptions opt;
  opt.converged = true;
  opt.churned = true;
  ASSERT_TRUE(audit(bed.overlay(), opt).clean());

  // A replica copy the purge missed: exactly the resurrection seed.
  bed.overlay().index_state(t.owner).replicas.upsert(t.key, t.provider,
                                                     t.freq);
  AuditReport rep = audit(bed.overlay(), opt);
  EXPECT_GT(rep.count(Invariant::kLiveness, Severity::kCorrupt), 0u)
      << rep.to_string();
}

}  // namespace
}  // namespace ahsw::check
