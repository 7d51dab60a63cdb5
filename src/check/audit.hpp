// Distributed-state invariant auditor.
//
// The paper states its correctness conditions but never mechanizes them:
// every shared triple must be indexed under all six keys at the ring node
// responsible for each key (Sect. III-B, Table I), location-table
// frequencies must agree with what storage nodes actually hold, and
// replicas must mirror predecessor rows through churn (Sect. III-C/D).
// This module turns those statements into a machine-checked audit over the
// simulator's ground-truth state:
//
//   I1 ring topology       — successor/predecessor symmetry, finger-table
//                            correctness, successor-list freshness.
//   I2 six-key completeness— every shared triple reachable under each of
//                            Hash(s), Hash(p), Hash(o), Hash(s,p),
//                            Hash(p,o), Hash(s,o) at the oracle owner.
//   I3 location coherence  — per-provider frequencies match actual store
//                            contents; storage-side publish bookkeeping
//                            matches the store; rows live at their owner.
//   I4 replication         — replica rows mirror the owner's live rows at
//                            the replication_factor successor holders.
//   I5 conservation        — span self-counters plus the unattributed
//                            bucket sum exactly to the TrafficStats delta
//                            of the traced execution, per category,
//                            timeouts included.
//   I6 liveness            — after convergence (repair + purge, see
//                            fault::converge), no failed storage node may
//                            remain referenced by any primary or replica
//                            row. Gated on AuditOptions::converged.
//   I7 replica sync        — no repair that found the replicas in sync
//                            (HybridOverlay::replicas_in_sync) changed a
//                            row with its merges. Only audited runs
//                            (AHSW_AUDIT=1) merge in sync, so only they can
//                            see a violation: a desync event the overlay
//                            does not mark.
//
// Violations carry a severity: kCorrupt means the invariant is broken in a
// way the protocol can never produce on its own (lost publish, wrong ring
// pointer in a settled system); kStale means a documented lazy-repair or
// at-least-once window (dead-provider pointers awaiting purge, replica
// drift between replication rounds, lazily maintained fingers). Audits of
// a churning system pass AuditOptions::churned so drift classes report as
// kStale; quiescent audits treat the same drift as kCorrupt.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chord/ring.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "overlay/overlay.hpp"
#include "workload/testbed.hpp"

namespace ahsw::check {

enum class Invariant : std::uint8_t {
  kRingTopology = 0,       // I1
  kSixKey = 1,             // I2
  kLocationCoherence = 2,  // I3
  kReplication = 3,        // I4
  kConservation = 4,       // I5
  kLiveness = 5,           // I6
  kReplicaSync = 6,        // I7
};
inline constexpr int kInvariantCount = 7;

[[nodiscard]] std::string_view invariant_name(Invariant i) noexcept;

enum class Severity : std::uint8_t {
  kStale = 0,    // documented lazy-repair / replication window
  kCorrupt = 1,  // state the protocol can never legitimately produce
};

[[nodiscard]] std::string_view severity_name(Severity s) noexcept;

/// One detected invariant violation, with enough structure for tests to
/// assert on the class and location without parsing the detail text.
struct Violation {
  Invariant invariant = Invariant::kRingTopology;
  Severity severity = Severity::kCorrupt;
  chord::Key node = 0;  // ring node involved (owner / holder); 0 if n/a
  chord::Key key = 0;   // index key involved; 0 if n/a
  net::NodeAddress provider = net::kNoAddress;  // storage node; kNoAddress n/a
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

struct AuditOptions {
  /// The system has seen injected churn (crashes, joins, repairs) since the
  /// last settled state: drift the protocol repairs lazily (stale provider
  /// pointers, replica divergence, successor-list drift) reports as kStale
  /// instead of kCorrupt.
  bool churned = false;
  /// The system has been driven to convergence (fault::converge: repair,
  /// finger fix-up, oracle purge of failed nodes): enables I6, which treats
  /// any surviving reference to a failed storage node — primary or replica —
  /// as kCorrupt. This is the invariant the dead-provider resurrection bug
  /// violated: the primary row was purged but a stale replica row revived
  /// the dead provider on the next repair.
  bool converged = false;
  /// At most this many violations are materialized into the report's
  /// vector; counters keep counting past the cap.
  std::size_t max_violations = 256;
  /// Audit time, used to age initiator-side cached location rows: an
  /// unleased cached row within its TTL may serve data up to ttl_ms stale
  /// (divergence reports as kStale under I3); one past its TTL can never be
  /// served again (LocationCache::lookup drops it), so it is skipped. A
  /// *leased* row is push-invalidated on every owner mutation, so any
  /// divergence is kCorrupt under I4 regardless of age.
  net::SimTime now = 0;
};

struct AuditReport {
  std::vector<Violation> violations;  // capped at AuditOptions::max_violations
  bool truncated = false;             // the cap was hit

  // Full counts (never capped).
  std::size_t corrupt = 0;
  std::size_t stale = 0;
  std::size_t by_invariant[kInvariantCount][2] = {};  // [invariant][severity]

  // Coverage counters, so "0 violations" is distinguishable from "checked
  // nothing".
  std::size_t nodes_checked = 0;         // ring nodes audited (I1)
  std::size_t triples_checked = 0;       // storage triples audited (I2)
  std::size_t keys_checked = 0;          // (triple x key-kind) probes (I2)
  std::size_t rows_checked = 0;          // primary row entries audited (I3)
  std::size_t replica_rows_checked = 0;  // replica row entries audited (I4)
  std::size_t cached_rows_checked = 0;   // initiator-cached rows audited (I3/I4)

  /// No corrupt violations (stale drift allowed).
  [[nodiscard]] bool clean() const noexcept { return corrupt == 0; }
  /// No violations at all.
  [[nodiscard]] bool pristine() const noexcept {
    return corrupt == 0 && stale == 0;
  }
  [[nodiscard]] std::size_t count(Invariant i) const noexcept;
  [[nodiscard]] std::size_t count(Invariant i, Severity s) const noexcept;
  [[nodiscard]] bool has(Invariant i) const noexcept { return count(i) > 0; }

  /// Multi-line human-readable report: one summary line plus one line per
  /// materialized violation.
  [[nodiscard]] std::string to_string() const;
};

/// I1 over a bare ring (no index layer). Failed-but-unrepaired nodes are
/// skipped as auditees but considered when classifying pointers to them.
void audit_ring(const chord::Ring& ring, const net::Network& net,
                AuditReport& report, const AuditOptions& options = {});

/// I1-I4 over a full overlay (ring + location tables + replicas + stores).
void audit_overlay(const overlay::HybridOverlay& overlay, AuditReport& report,
                   const AuditOptions& options = {});

/// I5: every charged message/byte/timeout of a traced execution lands in
/// exactly one span (or the trace's unattributed bucket), so span
/// self-counters plus the unattributed bucket must sum exactly to the
/// TrafficStats delta of the same window, on every counter: totals and each
/// category's messages, bytes and timeouts. `delta` is the stats delta over
/// the window the trace was bound; each mismatching counter is one kCorrupt
/// line.
void audit_conservation(const obs::QueryTrace& trace,
                        const net::TrafficStats& delta, AuditReport& report,
                        const AuditOptions& options = {});

/// One-call audits.
[[nodiscard]] AuditReport audit(const overlay::HybridOverlay& overlay,
                                const AuditOptions& options = {});
[[nodiscard]] AuditReport audit(workload::Testbed& testbed,
                                const AuditOptions& options = {});

}  // namespace ahsw::check
