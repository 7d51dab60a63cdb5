// Deterministic fault schedules (the scripted side of the fault-injection
// harness).
//
// A FaultSchedule is a sim-timestamped sequence of membership events —
// storage/index failures, recoveries, repairs, rejoins — either scripted by
// hand (tests, the shell `inject` command) or generated from a seeded churn
// profile. The schedule itself performs nothing: src/fault/harness.cpp
// converts it into dqp::InjectedEvents that execute_batch() merges into its
// event queue, so faults interleave with query traffic in one deterministic
// (time, query, task) order. Same seed + same schedule => byte-identical
// runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chord/ring.hpp"
#include "net/network.hpp"

namespace ahsw::fault {

enum class FaultKind : std::uint8_t {
  kStorageFail,  // crash a storage node (location rows go stale)
  kIndexFail,    // crash an index node (replicas mask the loss)
  kRecover,      // the network-level recovery of a storage node
  kRepair,       // overlay repair: ring fix-up + replica promotion
  kRejoin,       // recover (if needed) + republish the node's index entries
};

[[nodiscard]] std::string_view fault_kind_name(FaultKind k) noexcept;

/// One schedule entry. `storage` addresses storage-node events; `index`
/// names the ring id of an index-node event; kRepair uses neither.
struct FaultEvent {
  net::SimTime at = 0;
  FaultKind kind = FaultKind::kStorageFail;
  net::NodeAddress storage = net::kNoAddress;
  chord::Key index = 0;
};

/// Knobs of the seeded schedule generator: a churn process over a victim
/// set. All rates are per simulated second, all draws flow through
/// common::Rng, so a (profile, victims, seed) triple pins the schedule.
struct ChurnProfile {
  net::SimTime horizon_ms = 1000.0;  // events are stamped in [0, horizon)
  double fails_per_second = 4.0;     // expected storage failures per 1000 ms
  double recover_fraction = 0.75;    // failures followed by recover + rejoin
  net::SimTime recover_delay_ms = 120.0;  // fail -> recover gap
  net::SimTime repair_every_ms = 0;  // 0 = no periodic kRepair events
  // Index-node churn (replica-masked failures). 0 disables it, and the
  // index draws happen after every storage draw, so schedules generated
  // before this knob existed are byte-identical for the same seed.
  double index_fails_per_second = 0.0;
};

/// An ordered fault script. Events keep (time, insertion) order: builders
/// may append in any order and ties at one timestamp apply in the order
/// they were added.
class FaultSchedule {
 public:
  FaultSchedule& storage_fail(net::SimTime at, net::NodeAddress addr);
  FaultSchedule& index_fail(net::SimTime at, chord::Key id);
  FaultSchedule& recover(net::SimTime at, net::NodeAddress addr);
  FaultSchedule& repair(net::SimTime at);
  FaultSchedule& rejoin(net::SimTime at, net::NodeAddress addr);

  /// Seeded churn over `victims` (typically the live storage addresses):
  /// failure times are uniform over the horizon; a `recover_fraction` draw
  /// decides whether each failure is followed by recover + rejoin after
  /// `recover_delay_ms`; optional periodic repairs. Deterministic in
  /// (profile, victims, seed).
  [[nodiscard]] static FaultSchedule generate(
      const ChurnProfile& profile,
      const std::vector<net::NodeAddress>& victims, std::uint64_t seed);

  /// As above, plus index-node churn over `index_victims` (ring ids,
  /// typically the live index nodes) at `profile.index_fails_per_second`.
  /// All index draws come after the storage draws, so the storage half of
  /// the schedule matches the three-argument overload for the same seed.
  [[nodiscard]] static FaultSchedule generate(
      const ChurnProfile& profile,
      const std::vector<net::NodeAddress>& victims,
      const std::vector<chord::Key>& index_victims, std::uint64_t seed);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() { events_.clear(); }

  /// Earliest fail-event timestamp (0 when the schedule has no failures) —
  /// the availability report's convergence clock starts here.
  [[nodiscard]] net::SimTime first_fault_at() const noexcept;

  /// One "<at> <kind> <target>" line per event, for the shell and tests.
  [[nodiscard]] std::string to_string() const;

 private:
  void add(FaultEvent e);

  std::vector<FaultEvent> events_;  // sorted by at, stable in insertion
};

}  // namespace ahsw::fault
