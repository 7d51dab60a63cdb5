// Testbed: one-call construction of a complete simulated system — network,
// ring of index nodes, attached storage nodes, and a partitioned dataset —
// used by integration tests, benchmarks and examples.
#pragma once

#include <vector>

#include "net/network.hpp"
#include "overlay/overlay.hpp"
#include "workload/generators.hpp"

namespace ahsw::workload {

struct TestbedConfig {
  std::size_t index_nodes = 4;
  std::size_t storage_nodes = 8;
  overlay::OverlayConfig overlay;
  net::CostModel cost;
  /// Dataset: FOAF graph partitioned over the storage nodes. Set
  /// foaf.persons = 0 for an empty system.
  FoafConfig foaf;
  PartitionConfig partition;  // nodes field is overridden by storage_nodes
};

/// A fully assembled system in steady state: fingers are converged by the
/// oracle once the index nodes have joined, so join traffic is never part of
/// a measurement. Member order matters: the network must outlive (and be
/// constructed before) the overlay.
class Testbed {
 public:
  explicit Testbed(const TestbedConfig& cfg);

  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] overlay::HybridOverlay& overlay() noexcept { return overlay_; }
  [[nodiscard]] const std::vector<chord::Key>& index_ids() const noexcept {
    return index_ids_;
  }
  [[nodiscard]] const std::vector<net::NodeAddress>& storage_addrs()
      const noexcept {
    return storage_addrs_;
  }
  /// Time at which all data had been shared and indexed.
  [[nodiscard]] net::SimTime setup_completed_at() const noexcept {
    return setup_done_;
  }

 private:
  net::Network network_;
  overlay::HybridOverlay overlay_;
  std::vector<chord::Key> index_ids_;
  std::vector<net::NodeAddress> storage_addrs_;
  net::SimTime setup_done_ = 0;
};

}  // namespace ahsw::workload
