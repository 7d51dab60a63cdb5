#include "workload/testbed.hpp"

namespace ahsw::workload {

Testbed::Testbed(const TestbedConfig& cfg)
    : network_(cfg.cost), overlay_(network_, cfg.overlay) {
  for (std::size_t i = 0; i < cfg.index_nodes; ++i) {
    index_ids_.push_back(overlay_.add_index_node(setup_done_));
  }
  overlay_.ring().fix_all_fingers_oracle();

  for (std::size_t i = 0; i < cfg.storage_nodes; ++i) {
    storage_addrs_.push_back(overlay_.add_storage_node());
  }

  if (cfg.foaf.persons > 0 && !storage_addrs_.empty()) {
    PartitionConfig part = cfg.partition;
    part.nodes = storage_addrs_.size();
    std::vector<std::vector<rdf::Triple>> shares =
        partition(generate_foaf(cfg.foaf), part);
    for (std::size_t i = 0; i < storage_addrs_.size(); ++i) {
      setup_done_ = std::max(
          setup_done_,
          overlay_.share_triples(storage_addrs_[i], shares[i], setup_done_));
    }
  }
  network_.reset_stats();  // experiments measure from a clean slate
}

}  // namespace ahsw::workload
