// Per-key reference implementation of the overlay's index write path.
//
// Before `HybridOverlay::publish_keys`, share_triples, unshare_triples,
// storage_node_rejoin, storage_node_leave and republish_all delivered one key
// at a time through publish_key: route the key, write the owner's table, push
// the owner's resulting entry to each replica (replicate_row), then push the
// invalidations. Before owner-grouped repair, repair reconciled each replica
// row on its own, finding the owner through the ring. These are those bodies,
// unchanged but for running on an overlay passed in and for writing every
// table through the per-entry merges of LocationTableReference. They are the
// oracle of tests/overlay/publish_batch_test.cpp: on the same history both
// must send the same messages and leave the same tables and tombstones.
// Test-only; nothing under src/ includes this.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "overlay/overlay.hpp"

namespace ahsw::overlay {

/// Friend of HybridOverlay: drives its private state the per-key way.
struct OverlayReference {
  static net::SimTime share_triples(HybridOverlay& ov, net::NodeAddress addr,
                                    const std::vector<rdf::Triple>& triples,
                                    net::SimTime now);
  static net::SimTime unshare_triples(HybridOverlay& ov,
                                      net::NodeAddress addr,
                                      const std::vector<rdf::Triple>& triples,
                                      net::SimTime now);
  static net::SimTime storage_node_leave(HybridOverlay& ov,
                                         net::NodeAddress addr,
                                         net::SimTime now);
  static net::SimTime storage_node_rejoin(HybridOverlay& ov,
                                          net::NodeAddress addr,
                                          net::SimTime now);
  static net::SimTime republish_all(HybridOverlay& ov, net::SimTime now);
  static void repair(HybridOverlay& ov, net::SimTime now);

 private:
  using PublishOp = HybridOverlay::PublishOp;
  static net::SimTime publish_key(HybridOverlay& ov, net::NodeAddress from,
                                  chord::Key key, std::uint32_t freq,
                                  PublishOp op, net::SimTime now);
  static void replicate_row(HybridOverlay& ov, IndexNodeState& owner,
                            chord::Key key, net::NodeAddress provider,
                            net::SimTime now);
  /// The index keys of `triples` that `apply` accepts, with their counts.
  static std::map<chord::Key, std::uint32_t> key_deltas(
      const HybridOverlay& ov, const std::vector<rdf::Triple>& triples,
      const std::function<bool(const rdf::Triple&)>& apply);
};

}  // namespace ahsw::overlay
