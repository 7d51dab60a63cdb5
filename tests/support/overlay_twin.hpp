// Two overlays built alike and driven through the same history, one by the
// code under test and one by a reference path: the harness of the overlay
// differential tests (tests/overlay/publish_batch_test.cpp,
// replica_sync_test.cpp), whose state comparison the parallel driver's
// differential test (tests/dqp/parallel_differential_test.cpp) reuses.
// Test-only; nothing under src/ includes this.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "overlay/overlay.hpp"
#include "support/replica_reference.hpp"

namespace ahsw::overlay {

/// One overlay with a tracer recording every message it sends.
struct Twin {
  explicit Twin(const OverlayConfig& cfg) : overlay(network, cfg) {
    network.set_tracer([this](const net::MessageEvent& e) {
      char line[160];
      std::snprintf(line, sizeof line, "%u->%u %zuB %.17g..%.17g %s", e.from,
                    e.to, e.bytes, e.sent_at, e.arrives_at,
                    std::string(net::category_name(e.category)).c_str());
      sent.emplace_back(line);
    });
  }
  net::Network network;
  HybridOverlay overlay;
  std::vector<std::string> sent;
};

/// A triple over a small vocabulary, so keys and rows recur across nodes.
inline rdf::Triple random_triple(common::Rng& rng) {
  auto iri = [](const std::string& local) {
    return rdf::Term::iri("http://example.org/" + local);
  };
  const rdf::Term s = iri("s" + std::to_string(rng.below(12)));
  const rdf::Term p = iri("p" + std::to_string(rng.below(3)));
  const rdf::Term o =
      rng.chance(0.5) ? iri("s" + std::to_string(rng.below(12)))
                      : rdf::Term::literal("v" + std::to_string(rng.below(6)));
  return {s, p, o};
}

/// Both overlays hold the same index rows, tombstones, byte sizes and
/// storage-side publish bookkeeping.
inline void expect_same_index_state(const HybridOverlay& a,
                                    const HybridOverlay& b,
                                    const std::string& where) {
  const auto& ia = a.index_nodes();
  const auto& ib = b.index_nodes();
  ASSERT_EQ(ia.size(), ib.size()) << where;
  for (auto x = ia.begin(), y = ib.begin(); x != ia.end(); ++x, ++y) {
    const std::string node = where + " index node " + std::to_string(x->first);
    ASSERT_EQ(x->first, y->first) << node;
    ASSERT_EQ(x->second.table.rows(), y->second.table.rows()) << node;
    ASSERT_EQ(x->second.replicas.rows(), y->second.replicas.rows()) << node;
    ASSERT_EQ(x->second.table.byte_size(), y->second.table.byte_size())
        << node;
    ASSERT_EQ(x->second.replicas.byte_size(), y->second.replicas.byte_size())
        << node;
    ASSERT_EQ(LocationTableReference::tombstones(x->second.table),
              LocationTableReference::tombstones(y->second.table))
        << node;
    ASSERT_EQ(LocationTableReference::tombstones(x->second.replicas),
              LocationTableReference::tombstones(y->second.replicas))
        << node;
  }
  const auto& qa = a.storage_nodes();
  const auto& qb = b.storage_nodes();
  ASSERT_EQ(qa.size(), qb.size()) << where;
  for (auto x = qa.begin(), y = qb.begin(); x != qa.end(); ++x, ++y) {
    ASSERT_EQ(x->first, y->first) << where;
    ASSERT_EQ(x->second.published, y->second.published) << where;
  }
}

/// Both twins sent the same messages in the same order since the last call
/// (which clears the logs), charged the same traffic, and hold the same
/// index state (expect_same_index_state).
inline void expect_same(Twin& a, Twin& b, const std::string& where) {
  ASSERT_EQ(a.sent, b.sent) << where;
  a.sent.clear();
  b.sent.clear();
  const net::TrafficStats& sa = a.network.stats();
  const net::TrafficStats& sb = b.network.stats();
  ASSERT_EQ(sa.messages, sb.messages) << where;
  ASSERT_EQ(sa.bytes, sb.bytes) << where;
  ASSERT_EQ(sa.raw_bytes, sb.raw_bytes) << where;
  ASSERT_EQ(sa.timeouts, sb.timeouts) << where;
  for (int c = 0; c < net::kCategoryCount; ++c) {
    ASSERT_EQ(sa.messages_by[c], sb.messages_by[c]) << where;
    ASSERT_EQ(sa.bytes_by[c], sb.bytes_by[c]) << where;
  }
  expect_same_index_state(a.overlay, b.overlay, where);
}

}  // namespace ahsw::overlay
