// Query workload generator: SPARQL query strings of the five classes the
// paper analyses (primitive, conjunction, optional, union, filter), over
// the FOAF vocabulary of the data generators.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/generators.hpp"

namespace ahsw::workload {

enum class QueryClass {
  kPrimitive,    // single triple pattern (Fig. 5)
  kConjunction,  // BGP of 2-3 patterns (Fig. 6)
  kOptional,     // OPTIONAL block (Fig. 7)
  kUnion,        // UNION of two BGPs (Fig. 8)
  kFilter,       // FILTER over a BGP, optionally + OPTIONAL (Fig. 9)
};

/// One random query of the given class, parameterized by entities that
/// exist in a generate_foaf(cfg) dataset.
[[nodiscard]] std::string make_query(QueryClass cls, const FoafConfig& cfg,
                                     common::Rng& rng);

/// Relative weights of each class in a mixed workload.
struct QueryMixConfig {
  double primitive = 0.4;
  double conjunction = 0.25;
  double optional = 0.15;
  double union_ = 0.1;
  double filter = 0.1;
  std::uint64_t seed = 7;
};

/// A reproducible stream of `count` query strings.
[[nodiscard]] std::vector<std::string> generate_query_mix(
    std::size_t count, const FoafConfig& data_cfg, const QueryMixConfig& mix);

}  // namespace ahsw::workload
