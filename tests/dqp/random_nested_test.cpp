// Randomized nested-query fuzzing: generates WHERE clauses with nested
// OPTIONAL / UNION / FILTER structure (depth <= 3) over the FOAF vocabulary
// and checks distributed execution against the single-site oracle. This
// covers algebra shapes far beyond the paper's five example classes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dqp_test_util.hpp"
#include "workload/vocab.hpp"

namespace ahsw::dqp {
namespace {

using testing::expect_matches_oracle;

/// Random triple pattern over FOAF predicates; variables drawn from a small
/// pool so that nested blocks share variables with their parents.
std::string random_pattern(common::Rng& rng) {
  constexpr std::array kVars = {"?a", "?b", "?c", "?d"};
  constexpr std::array kPreds = {"foaf:knows", "foaf:name", "foaf:nick",
                                 "foaf:age", "foaf:mbox",
                                 "ns:knowsNothingAbout"};
  std::string s = kVars[rng.below(kVars.size())];
  std::string p = kPreds[rng.below(kPreds.size())];
  std::string o;
  switch (rng.below(4)) {
    case 0:
      o = "<http://example.org/people/p" + std::to_string(rng.below(40)) +
          ">";
      break;
    default:
      o = kVars[rng.below(kVars.size())];
  }
  return s + " " + p + " " + o + " . ";
}

std::string random_filter(common::Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return "FILTER(bound(?b)) ";
    case 1:
      return "FILTER(isIRI(?a)) ";
    default:
      return "FILTER(!(?a = ?b)) ";
  }
}

std::string random_group(common::Rng& rng, int depth) {
  std::string out;
  int elements = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < elements; ++i) out += random_pattern(rng);
  if (depth > 0) {
    switch (rng.below(4)) {
      case 0:
        out += "OPTIONAL { " + random_group(rng, depth - 1) + "} ";
        break;
      case 1:
        out += "{ " + random_group(rng, depth - 1) + "} UNION { " +
               random_group(rng, depth - 1) + "} ";
        break;
      case 2:
        out += random_filter(rng);
        break;
      default:
        break;  // plain BGP
    }
  }
  return out;
}

std::string random_query(common::Rng& rng) {
  return "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
         "PREFIX ns: <http://example.org/ns#>\n"
         "SELECT * WHERE { " +
         random_group(rng, 3) + "}";
}

class RandomNested : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNested, DistributedMatchesOracle) {
  const std::uint64_t seed = GetParam();
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 5;
  cfg.foaf.persons = 40;  // small: nested cartesian shapes can explode
  cfg.foaf.knows_per_person = 1.5;
  cfg.foaf.seed = seed;
  cfg.partition.seed = seed + 1;
  cfg.partition.overlap = 0.2;
  workload::Testbed bed(cfg);

  common::Rng rng(seed * 31 + 7);
  ExecutionPolicy policy;
  policy.adaptive = seed % 2 == 0;
  DistributedQueryProcessor proc(bed.overlay(), policy);

  for (std::size_t i = 0; i < 8; ++i) {
    std::string q = random_query(rng);
    SCOPED_TRACE(q);
    expect_matches_oracle(bed, proc, q,
                          bed.storage_addrs()[i % bed.storage_addrs().size()]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomNested, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
    [](const ::testing::TestParamInfo<std::uint64_t>& instance) {
      return std::to_string(instance.param);
    });

}  // namespace
}  // namespace ahsw::dqp
