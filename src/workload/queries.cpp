#include "workload/queries.hpp"

#include <array>

#include "workload/vocab.hpp"

namespace ahsw::workload {

namespace {

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

[[nodiscard]] std::string person_ref(const FoafConfig& cfg, common::Rng& rng) {
  return "<" + std::string(ex::kPerson) + "p" +
         std::to_string(rng.below(cfg.persons)) + ">";
}

[[nodiscard]] std::string surname(common::Rng& rng) {
  constexpr std::array kPool = {"Smith", "Johnson", "Williams", "Brown",
                                "Jones"};
  return std::string(kPool[rng.below(kPool.size())]);
}

}  // namespace

std::string make_query(QueryClass cls, const FoafConfig& cfg,
                       common::Rng& rng) {
  std::string q(kPrologue);
  switch (cls) {
    case QueryClass::kPrimitive: {
      // One of the index-servable pattern shapes, alternating which
      // positions are bound.
      switch (rng.below(3)) {
        case 0:
          q += "SELECT ?x WHERE { ?x foaf:knows " + person_ref(cfg, rng) +
               " . }";
          break;
        case 1:
          q += "SELECT ?n WHERE { " + person_ref(cfg, rng) +
               " foaf:name ?n . }";
          break;
        default:
          q += "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }";
      }
      return q;
    }
    case QueryClass::kConjunction: {
      q += "SELECT ?x ?y ?z WHERE { ?x foaf:knows ?z . "
           "?x ns:knowsNothingAbout ?y . ";
      if (rng.chance(0.5)) q += "?y foaf:knows ?z . ";
      q += "}";
      return q;
    }
    case QueryClass::kOptional: {
      q += "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
           "OPTIONAL { ?y foaf:nick ?n . } }";
      return q;
    }
    case QueryClass::kUnion: {
      q += "SELECT ?x WHERE { { ?x foaf:knows " + person_ref(cfg, rng) +
           " . } UNION { ?x foaf:mbox ?m . } }";
      return q;
    }
    case QueryClass::kFilter: {
      q += "SELECT ?x ?name WHERE { ?x foaf:name ?name . "
           "?x foaf:knows ?y . FILTER regex(?name, \"" + surname(rng) +
           "\") }";
      return q;
    }
  }
  return q;
}

std::vector<std::string> generate_query_mix(std::size_t count,
                                            const FoafConfig& data_cfg,
                                            const QueryMixConfig& mix) {
  common::Rng rng(mix.seed);
  const double total = mix.primitive + mix.conjunction + mix.optional +
                       mix.union_ + mix.filter;
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    double u = rng.uniform() * total;
    QueryClass cls;
    if ((u -= mix.primitive) < 0) {
      cls = QueryClass::kPrimitive;
    } else if ((u -= mix.conjunction) < 0) {
      cls = QueryClass::kConjunction;
    } else if ((u -= mix.optional) < 0) {
      cls = QueryClass::kOptional;
    } else if ((u -= mix.union_) < 0) {
      cls = QueryClass::kUnion;
    } else {
      cls = QueryClass::kFilter;
    }
    out.push_back(make_query(cls, data_cfg, rng));
  }
  return out;
}

}  // namespace ahsw::workload
