// ahsw_shell — an interactive driver for the simulated data sharing system.
//
// Builds a system, lets you add devices, load N-Triples data onto them, and
// run SPARQL queries from any device, printing results together with the
// execution cost report. Commands come from stdin (or a script file passed
// on the command line), so the tool doubles as an end-to-end smoke driver.
//
// Commands:
//   help                         this text
//   system <index> <storage>    (re)create a system
//   device                       add a storage device; prints its address
//   load <addr> <file.nt>        share an N-Triples file from a device
//   put <addr> <ntriples line>   share one triple
//   drop <addr> <ntriples line>  unshare one triple
//   policy basic|chain|freq|adaptive [traffic_w latency_w]
//   policy retry <max> [base growth relookup]   bounded retry/backoff +
//                                lazy-repair re-lookup on dead providers
//   policy cache on|off [ttl hot_threshold hot_ttl max_rows]
//                                initiator-side location-row caching
//                                (docs/caching.md); defaults 400 4 4000 64
//   policy workers <n>           parallel batch driver worker threads for
//                                `batch` (default 1 = serial). Simulated
//                                results, traces and `explain` output are
//                                byte-identical either way (per-worker span
//                                forests merge back on the master)
//   query <addr> <sparql...>     run a query (may span lines; end with ';')
//   batch <addr> <addr> ...      run N queries concurrently (one per ';'-
//                                terminated query on the following lines)
//   plan <sparql...>             compile + print the physical operator DAG
//   explain                      span tree of the last query or batch (batch
//                                roots carry q<id> labels), with costs
//   fail-storage <addr>          crash a device
//   fail-index                   crash one index node, then repair
//   inject <at> storage-fail <addr>   schedule a device crash at sim time
//   inject <at> index-fail <id>       schedule an index-node crash
//   inject <at> recover <addr>        schedule a device recovery
//   inject <at> rejoin <addr>         schedule recovery + republish
//   inject <at> repair                schedule an overlay repair round
//   inject list | clear          show / drop the pending fault schedule
//                                (the next `batch` consumes it and prints
//                                availability metrics)
//   audit [converged]            run the invariant auditor (I1-I5, I7; with
//                                `converged`: converge first, then I1-I7)
//   lint                         run ahsw-lint over the source tree
//   stats                        system summary
//   quit
#include <fstream>
#include <iostream>
#include <sstream>

#include "check/audit.hpp"
#include "fault/harness.hpp"
#include "lint/engine.hpp"
#include "dqp/physical_plan.hpp"
#include "dqp/processor.hpp"
#include "obs/explain.hpp"
#include "optimizer/rewriter.hpp"
#include "obs/trace.hpp"
#include "sparql/format.hpp"
#include "overlay/overlay.hpp"
#include "common/strings.hpp"
#include "rdf/ntriples.hpp"

namespace {

using namespace ahsw;

struct Shell {
  std::unique_ptr<net::Network> network;
  std::unique_ptr<overlay::HybridOverlay> overlay;
  std::unique_ptr<dqp::DistributedQueryProcessor> processor;
  dqp::ExecutionPolicy policy;
  obs::QueryTrace trace;
  bool have_query = false;
  /// Injected failures since the last settled state: the auditor's lenient
  /// severity model applies (stale drift expected, corruption never).
  bool churned = false;
  /// Traffic delta of the last query, for the I5 conservation audit.
  net::TrafficStats last_query_delta;
  /// Faults queued by `inject`; the next `batch` consumes (and clears) them.
  fault::FaultSchedule pending_faults;
  /// `policy workers <n>`: BatchOptions::workers for the next `batch`.
  int batch_workers = 1;

  void make_system(std::size_t index_nodes, std::size_t storage_nodes) {
    trace.unbind();  // the old network is about to be destroyed
    have_query = false;
    churned = false;
    pending_faults.clear();
    network = std::make_unique<net::Network>();
    overlay::OverlayConfig cfg;
    cfg.replication_factor = 2;
    overlay = std::make_unique<overlay::HybridOverlay>(*network, cfg);
    for (std::size_t i = 0; i < index_nodes; ++i) overlay->add_index_node();
    overlay->ring().fix_all_fingers_oracle();
    for (std::size_t i = 0; i < storage_nodes; ++i) {
      std::cout << "device " << overlay->add_storage_node() << "\n";
    }
    overlay->configure_caches(policy.cache);
    processor =
        std::make_unique<dqp::DistributedQueryProcessor>(*overlay, policy);
    processor->set_trace(&trace);
    std::cout << "system: " << index_nodes << " index nodes, "
              << storage_nodes << " devices\n";
  }

  bool ready() const {
    if (overlay == nullptr) {
      std::cout << "error: no system; run `system <index> <storage>`\n";
      return false;
    }
    return true;
  }

  void run_query(net::NodeAddress from, const std::string& text) {
    dqp::ExecutionReport rep;
    try {
      trace.clear();
      net::TrafficStats before = network->stats();
      sparql::QueryResult result = processor->execute(text, from, &rep);
      last_query_delta = network->stats().delta_since(before);
      have_query = true;
      std::cout << sparql::to_table(result);
      std::cout << "-- " << rep.traffic.messages << " msgs, "
                << rep.traffic.bytes << " B, " << rep.response_time
                << " ms simulated"
                << (rep.dead_providers_skipped > 0 ? " (stale providers skipped)"
                                                   : "");
      if (policy.cache.enabled) {
        std::cout << " (cache " << rep.cache.hits << " hit/" << rep.cache.misses
                  << " miss)";
      }
      std::cout << "\n";
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }

  void run_batch(const std::vector<net::NodeAddress>& addrs,
                 const std::vector<std::string>& queries) {
    try {
      trace.clear();
      net::TrafficStats before = network->stats();
      // Any faults queued by `inject` ride along in this batch's event
      // queue; the schedule is one-shot. run_with_faults supplies both the
      // master-bound injections and the per-worker injection factory, so
      // `policy workers <n>` parallelizes faulted batches too.
      fault::FaultSchedule schedule = pending_faults;
      pending_faults.clear();
      dqp::BatchOptions opts;
      opts.workers = batch_workers;
      std::vector<dqp::BatchQuery> batch;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        batch.push_back(
            dqp::BatchQuery{sparql::parse_query(queries[i]), addrs[i]});
      }
      fault::FaultRunResult fr =
          fault::run_with_faults(*processor, *overlay, batch, schedule, opts);
      dqp::BatchResult& r = fr.batch;
      last_query_delta = network->stats().delta_since(before);
      have_query = true;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const dqp::ExecutionReport& rep = r.reports[i];
        std::cout << "q" << i << " @ device " << addrs[i] << ":\n"
                  << sparql::to_table(r.results[i]);
        std::cout << "-- " << rep.traffic.messages << " msgs, "
                  << rep.traffic.bytes << " B, " << rep.response_time
                  << " ms simulated\n";
      }
      std::cout << "-- batch of " << queries.size() << ": makespan "
                << r.makespan << " ms simulated\n";
      if (!r.worker_makespans.empty()) {
        std::cout << "-- parallel: " << r.worker_makespans.size()
                  << " workers, shard makespans";
        for (net::SimTime m : r.worker_makespans) std::cout << " " << m;
        std::cout << " ms simulated\n";
      }
      if (!schedule.events().empty()) {
        churned = true;
        const fault::AvailabilityReport& avail = fr.availability;
        std::cout << "-- faults: " << fr.injection_log.applied << " applied, "
                  << fr.injection_log.skipped << " skipped; success rate "
                  << avail.success_rate() << ", " << avail.retry_count
                  << " retries, " << avail.relookup_count
                  << " re-lookups, convergence " << avail.convergence_ms()
                  << " ms\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }

  void audit(bool converged = false) {
    if (converged) {
      // Drive the system to a settled state first; I6 then treats any
      // surviving reference to a failed device as corruption.
      fault::converge(*overlay, 0);
    }
    check::AuditOptions opt;
    opt.converged = converged;
    opt.churned = churned;
    check::AuditReport rep = check::audit(*overlay, opt);
    if (have_query) {
      // I5 over the last query or batch: its spans are still in the trace
      // (a parallel batch grafts the per-worker span forests back, so the
      // merged tree carries the same charges as a serial run).
      check::audit_conservation(trace, last_query_delta, rep, opt);
    }
    std::cout << rep.to_string() << "\n";
    if (churned && rep.stale > 0) {
      std::cout << "(stale entries are expected after injected failures; "
                   "they repair lazily)\n";
    }
  }
};

int run(std::istream& in, bool interactive) {
  Shell shell;
  std::string line;
  if (interactive) std::cout << "ahsw> " << std::flush;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string cmd;
    ss >> cmd;
    try {
      if (cmd.empty() || cmd[0] == '#') {
        // comment / blank
      } else if (cmd == "help") {
        std::cout << "commands: system device load put drop policy query "
                     "batch plan explain fail-storage fail-index inject audit "
                     "lint stats quit\n";
      } else if (cmd == "system") {
        std::size_t ix = 4, st = 4;
        ss >> ix >> st;
        shell.make_system(ix, st);
      } else if (cmd == "device") {
        if (shell.ready()) {
          std::cout << "device " << shell.overlay->add_storage_node() << "\n";
        }
      } else if (cmd == "load") {
        net::NodeAddress addr = 0;
        std::string path;
        ss >> addr >> path;
        if (shell.ready()) {
          std::ifstream f(path);
          if (!f) {
            std::cout << "error: cannot open " << path << "\n";
          } else {
            std::stringstream buf;
            buf << f.rdbuf();
            std::vector<rdf::Triple> triples =
                rdf::parse_ntriples(buf.str());
            shell.overlay->share_triples(addr, triples, 0);
            std::cout << "shared " << triples.size() << " triples from "
                      << path << "\n";
          }
        }
      } else if (cmd == "put" || cmd == "drop") {
        net::NodeAddress addr = 0;
        ss >> addr;
        std::string rest;
        std::getline(ss, rest);
        if (shell.ready()) {
          rdf::Triple t = rdf::parse_ntriples_line(
              std::string(common::trim(rest)));
          if (cmd == "put") {
            shell.overlay->share_triples(addr, {t}, 0);
          } else {
            shell.overlay->unshare_triples(addr, {t}, 0);
          }
          std::cout << "ok\n";
        }
      } else if (cmd == "policy") {
        std::string kind;
        ss >> kind;
        if (kind == "retry") {
          int max = 0;
          ss >> max;
          shell.policy.retry.max_retries = max;
          double base = 0, growth = 0;
          int relookup = 0;
          if (ss >> base >> growth >> relookup) {
            shell.policy.retry.backoff_base_ms = base;
            shell.policy.retry.backoff_growth = growth;
            shell.policy.retry.relookup = relookup != 0;
          }
        } else if (kind == "basic") {
          shell.policy.adaptive = false;
          shell.policy.primitive = optimizer::PrimitiveStrategy::kBasic;
        } else if (kind == "chain") {
          shell.policy.adaptive = false;
          shell.policy.primitive = optimizer::PrimitiveStrategy::kChain;
        } else if (kind == "freq") {
          shell.policy.adaptive = false;
          shell.policy.primitive =
              optimizer::PrimitiveStrategy::kFrequencyChain;
        } else if (kind == "adaptive") {
          shell.policy.adaptive = true;
          double tw = 1.0, lw = 0.0;
          if (ss >> tw >> lw) {
            shell.policy.objectives = {tw, lw};
          }
        } else if (kind == "workers") {
          int n = 1;
          if (ss >> n && n >= 1) {
            shell.batch_workers = n;
          } else {
            std::cout << "error: policy workers <n>=1>\n";
          }
        } else if (kind == "cache") {
          std::string mode;
          ss >> mode;
          if (mode == "on" || mode == "off") {
            shell.policy.cache.enabled = mode == "on";
            double ttl = 0, hot_ttl = 0;
            std::uint32_t hot = 0;
            std::size_t max_rows = 0;
            if (ss >> ttl >> hot >> hot_ttl >> max_rows) {
              shell.policy.cache.ttl_ms = ttl;
              shell.policy.cache.hot_threshold = hot;
              shell.policy.cache.hot_ttl_ms = hot_ttl;
              shell.policy.cache.max_rows = max_rows;
            }
          } else {
            std::cout << "error: policy cache on|off [ttl hot hot_ttl rows]\n";
          }
        } else {
          std::cout << "error: unknown policy\n";
        }
        if (shell.overlay != nullptr) {
          shell.overlay->configure_caches(shell.policy.cache);
          shell.processor = std::make_unique<dqp::DistributedQueryProcessor>(
              *shell.overlay, shell.policy);
          shell.processor->set_trace(&shell.trace);
        }
        std::cout << "ok\n";
      } else if (cmd == "query") {
        net::NodeAddress addr = 0;
        ss >> addr;
        std::string rest;
        std::getline(ss, rest);
        // Queries may continue over multiple lines until a ';'.
        while (rest.find(';') == std::string::npos &&
               std::getline(in, line)) {
          rest += "\n" + line;
        }
        auto semi = rest.rfind(';');
        if (semi != std::string::npos) rest = rest.substr(0, semi);
        if (shell.ready()) shell.run_query(addr, rest);
      } else if (cmd == "batch") {
        std::vector<net::NodeAddress> addrs;
        net::NodeAddress a = 0;
        while (ss >> a) addrs.push_back(a);
        if (addrs.empty()) {
          std::cout << "error: batch needs at least one initiator address\n";
        } else if (shell.ready()) {
          // Collect one ';'-terminated query per initiator from the
          // following lines.
          std::vector<std::string> queries;
          std::string text;
          while (queries.size() < addrs.size() && std::getline(in, line)) {
            text += line + "\n";
            std::size_t semi = 0;
            while (queries.size() < addrs.size() &&
                   (semi = text.find(';')) != std::string::npos) {
              queries.push_back(text.substr(0, semi));
              text.erase(0, semi + 1);
            }
          }
          if (queries.size() == addrs.size()) {
            shell.run_batch(addrs, queries);
          } else {
            std::cout << "error: expected " << addrs.size()
                      << " ';'-terminated queries\n";
          }
        }
      } else if (cmd == "plan") {
        std::string rest;
        std::getline(ss, rest);
        while (rest.find(';') == std::string::npos && std::getline(in, line)) {
          rest += "\n" + line;
        }
        auto semi = rest.rfind(';');
        if (semi != std::string::npos) rest = rest.substr(0, semi);
        sparql::Query q = sparql::parse_query(rest);
        sparql::AlgebraPtr a = sparql::translate_pattern(q.where);
        if (shell.policy.push_filters) a = optimizer::push_filters(a);
        for (const std::string& l :
             dqp::compile_physical_plan(*a, shell.policy, q.form).to_lines()) {
          std::cout << l << "\n";
        }
      } else if (cmd == "explain") {
        if (shell.ready()) {
          if (!shell.have_query) {
            std::cout << "error: no query yet; run `query` first\n";
          } else {
            std::cout << obs::explain(shell.trace);
          }
        }
      } else if (cmd == "fail-storage") {
        net::NodeAddress addr = 0;
        ss >> addr;
        if (shell.ready()) {
          shell.overlay->storage_node_fail(addr);
          shell.churned = true;
          std::cout << "ok\n";
        }
      } else if (cmd == "fail-index") {
        if (shell.ready()) {
          chord::Key victim = shell.overlay->index_nodes().begin()->first;
          shell.overlay->index_node_fail(victim);
          shell.overlay->repair(0);
          shell.overlay->ring().fix_all_fingers_oracle();
          shell.churned = true;
          std::cout << "index node " << victim << " failed and repaired\n";
        }
      } else if (cmd == "inject") {
        std::string first;
        ss >> first;
        if (first == "list") {
          std::cout << (shell.pending_faults.events().empty()
                            ? std::string("no pending faults\n")
                            : shell.pending_faults.to_string());
        } else if (first == "clear") {
          shell.pending_faults.clear();
          std::cout << "ok\n";
        } else {
          // `inject <at> <kind> [target]` — queued, consumed by `batch`.
          net::SimTime at = 0;
          std::string kind;
          std::istringstream at_ss(first);
          if (!(at_ss >> at) || !(ss >> kind)) {
            std::cout << "error: inject <at> storage-fail|index-fail|recover|"
                         "rejoin|repair [target], or inject list|clear\n";
          } else if (kind == "repair") {
            shell.pending_faults.repair(at);
            std::cout << "ok\n";
          } else if (kind == "index-fail") {
            chord::Key id = 0;
            ss >> id;
            shell.pending_faults.index_fail(at, id);
            std::cout << "ok\n";
          } else {
            net::NodeAddress addr = 0;
            ss >> addr;
            if (kind == "storage-fail") {
              shell.pending_faults.storage_fail(at, addr);
              std::cout << "ok\n";
            } else if (kind == "recover") {
              shell.pending_faults.recover(at, addr);
              std::cout << "ok\n";
            } else if (kind == "rejoin") {
              shell.pending_faults.rejoin(at, addr);
              std::cout << "ok\n";
            } else {
              std::cout << "error: unknown fault kind '" << kind << "'\n";
            }
          }
        }
      } else if (cmd == "audit") {
        std::string mode;
        ss >> mode;
        if (shell.ready()) shell.audit(mode == "converged");
      } else if (cmd == "lint") {
        // The static half of the correctness suite: audit checks the
        // running system, lint checks the source tree it was built from.
#ifdef AHSW_SOURCE_ROOT
        const std::string root = AHSW_SOURCE_ROOT;
#else
        const std::string root = ".";
#endif
        std::cout << lint::lint_tree(root).to_string();
      } else if (cmd == "stats") {
        if (shell.ready()) {
          std::size_t entries = 0;
          for (const auto& [id, ix] : shell.overlay->index_nodes()) {
            entries += ix.table.entry_count();
          }
          std::cout << "index nodes: " << shell.overlay->index_nodes().size()
                    << ", devices: "
                    << shell.overlay->live_storage_addresses().size()
                    << ", shared triples: "
                    << shell.overlay->merged_store().size()
                    << ", location-table entries: " << entries
                    << ", network msgs: "
                    << shell.network->stats().messages << "\n";
        }
      } else if (cmd == "quit" || cmd == "exit") {
        break;
      } else {
        std::cout << "error: unknown command '" << cmd << "' (try help)\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
    if (interactive) std::cout << "ahsw> " << std::flush;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream script(argv[1]);
    if (!script) {
      std::cerr << "cannot open script " << argv[1] << "\n";
      return 1;
    }
    return run(script, /*interactive=*/false);
  }
  return run(std::cin, /*interactive=*/true);
}
