#include "lint/effects.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/strings.hpp"

namespace ahsw::lint {

using common::json_escape;

namespace {

[[nodiscard]] std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  });
  return out;
}

[[nodiscard]] bool contains_ci(std::string_view hay, std::string_view needle) {
  return lower(hay).find(lower(needle)) != std::string::npos;
}

/// `key=value` attribute inside a spec declaration head, "" when absent.
[[nodiscard]] std::string attr_of(const std::vector<std::string_view>& words,
                                  std::string_view key) {
  std::string prefix = std::string(key) + "=";
  for (std::string_view w : words) {
    if (common::starts_with(w, prefix)) {
      return std::string(w.substr(prefix.size()));
    }
  }
  return "";
}

[[nodiscard]] bool has_word(const std::vector<std::string_view>& words,
                            std::string_view word) {
  return std::find(words.begin(), words.end(), word) != words.end();
}

[[nodiscard]] std::string path_arrows(const std::vector<std::string>& path) {
  std::string out;
  for (const std::string& p : path) {
    if (!out.empty()) out += " -> ";
    out += p;
  }
  return out;
}

}  // namespace

SharedStateSpec SharedStateSpec::parse(std::string_view text,
                                       std::vector<std::string>* errors) {
  SharedStateSpec spec;
  int lineno = 0;
  auto fail = [errors, &lineno](const std::string& what) {
    if (errors != nullptr) {
      errors->push_back("shared-state spec line " + std::to_string(lineno) +
                        ": " + what);
    }
  };
  for (std::string_view raw : common::split(text, '\n')) {
    ++lineno;
    std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    std::string_view line = common::trim(raw);
    if (line.empty()) continue;

    // Split `head[: tail]`.
    std::size_t colon = line.find(':');
    // A qualified function name contains `::`; find a colon that is not
    // part of one.
    while (colon != std::string_view::npos && colon + 1 < line.size() &&
           line[colon + 1] == ':') {
      colon = line.find(':', colon + 2);
    }
    std::string_view head = colon == std::string_view::npos
                                ? line
                                : common::trim(line.substr(0, colon));
    std::string_view tail = colon == std::string_view::npos
                                ? std::string_view{}
                                : common::trim(line.substr(colon + 1));
    std::vector<std::string_view> words;
    for (std::string_view w : common::split(head, ' ')) {
      w = common::trim(w);
      if (!w.empty()) words.push_back(w);
    }
    if (words.empty()) continue;
    std::string_view kind = words[0];

    if (kind == "root") {
      if (words.size() != 2) {
        fail("expected `root <Function>`");
        continue;
      }
      spec.roots.emplace_back(words[1]);
    } else if (kind == "state") {
      if (words.size() < 2 || colon == std::string_view::npos) {
        fail("expected `state <Name> home=... hints=...: <mutators>`");
        continue;
      }
      SharedStateDecl st;
      st.name = std::string(words[1]);
      st.home = attr_of(words, "home");
      // split() returns views into its argument, so the attribute must
      // outlive the loop (home= and scope= are copied or compared at once).
      const std::string hints = attr_of(words, "hints");
      for (std::string_view h : common::split(hints, ',')) {
        h = common::trim(h);
        if (!h.empty()) st.hints.emplace_back(h);
      }
      st.global = attr_of(words, "scope") != "dispatch";
      for (std::string_view m : common::split(tail, ' ')) {
        m = common::trim(m);
        if (!m.empty()) st.mutators.insert(std::string(m));
      }
      if (st.home.empty() || st.mutators.empty()) {
        fail("state '" + st.name + "' needs home= and at least one mutator");
        continue;
      }
      spec.states.push_back(std::move(st));
    } else if (kind == "surface") {
      if (words.size() < 3 || colon == std::string_view::npos) {
        fail("expected `surface <Function> state=<Name> [dispatch]: <why>`");
        continue;
      }
      SurfaceDecl sf;
      sf.function = std::string(words[1]);
      sf.state = attr_of(words, "state");
      sf.dispatch = has_word(words, "dispatch");
      sf.shard = attr_of(words, "shard");
      sf.merge = attr_of(words, "merge");
      sf.why = std::string(tail);
      if (sf.state.empty() || sf.why.empty()) {
        fail("surface '" + sf.function +
             "' needs state= and a justification after ':'");
        continue;
      }
      if (!sf.shard.empty() && !sf.merge.empty()) {
        fail("surface '" + sf.function +
             "' declares both shard= and merge=; pick one discipline");
        continue;
      }
      spec.surfaces.push_back(std::move(sf));
    } else if (kind == "singleton") {
      if (words.size() != 2 || colon == std::string_view::npos ||
          tail.empty()) {
        fail("expected `singleton <name>: <why>`");
        continue;
      }
      spec.singletons.insert(std::string(words[1]));
    } else {
      fail("unknown declaration '" + std::string(kind) + "'");
    }
  }
  return spec;
}

const SurfaceDecl* SharedStateSpec::surface_for(std::string_view function,
                                                std::string_view state) const {
  for (const SurfaceDecl& s : surfaces) {
    if (s.function == function && s.state == state) return &s;
  }
  return nullptr;
}

EffectsReport analyze_effects(const std::vector<SourceFile>& files,
                              const SharedStateSpec& spec,
                              const LayerSpec& layers) {
  EffectsReport report;
  const SymbolTable table = SymbolTable::build(files);
  const CallGraph graph = CallGraph::resolve(table, layers);

  std::vector<std::size_t> roots;
  for (const std::string& r : spec.roots) {
    for (std::size_t idx : table.find(r)) roots.push_back(idx);
    report.roots.push_back(r);
  }
  const std::vector<std::size_t> parent = graph.reach(roots);
  // Shortest call path root -> ... -> fn.
  auto path_to = [&](std::size_t fn) {
    std::vector<std::string> path;
    for (std::size_t u = fn;; u = parent[u]) {
      path.push_back(table.functions[u].qualified());
      if (parent[u] == u) break;
    }
    std::reverse(path.begin(), path.end());
    return path;
  };

  for (std::size_t fi = 0; fi < table.functions.size(); ++fi) {
    const FunctionDef& fn = table.functions[fi];
    if (!common::starts_with(fn.file, "src/")) continue;
    const bool reachable = parent[fi] != kNoFunction;
    for (const CallSite& call : fn.calls) {
      for (const SharedStateDecl& st : spec.states) {
        if (st.mutators.count(call.name) == 0) continue;
        bool matched = false;
        if (call.member) {
          for (const std::string& ident : call.receiver) {
            for (const std::string& hint : st.hints) {
              if (contains_ci(ident, hint)) matched = true;
            }
          }
        } else if (!call.qualifier.empty() && call.qualifier == st.name) {
          matched = true;
        }
        if (!matched) continue;
        if (common::starts_with(fn.file, st.home)) continue;  // self-mutation

        TouchPoint tp;
        tp.state = st.name;
        tp.mutator = call.name;
        tp.function = fn.qualified();
        tp.file = fn.file;
        tp.line = call.line;
        // A surface declaration covers the touch either way round: the
        // enclosing function is sanctioned to mutate, or the mutator method
        // itself is the declared sync surface (e.g. Network::send — the
        // accounting layer is the synchronization point, wherever called).
        const SurfaceDecl* surface = spec.surface_for(tp.function, st.name);
        if (surface == nullptr) {
          surface = spec.surface_for(st.name + "::" + call.name, st.name);
        }
        tp.declared = surface != nullptr;
        tp.dispatch = surface != nullptr && surface->dispatch;
        tp.reachable = reachable;
        if (reachable) tp.path = path_to(fi);

        if (!tp.declared && st.global) {
          report.diagnostics.push_back(Diagnostic{
              "P1", fn.file, call.line,
              "shared state '" + st.name + "' mutated via '" + call.name +
                  "' in " + tp.function +
                  ", which is not a declared sync surface; declare "
                  "`surface " + tp.function + " state=" + st.name +
                  "` with a justification in tools/ahsw_shared_state.spec"});
        }
        if (reachable && !tp.dispatch) {
          report.diagnostics.push_back(Diagnostic{
              "P2", fn.file, call.line,
              "shared state '" + st.name + "' mutated via '" + call.name +
                  "' on a dispatch path (" + path_arrows(tp.path) +
                  "); the parallel driver cannot partition this unless the "
                  "surface is declared dispatch-safe in "
                  "tools/ahsw_shared_state.spec"});
        }
        report.touches.push_back(std::move(tp));
      }
    }
  }

  for (const auto& [file, decls] : table.statics) {
    if (!common::starts_with(file, "src/")) continue;
    for (const StaticDecl& d : decls) {
      if (spec.singletons.count(d.name) > 0) continue;
      report.diagnostics.push_back(Diagnostic{
          "P3", file, d.line,
          std::string(d.local ? "function-local static '"
                              : "non-const static/global '") +
              d.name +
              "' is undeclared shared mutable state; make it const, thread "
              "it explicitly, or declare `singleton " + d.name +
              "` with a justification in tools/ahsw_shared_state.spec"});
    }
  }

  std::sort(report.touches.begin(), report.touches.end(),
            [](const TouchPoint& a, const TouchPoint& b) {
              auto key = [](const TouchPoint& t) {
                return std::tie(t.state, t.file, t.function, t.mutator,
                                t.line);
              };
              return key(a) < key(b);
            });
  return report;
}

std::string EffectsReport::ledger_json(const SharedStateSpec& spec) const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"ahsw-effects\",\n";
  out << "  \"schema_version\": " << kEffectsSchemaVersion << ",\n";
  out << "  \"roots\": [";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(roots[i]) << "\"";
  }
  out << "],\n";
  out << "  \"states\": [";
  for (std::size_t i = 0; i < spec.states.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(spec.states[i].name)
        << "\"";
  }
  out << "],\n";
  out << "  \"touch_points\": [";
  // Line-less and deduplicated: the committed baseline must only change
  // when the shared surface itself changes, not when a file shifts lines.
  std::string prev_key;
  bool first = true;
  for (const TouchPoint& t : touches) {
    std::string key = t.state + "\x1f" + t.file + "\x1f" + t.function +
                      "\x1f" + t.mutator;
    if (key == prev_key) continue;
    prev_key = key;
    out << (first ? "\n" : ",\n");
    out << "    {\"state\": \"" << json_escape(t.state) << "\", \"mutator\": \""
        << json_escape(t.mutator) << "\", \"function\": \""
        << json_escape(t.function) << "\", \"file\": \""
        << json_escape(t.file) << "\", \"declared\": "
        << (t.declared ? "true" : "false")
        << ", \"dispatch\": " << (t.dispatch ? "true" : "false")
        << ", \"reachable\": " << (t.reachable ? "true" : "false")
        << ", \"path\": [";
    for (std::size_t i = 0; i < t.path.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << json_escape(t.path[i]) << "\"";
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n";
  out << "}\n";
  return out.str();
}

}  // namespace ahsw::lint
