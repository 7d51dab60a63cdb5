// The process-wide audit switch, read from the AHSW_AUDIT environment
// variable. It arms the invariant auditor's hooks in stress tests and
// benchmarks (src/check) and makes HybridOverlay::repair check its replica
// sync guard by running the merges it would skip.
#pragma once

namespace ahsw::common {

/// True when the AHSW_AUDIT environment variable asks for audits
/// ("1"/"ON"/"on"/"true"/...; "0"/"OFF"/"false"/unset disable). Read once.
[[nodiscard]] bool audit_enabled();

}  // namespace ahsw::common
