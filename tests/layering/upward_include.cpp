// The probe of the ctest build.upward_include_fails, compiled with only
// ahsw_net's include directories. net links common, rdf and sparql, so the
// first include resolves; dqp sits above net, so the second must not be
// found. The test passes only when the compiler names that second header
// as missing.
#include "net/network.hpp"
#include "dqp/executor.hpp"
