// Public facade: shared utilities.
//
// Error model (tdt::Error), structured diagnostics with the error-
// recovery policies (tdt::DiagEngine, docs/robustness.md), the CLI flag
// parser, text tables, the observability registry with its exporters
// (docs/OBSERVABILITY.md), deterministic fault injection
// (tdt::fault::FaultInjector), resource governance (tdt::Budget /
// tdt::Governor), and checked whole-file output (tdt::write_file).
#pragma once

#include "util/crc32.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/file_util.hpp"
#include "util/flags.hpp"
#include "util/governor.hpp"
#include "util/obs.hpp"
#include "util/table.hpp"

// DiagEngine, Error, FlagParser, TextTable, obs::Registry,
// fault::FaultInjector, Budget, Governor, and write_file already live in
// namespace tdt / tdt::obs / tdt::fault; nothing to re-export.
