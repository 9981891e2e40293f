// Shared CLI option handling for the tools (gtracer, dinerosim,
// tracediff, traceinfo, tdtune, tdtd). One place registers the common
// flag block — --on-error/--max-errors, --metrics-json/--trace-spans/
// --progress, --jobs — so spellings, help text, and defaults cannot
// drift between tools, and one place implements the exit-code contract
// (docs/robustness.md): 0 = clean, 1 = completed with recovered errors,
// 2 = fatal/usage.
//
// Since the tdtd redesign, every tool body is a ToolSpec: a function of
// (ToolIO, argc, argv) that never names stdout/stderr directly. run_tool
// picks the backend — the local pipeline against the process streams,
// or, when --connect <socket> is given, a daemon Session that runs the
// identical body server-side and relays captured bytes — so both paths
// are byte-identical by construction (docs/SERVICE.md).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "cache/page_map.hpp"
#include "cache/sim.hpp"
#include "cache/sweep.hpp"
#include "service/io.hpp"
#include "trace/binary.hpp"
#include "util/diag.hpp"
#include "util/flags.hpp"
#include "util/governor.hpp"
#include "util/obs.hpp"

namespace tdt::tools {

/// Which optional members of the common flag block a tool registers.
struct CommonFlagChoices {
  bool error_policy = true;  ///< --on-error / --max-errors
  bool jobs = false;         ///< --jobs (pipeline tools)
  bool governor = false;     ///< --max-memory / --deadline (streaming tools)
  bool compress = false;     ///< --compress (TDTB-writing tools)
  bool connect = true;       ///< --connect (daemon-routable tools)
};

/// The shared flag block. Register with add() before FlagParser::parse;
/// the common flags are registered last so every tool's --help ends with
/// the same block in the same order.
struct CommonFlags {
  const std::string* on_error = nullptr;
  const std::uint64_t* max_errors = nullptr;
  const std::uint64_t* jobs = nullptr;
  const std::string* max_memory = nullptr;
  const std::string* deadline = nullptr;
  const std::string* compress = nullptr;
  const std::string* fault_spec = nullptr;
  const std::string* metrics_json = nullptr;
  const std::string* trace_spans = nullptr;
  const bool* progress = nullptr;

  static CommonFlags add(FlagParser& flags, CommonFlagChoices choices = {});

  /// Builds the DiagEngine from --on-error/--max-errors with its echo on
  /// `echo` (the tool's error stream, io.errs). Only valid when
  /// error_policy flags were registered.
  [[nodiscard]] DiagEngine make_diags(std::ostream* echo) const;

  /// Arms the process-global fault injector: TDT_FAULT_SPEC first, then
  /// --fault-spec on top when given (the flag wins). Call once, before
  /// any trace I/O or pipeline threads. Throws Error{Config} on a bad
  /// spec.
  void arm_faults() const;

  /// True when --compress was registered and given a value (the tool
  /// should write the TDTB v3 framed container).
  [[nodiscard]] bool wants_compress() const {
    return compress != nullptr && !compress->empty();
  }

  /// Binary-writer options from --compress and --jobs: the flag absent
  /// or empty yields the plain v2 default; `zstd|lz4|none[:level]`
  /// selects the v3 framed container with that frame codec, and --jobs
  /// above 1 lets the writer compress frames on its own thread. Throws
  /// Error{Config} on an unknown codec or malformed level (availability
  /// is checked by the writer so its error can name the remedy).
  [[nodiscard]] trace::BinaryWriterOptions writer_options() const;

  /// Applies --max-memory/--deadline to `governor`. Only valid when the
  /// governor flags were registered.
  void configure(Governor& governor) const;

  /// True when any metrics export was requested (the tool should build an
  /// obs::Registry).
  [[nodiscard]] bool wants_registry() const {
    return !metrics_json->empty() || !trace_spans->empty();
  }

  /// Sets the process.peak_rss_bytes and process.cpu_seconds gauges from
  /// getrusage(RUSAGE_SELF), then writes the requested export files;
  /// empty paths are skipped. Under tdtd the process is the daemon.
  void write(obs::Registry& registry) const;
};

/// The cache-geometry flag block shared by dinerosim and tdtune: L1
/// geometry and policies, optional L2, virtual->physical page mapping,
/// and the Modify-handling switch. Canonical spelling for the
/// replacement policy is --repl (matching the sweep-spec key); its old
/// deprecated alias has been removed after the one-release warning
/// window (docs/RULES.md).
struct CacheFlags {
  const std::uint64_t* size = nullptr;
  const std::uint64_t* block = nullptr;
  const std::uint64_t* assoc = nullptr;
  const std::string* repl = nullptr;
  const std::string* prefetch = nullptr;
  const std::uint64_t* l2_size = nullptr;
  const std::uint64_t* l2_assoc = nullptr;
  const std::uint64_t* l2_block = nullptr;
  const std::string* page_policy = nullptr;
  const std::uint64_t* page_size = nullptr;
  const std::uint64_t* page_frames = nullptr;
  const std::uint64_t* page_seed = nullptr;
  const bool* modify_rw = nullptr;

  static CacheFlags add(FlagParser& flags);

  /// L1 geometry without policies (matches the old dinerosim behaviour of
  /// applying --repl/--prefetch only where they are meaningful).
  [[nodiscard]] cache::CacheConfig l1_geometry() const;

  /// L1 geometry plus replacement/prefetch policies.
  [[nodiscard]] cache::CacheConfig l1() const;

  /// The optional L2 level; empty when --l2-size is 0.
  [[nodiscard]] std::vector<cache::CacheConfig> extra_levels() const;

  [[nodiscard]] cache::PagePolicy parsed_page_policy() const;
  [[nodiscard]] cache::PageMapSpec page_spec() const;
  [[nodiscard]] cache::SimOptions sim_options() const;
};

/// Parses "lru" | "fifo" | "random" | "rr" | "round-robin".
[[nodiscard]] cache::ReplacementPolicy parse_replacement(
    const std::string& text);

/// Parses "identity" | "first-touch" | "random".
[[nodiscard]] cache::PagePolicy parse_page_policy(const std::string& text);

/// Parses a byte count with an optional k/m/g suffix (binary units,
/// case-insensitive): "64m" -> 67108864, "4096" -> 4096. Throws
/// Error{Config} on anything else; 0 means "unlimited".
[[nodiscard]] std::uint64_t parse_byte_size(const std::string& text,
                                            const char* flag);

/// Parses a non-negative duration in seconds ("2.5", "0"). Throws
/// Error{Config} on anything else.
[[nodiscard]] double parse_seconds(const std::string& text, const char* flag);

/// The exit-code contract's degraded rung: a run that completed but lost
/// something on the way — a recovered worker, a deadline-truncated
/// stream — must exit at least 1 even when the diag engine is clean.
[[nodiscard]] inline int finalize_exit(int diag_exit, bool degraded) noexcept {
  return degraded && diag_exit < 1 ? 1 : diag_exit;
}

/// One tool's identity and body, the unit run_tool dispatches on.
struct ToolSpec {
  const char* name;    ///< diagnostic prefix ("dinerosim")
  /// The tdt-rpc/1 op a daemon serves this tool as; nullptr for tools
  /// that only run locally (gtracer writes trace files where it runs).
  const char* rpc_op;
  /// The tool body. All output must go through `io` — that is the whole
  /// contract that makes a daemon-served run byte-identical.
  int (*run)(const service::ToolIO& io, int argc, char** argv);
};

/// Runs `body` against `io` under the shared fatal-error contract: a
/// tdt::Error escaping it prints "<tool>: <message>" on io.err and
/// yields exit code 2; after the body, io.out is flushed and checked —
/// a failed write (EPIPE, ENOSPC) prints a diagnostic on io.err and
/// yields exit code 2. Both run_tool backends and the tdtd worker wrap
/// tool bodies in exactly this, so failure output cannot drift between
/// them.
int run_tool_body(const char* tool, const service::ToolIO& io,
                  const std::function<int()>& body);

/// Every tool's main() is one line of this. Picks the backend: without
/// --connect, runs spec.run locally against the process streams
/// (SIGPIPE ignored so a downstream `head -1` surfaces as a stream
/// error instead of killing the process). With --connect <socket>, the
/// flag is stripped from argv, the remaining arguments travel to the
/// tdtd daemon as op spec.rpc_op, and the reply's captured
/// stdout/stderr bytes and exit code are relayed verbatim.
int run_tool(const ToolSpec& spec, int argc, char** argv);

/// Prints each warning as "<tool>: warning: <text>" on `err`.
void print_warnings(std::FILE* err, const char* tool,
                    const std::vector<std::string>& warnings);

}  // namespace tdt::tools
