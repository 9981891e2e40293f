// Structured diagnostics for the trace pipeline. Parsers and the
// transformer report problems to a DiagEngine instead of (or before)
// throwing; the engine applies the configured error-recovery policy:
//
//   Strict — every error-severity diagnostic throws tdt::Error
//            (today's fail-fast behaviour).
//   Skip   — malformed input is dropped; the diagnostic is counted and
//            processing resumes at the next record.
//   Repair — like Skip, but the reporting site first attempts a
//            best-effort salvage (e.g. keep a trace line's address and
//            size when only its variable annotation is malformed).
//
// Every diagnostic carries a stable code so runs can be compared and
// tests can assert exact per-code counts. The engine enforces a
// --max-errors cap (a stream producing garbage forever still terminates)
// and renders an end-of-run summary.
//
// Exit-code contract shared by all CLI tools (docs/robustness.md):
//   0 = clean run, 1 = completed with recovered errors, 2 = fatal/usage.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace tdt {

/// How bad one diagnostic is.
enum class DiagSeverity : std::uint8_t {
  Note,     ///< informational; never affects the exit code
  Warning,  ///< suspicious but handled; never affects the exit code
  Error,    ///< malformed input that was dropped or repaired; exit code 1
  Fatal,    ///< unrecoverable under any policy; always throws
};

/// Short lower-case name ("note", "warning", "error", "fatal").
[[nodiscard]] std::string_view to_string(DiagSeverity severity) noexcept;

/// Stable identity of a diagnostic kind.
enum class DiagCode : std::uint8_t {
  // Gleipnir text reader.
  TraceBadLine,       ///< record line unparseable, dropped
  TraceBadMarker,     ///< START/END marker malformed, dropped
  TraceRepairedLine,  ///< record salvaged without its symbol annotation
  TraceIoError,       ///< read failed mid-trace; prefix salvaged
  // din reader.
  DinBadLine,       ///< din line unparseable, dropped
  DinRepairedLine,  ///< din line salvaged with the default access size
  // TDTB binary reader.
  BinBadMagic,       ///< missing TDTB magic (fatal)
  BinBadVersion,     ///< unsupported format version (fatal)
  BinTruncated,      ///< stream ended mid-entry; prefix salvaged
  BinBadVarint,      ///< varint longer than 10 bytes or overflowing 64 bits
  BinFieldOverflow,  ///< varint value too large for its target field
  BinBadSymbol,      ///< reference to an undefined string id
  BinBadTag,         ///< unknown entry tag
  BinStringTooLong,  ///< string definition above the sanity cap
  BinBadFooter,      ///< v2 footer missing or short
  BinCrcMismatch,    ///< v2 footer CRC32 does not match the payload
  BinCountMismatch,  ///< v2 footer record count does not match
  BinBadCodec,       ///< v3 frame names an unknown or unavailable codec
  BinBadIndex,       ///< v3 frame index / container footer is corrupt
  BinFrameCorrupt,   ///< v3 frame failed its CRC or decompression
  // Transformer.
  XformUnmatchedVar,  ///< matched rule but no out mapping; passed through
  XformFailedRecord,  ///< mapping raised an error; passed through
  // Pipeline supervision.
  PipeWorkerStalled,  ///< a worker held a batch past the timeout; recovered
  PipeWorkerFailed,   ///< worker thread threw or exited early; recovered
};

/// Stable short id ("T001", "B003", ...), unique per code.
[[nodiscard]] std::string_view diag_code_id(DiagCode code) noexcept;

/// Human-readable kebab-case name ("trace-bad-line", ...).
[[nodiscard]] std::string_view diag_code_name(DiagCode code) noexcept;

/// Error-recovery policy selected with --on-error.
enum class ErrorPolicy : std::uint8_t { Strict, Skip, Repair };

/// Parses "strict" | "skip" | "repair"; throws Error{Config} otherwise.
[[nodiscard]] ErrorPolicy parse_error_policy(std::string_view text);

/// Name of a policy ("strict", "skip", "repair").
[[nodiscard]] std::string_view to_string(ErrorPolicy policy) noexcept;

/// One reported problem.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::Error;
  DiagCode code = DiagCode::TraceBadLine;
  SourceLoc loc;
  std::string message;

  /// "error T001 (trace-bad-line) at 3:1: ...".
  [[nodiscard]] std::string format() const;
};

/// Collects diagnostics, applies the recovery policy, and renders the
/// end-of-run summary. Thread-compatible (external synchronisation).
class DiagEngine {
 public:
  /// `max_errors` caps error-severity diagnostics before the engine gives
  /// up and throws; 0 means unlimited.
  explicit DiagEngine(ErrorPolicy policy = ErrorPolicy::Strict,
                      std::uint64_t max_errors = kDefaultMaxErrors);

  static constexpr std::uint64_t kDefaultMaxErrors = 100;

  [[nodiscard]] ErrorPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] bool strict() const noexcept {
    return policy_ == ErrorPolicy::Strict;
  }
  [[nodiscard]] bool repair() const noexcept {
    return policy_ == ErrorPolicy::Repair;
  }

  /// Echoes every diagnostic to `os` as it is reported (CLI tools pass
  /// stderr). Pass nullptr to disable. Not owned.
  void set_echo(std::ostream* os) noexcept { echo_ = os; }

  /// Reports one diagnostic. Throws tdt::Error when the severity is
  /// Fatal, when the policy is Strict and the severity is Error, or when
  /// the error count exceeds the cap; otherwise records and returns.
  void report(DiagSeverity severity, DiagCode code, std::string message,
              SourceLoc loc = {});

  /// Count of error-severity diagnostics reported so far.
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }

  /// Count of warning-severity diagnostics reported so far.
  [[nodiscard]] std::uint64_t warnings() const noexcept { return warnings_; }

  /// Per-code counts (all severities).
  [[nodiscard]] const std::map<DiagCode, std::uint64_t>& counts()
      const noexcept {
    return counts_;
  }

  /// Count for one code.
  [[nodiscard]] std::uint64_t count(DiagCode code) const noexcept;

  /// First `retain_cap` diagnostics, verbatim.
  [[nodiscard]] const std::vector<Diagnostic>& retained() const noexcept {
    return retained_;
  }

  /// True when no error-severity diagnostic was reported.
  [[nodiscard]] bool clean() const noexcept { return errors_ == 0; }

  /// Exit code under the shared CLI contract: 0 clean, 1 recovered errors.
  [[nodiscard]] int exit_code() const noexcept { return clean() ? 0 : 1; }

  /// Multi-line end-of-run summary ("diagnostics: 3 errors, 1 warning"
  /// plus a per-code breakdown); empty string when nothing was reported.
  [[nodiscard]] std::string summary() const;

 private:
  ErrorPolicy policy_;
  std::uint64_t max_errors_;
  std::uint64_t errors_ = 0;
  std::uint64_t warnings_ = 0;
  std::uint64_t notes_ = 0;
  std::map<DiagCode, std::uint64_t> counts_;
  std::vector<Diagnostic> retained_;
  std::ostream* echo_ = nullptr;

  static constexpr std::size_t kRetainCap = 64;
};

}  // namespace tdt
