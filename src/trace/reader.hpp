// Reader for the Gleipnir textual trace format (paper Listing 2):
//
//   START PID 13063
//   S 7ff0001b0 8 main LV 0 1 _zzq_result
//   L 7ff0001b0 8 main
//   S 000601040 4 main GV glScalar
//   ...
//   END PID 13063
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.hpp"
#include "trace/source.hpp"
#include "util/diag.hpp"
#include "util/simd_scan.hpp"

namespace tdt::trace {

/// Streaming line-by-line parser; blank lines are skipped.
///
/// Ingestion is zero-copy on the steady state: a LineSplitter
/// (trace/source.hpp) cuts the ByteSource's chunks into lines in place —
/// it also owns CRLF handling, the byte count and the torn-read (T004)
/// contract — fields are tokenized in place by the SIMD whitespace
/// classifier (util/simd_scan.hpp), and each record line is decoded by
/// one non-throwing parser. A line it rejects comes back as the check
/// that failed and the field it failed on; only then, off the hot loop,
/// is a message formatted and the error policy applied.
///
/// Without a DiagEngine (or with a Strict one) a rejected line throws
/// Error{Parse} with the offending line number. With a Skip engine it
/// reports T001 and resyncs at the next line. A Repair engine first
/// salvages a line whose fault lies in its symbol annotation — the scope
/// check or later — and whose function is an identifier: the record
/// keeps its kind, address, size and function and comes back with
/// Unknown scope (T003).
class GleipnirReader {
 public:
  /// Ingestion observability: bytes consumed and how each record came
  /// out (folded into the metrics registry as read.bytes,
  /// read.fast_parses and read.slow_parses by trace/stream.cpp).
  struct Counters {
    std::uint64_t bytes = 0;         ///< input bytes consumed (terminators
                                     ///< counted only when present)
    std::uint64_t fast_records = 0;  ///< records the parser decoded
    std::uint64_t slow_records = 0;  ///< records repair salvaged
  };

  /// Zero-copy variant: parses `text` in place. `text` must outlive the
  /// reader; nothing is copied or buffered.
  GleipnirReader(TraceContext& ctx, std::string_view text,
                 DiagEngine* diags = nullptr);

  /// Reads from an explicit byte source (see open_trace_byte_source).
  GleipnirReader(TraceContext& ctx, std::unique_ptr<ByteSource> source,
                 DiagEngine* diags = nullptr);

  /// Appends up to `max` records to `out` and returns how many were
  /// produced; 0 means end of input. START/END markers are consumed and
  /// validated inline (the first START's pid lands in start_pid()).
  /// Records decode straight into the batch storage.
  std::size_t next_batch(std::vector<TraceRecord>& out, std::size_t max);

  /// True once a START marker was consumed.
  [[nodiscard]] bool saw_start() const noexcept { return saw_start_; }

  /// Pid of the first START marker; valid when saw_start().
  [[nodiscard]] std::uint64_t start_pid() const noexcept { return start_pid_; }

  /// 1-based number of the line most recently consumed.
  [[nodiscard]] std::uint32_t line_number() const noexcept {
    return lines_.line_number();
  }

  /// Running ingestion counters (valid at any point during the read).
  [[nodiscard]] Counters counters() const noexcept {
    return {lines_.bytes(), fast_records_, slow_records_};
  }

 private:
  /// Single-reader parse memo exploiting trace locality: consecutive
  /// lines almost always share their function name, and a scalar's
  /// variable text ("lI") repeats verbatim between the interesting
  /// accesses. A hit skips the hash lookup (function) or the whole
  /// selector-chain parse (variable). Parsing is a pure function of the
  /// line text once its strings are interned, and a memo entry is only
  /// written after a successful parse, so memoized and unmemoized runs
  /// produce identical records and identical pool states.
  struct ParseMemo {
    /// Whole-line memo: a loop scalar's access lines repeat byte for byte
    /// (same address, frame, thread, text), so the full record can be
    /// replayed from one string compare. Four ways cover the typical
    /// steady state: load + modify of the loop counter plus the two array
    /// accesses of the current iteration.
    struct LineEntry {
      std::string text;
      TraceRecord record;
    };
    LineEntry lines[4];
    std::uint32_t next_line = 0;
    std::uint32_t mru_line = 0;  ///< slot of the most recent hit, probed first

    std::string function;
    Symbol function_sym;
    struct VarEntry {
      std::string text;
      VarRef var;
    };
    VarEntry vars[2];  // two-way: a scalar alternating with an array walk
    std::uint32_t next_var = 0;

    /// Array-walk memo: consecutive accesses "mX[0] mX[1] mX[2] ..."
    /// share everything up to the final index, so on a prefix hit only
    /// the index digits are re-parsed and the interned base/field
    /// symbols are reused. `var`'s last step is always an index step.
    /// Two ways: parallel-array walks (SoA mX/mY) alternate prefixes.
    struct WalkEntry {
      std::string prefix;  ///< variable text through the final '['
      VarRef var;
    };
    WalkEntry walks[2];
    std::uint32_t next_walk = 0;
  };

  /// Why parse_record rejected a line: the first check that failed, in
  /// the order the parser makes them, and the field it failed on.
  struct LineFault {
    enum class Check : std::uint8_t {
      None,            ///< the line decoded
      FieldCount,      ///< fewer than 4 fields
      Kind,            ///< field 0 is not an access kind
      Address,         ///< field 1 is not a hex address
      Size,            ///< field 2 is not a size in [1, 2^32)
      Scope,           ///< field 4 is not a scope; the symbol annotation
                       ///< starts here, and repair salvages from here on
      LocalFields,     ///< local scope with fewer than 8 fields
      FrameThread,     ///< frame or thread is not a 16-bit number
      MissingVar,      ///< global scope with no variable after it
      TrailingFields,  ///< more fields after the variable
      Var,             ///< the variable reference; `var` says why
    };
    Check check = Check::None;
    std::uint8_t fields = 0;  ///< fields on the line (FieldCount)
    VarFault var;             ///< why the variable failed (Var)
    /// The field a message quotes (Kind, Address, Size, Scope, Var), as
    /// offsets into the line.
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    [[nodiscard]] bool ok() const noexcept { return check == Check::None; }

    /// The parse error message for `line`, the line that failed.
    [[nodiscard]] std::string message(std::string_view line) const;
  };

  /// Whole-line memo probe, hoisted out of parse_record so a hit (the
  /// steady state: a loop's scalar accesses repeat byte for byte) never
  /// pays the full parser's call overhead.
  [[nodiscard]] bool probe_line_memo(std::string_view line, TraceRecord& out);

  /// The record-line parser. Decodes `line` into `out`, which must hold
  /// a default TraceRecord. Does NOT probe the line memo (callers do that
  /// first); uses `memo` for the function/variable/walk memos and to
  /// remember the parsed line. On a rejected line `out` holds whatever
  /// was decoded before the failed check.
  static LineFault parse_record(TraceContext& ctx, std::string_view line,
                                TraceRecord& out, ParseMemo& memo,
                                simd::TokenizeFieldsFn tokenize);

  /// Everything off the hot loop for a line parse_record rejected:
  /// markers, messages and the error policy. Returns true when `rec`
  /// holds a salvaged record; otherwise `rec` is reset to a default one.
  bool consume_cold(std::string_view body, const LineFault& fault,
                    TraceRecord& rec);

  TraceContext* ctx_;
  DiagEngine* diags_;
  LineSplitter lines_;
  // Active-tier tokenizer, resolved once at construction so the per-line
  // calls skip the dispatch lookup.
  simd::TokenizeFieldsFn tokenize_;
  std::uint64_t fast_records_ = 0;
  std::uint64_t slow_records_ = 0;
  ParseMemo memo_;
  bool saw_start_ = false;
  std::uint64_t start_pid_ = 0;
};

/// Reads every record of an in-memory trace text without copying it into
/// a stream. START/END markers are validated and dropped; the first
/// START's pid is stored in *pid when non-null. `diags` selects the
/// recovery policy (nullptr = strict).
std::vector<TraceRecord> read_trace_string(TraceContext& ctx,
                                           std::string_view text,
                                           std::uint64_t* pid = nullptr,
                                           DiagEngine* diags = nullptr);

/// Reads a trace file from disk through open_trace_byte_source. Throws
/// Error{Io} when the file cannot be opened.
std::vector<TraceRecord> read_trace_file(TraceContext& ctx,
                                         const std::string& path,
                                         std::uint64_t* pid = nullptr,
                                         DiagEngine* diags = nullptr);

}  // namespace tdt::trace
