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
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.hpp"
#include "trace/source.hpp"
#include "util/diag.hpp"
#include "util/simd_scan.hpp"

namespace tdt::trace {

/// One parsed trace-file event: either a record or a START/END marker.
struct TraceEvent {
  enum class Kind : std::uint8_t { Record, Start, End };

  Kind kind = Kind::Record;
  TraceRecord record;    // when kind == Record
  std::uint64_t pid = 0; // when kind == Start / End
};

/// Streaming line-by-line parser; blank lines are skipped.
///
/// Ingestion is zero-copy on the steady state: a LineSplitter
/// (trace/source.hpp) cuts the ByteSource's chunks into lines in place —
/// it also owns CRLF handling, the byte count and the torn-read (T004)
/// contract — fields are tokenized in place by the SIMD whitespace
/// classifier (util/simd_scan.hpp), and well-formed records are decoded
/// by a non-throwing fast parser. Any line the fast parser rejects is
/// re-parsed by the original diagnostic-rich path, so error messages,
/// recovery behaviour (--on-error) and exit codes are byte-for-byte
/// identical to the slow path.
///
/// Without a DiagEngine (or with a Strict one) it throws Error{Parse}
/// with the offending line number on malformed input. With a Skip/Repair
/// engine it reports the diagnostic and resyncs to the next line; Repair
/// additionally salvages a record's address/size/function when only the
/// trailing symbol annotation is malformed (the record comes back with
/// Unknown scope, diagnostic T003).
class GleipnirReader {
 public:
  /// Ingestion observability: bytes consumed and which parse path decoded
  /// each record (obs integration; folded into the metrics registry by
  /// trace/stream.cpp).
  struct Counters {
    std::uint64_t bytes = 0;         ///< input bytes consumed (terminators
                                     ///< counted only when present)
    std::uint64_t fast_records = 0;  ///< records decoded by the fast parser
    std::uint64_t slow_records = 0;  ///< records decoded by the slow path
  };

  /// Zero-copy variant: parses `text` in place. `text` must outlive the
  /// reader; nothing is copied or buffered.
  GleipnirReader(TraceContext& ctx, std::string_view text,
                 DiagEngine* diags = nullptr);

  /// Reads from an explicit byte source (see open_trace_byte_source).
  GleipnirReader(TraceContext& ctx, std::unique_ptr<ByteSource> source,
                 DiagEngine* diags = nullptr);

  /// Returns the next event, or nullopt at end of input.
  std::optional<TraceEvent> next();

  /// Appends up to `max` records to `out` and returns how many were
  /// produced; 0 means end of input. START/END markers are consumed and
  /// validated inline (the first START's pid lands in start_pid()), and
  /// diagnostics/recovery behave exactly as with next(). This is the
  /// bulk ingest entry point: records decode straight into the batch
  /// storage, with no per-record TraceEvent staging.
  std::size_t next_batch(std::vector<TraceRecord>& out, std::size_t max);

  /// True once a START marker was consumed (by next() or next_batch()).
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

  /// Disables the fast record parser so every line goes through the
  /// original allocating path. Benchmark / equivalence-test hook; the two
  /// paths must produce identical events, diagnostics and errors.
  void force_slow_parse(bool v) noexcept { force_slow_ = v; }

  /// Parses a single record line (no START/END handling). Exposed for
  /// tests and the diff tool. Always throws on malformed input.
  static TraceRecord parse_record_line(TraceContext& ctx,
                                       std::string_view line,
                                       std::uint32_t line_number = 0);

  /// Non-throwing fast twin of parse_record_line: returns false on any
  /// line it cannot decode (caller falls back to parse_record_line for
  /// the authoritative error). Accepts exactly the lines
  /// parse_record_line accepts and produces the identical record.
  static bool parse_record_fast(TraceContext& ctx, std::string_view line,
                                TraceRecord& out);

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

  /// What one non-blank line turned into.
  enum class LineOutcome : std::uint8_t {
    Record,  ///< ev.record holds a decoded record
    Marker,  ///< ev holds a START/END event
    Skip,    ///< line was dropped (diagnostic reported); resync
  };

  /// Whole-line memo probe, hoisted out of parse_record_fast_impl so a
  /// hit (the steady state: a loop's scalar accesses repeat byte for
  /// byte) never pays the full parser's call overhead.
  [[nodiscard]] bool probe_line_memo(std::string_view line, TraceRecord& out);

  /// Full fast parse. Does NOT probe the line memo (callers do that
  /// first); uses `memo` for the function/variable/walk memos and to
  /// remember the parsed line.
  static bool parse_record_fast_impl(TraceContext& ctx, std::string_view line,
                                     TraceRecord& out, ParseMemo* memo,
                                     simd::TokenizeFieldsFn tokenize);
  /// Best-effort salvage of the first four fields (kind, address, size,
  /// function); nullopt when even those are malformed.
  static std::optional<TraceRecord> salvage_record_line(TraceContext& ctx,
                                                        std::string_view line);

  /// Everything off the fast path: markers, slow re-parse, diagnostics.
  LineOutcome consume_cold(std::string_view body, TraceEvent& ev);

  TraceContext* ctx_;
  DiagEngine* diags_;
  LineSplitter lines_;
  // Active-tier tokenizer, resolved once at construction so the per-line
  // calls skip the dispatch lookup.
  simd::TokenizeFieldsFn tokenize_;
  bool force_slow_ = false;
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
