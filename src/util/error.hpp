// Error type used throughout tdt for recoverable failures (parse errors,
// bad configuration, malformed rule files). Carries an error kind, a
// human-readable message, and an optional source location (file:line:col)
// within the input being parsed.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tdt {

/// Broad classification of recoverable errors.
enum class ErrorKind : std::uint8_t {
  Parse,      ///< malformed textual input (trace file, rule file, declaration)
  Config,     ///< invalid configuration value (cache geometry, CLI flag)
  Semantic,   ///< structurally valid input with inconsistent meaning
  Io,         ///< file could not be opened / read / written
  Resource,   ///< resource limit exhausted (--max-memory budget)
  Internal,   ///< invariant violation that should never happen
};

/// Returns a short lower-case name for an error kind ("parse", "config", ...).
std::string_view to_string(ErrorKind kind) noexcept;

/// Location inside a textual input, 1-based. line == 0 means "unknown".
struct SourceLoc {
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  [[nodiscard]] bool known() const noexcept { return line != 0; }
  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// Exception thrown for all recoverable tdt errors.
///
/// The `what()` string is pre-formatted as
/// `"<kind> error[ at <line>:<col>]: <message>"`.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, std::string message, SourceLoc loc = {});

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] const SourceLoc& where() const noexcept { return loc_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

 private:
  ErrorKind kind_;
  SourceLoc loc_;
  std::string message_;
};

/// Throws Error{ErrorKind::Parse, ...} with location info.
[[noreturn]] void throw_parse_error(std::string message, SourceLoc loc = {});

/// Throws Error{ErrorKind::Config, ...}.
[[noreturn]] void throw_config_error(std::string message);

/// Throws Error{ErrorKind::Semantic, ...}.
[[noreturn]] void throw_semantic_error(std::string message, SourceLoc loc = {});

/// Throws Error{ErrorKind::Io, ...}.
[[noreturn]] void throw_io_error(std::string message);

/// Checks an internal invariant; throws Error{ErrorKind::Internal} when
/// `condition` is false. Used where a failed check indicates a tdt bug
/// rather than bad user input.
void internal_check(bool condition, std::string_view what);

}  // namespace tdt
