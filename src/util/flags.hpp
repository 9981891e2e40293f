// Minimal declarative CLI flag parser for the tools (gtracer, dinerosim,
// tracediff, traceinfo). Supports --name value, --name=value, boolean
// switches, and positional arguments; generates --help text.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tdt {

/// Declarative command-line parser.
///
///   FlagParser p("dinerosim", "Trace-driven cache simulator");
///   auto trace  = p.add_string("trace", "", "input trace file");
///   auto warm   = p.add_bool("warm", false, "skip cold-start stats");
///   auto size   = p.add_uint("cache-size", 32768, "total bytes");
///   p.parse(argc, argv);            // throws tdt::Error on bad input
///   use(*trace, *warm, *size);
///
/// The returned pointers stay owned by the parser and are filled in by
/// parse(); they remain valid for the parser's lifetime.
class FlagParser {
 public:
  FlagParser(std::string program, std::string description);

  /// Registers a string-valued flag; returns pointer to the parsed value.
  const std::string* add_string(std::string name, std::string default_value,
                                std::string help);

  /// Registers an unsigned integer flag (accepts decimal or 0x hex).
  const std::uint64_t* add_uint(std::string name, std::uint64_t default_value,
                                std::string help);

  /// Registers a signed integer flag.
  const std::int64_t* add_int(std::string name, std::int64_t default_value,
                              std::string help);

  /// Registers a boolean switch (`--name` sets true, `--name=false` clears).
  const bool* add_bool(std::string name, bool default_value, std::string help);

  /// Redirects the --help usage parse() prints (default stdout). Tools
  /// set it to their ToolIO stream so a daemon-served run captures the
  /// same bytes a standalone run would print.
  void set_output(std::FILE* out) noexcept { out_ = out; }

  /// Parses argv. Throws Error{Config} on unknown flags or bad values.
  /// Returns false (after printing usage to the out stream) when --help
  /// was given.
  bool parse(int argc, const char* const* argv);

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Renders the --help text.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { String, Uint, Int, Bool };

  struct Flag {
    std::string name;
    Kind kind;
    std::string help;
    std::string default_repr;
    std::string str_value;
    std::uint64_t uint_value = 0;
    std::int64_t int_value = 0;
    bool bool_value = false;
  };

  Flag* find(std::string_view name);
  static void assign(Flag& flag, std::string_view value);

  std::string program_;
  std::string description_;
  std::FILE* out_ = stdout;
  // deque-like stability not needed: we hand out pointers into flags_, so
  // the vector must never reallocate after the first add; reserve a fixed
  // generous capacity instead.
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tdt
