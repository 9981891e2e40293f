// Small string helpers shared by the parsers (trace reader, rule DSL,
// declaration parser) and the report writers. All functions operate on
// string_view and never allocate unless they return std::string.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tdt {

/// True for the six ASCII whitespace characters (the set split_ws and
/// trim use; locale-independent, unlike std::isspace).
[[nodiscard]] constexpr bool is_ascii_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// Hash functor for string-keyed maps that enables heterogeneous
/// (string_view) lookup: declare the map as
///   std::unordered_map<std::string, T, StringViewHash, std::equal_to<>>
/// and find() accepts a string_view without building a temporary
/// std::string.
struct StringViewHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Removes leading ASCII whitespace.
[[nodiscard]] std::string_view trim_left(std::string_view s) noexcept;

/// Removes trailing ASCII whitespace.
[[nodiscard]] std::string_view trim_right(std::string_view s) noexcept;

/// Splits `s` on `sep`, keeping empty fields. "a,,b" -> {"a","","b"}.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

/// Splits `s` on runs of ASCII whitespace, dropping empty fields.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Allocation-free split_ws: clears `out` and appends up to `max_fields`
/// whitespace-separated fields. Returns false (with `out` truncated at
/// `max_fields`) when `s` has more fields — callers treat that as "line
/// too exotic for the fast path" and fall back to split_ws. `Vec` is any
/// push_back-able container of string_view (typically a SmallVector whose
/// inline capacity is >= max_fields, so the hot path never allocates).
template <typename Vec>
bool split_ws_into(std::string_view s, Vec& out, std::size_t max_fields) {
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_ascii_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_ascii_space(s[i])) ++i;
    if (i > start) {
      if (out.size() == max_fields) return false;
      out.push_back(s.substr(start, i - start));
    }
  }
  return true;
}

/// True when `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;

/// True when `s` ends with `suffix`.
[[nodiscard]] bool ends_with(std::string_view s,
                             std::string_view suffix) noexcept;

/// Parses a decimal signed integer; returns nullopt on any deviation
/// (empty, trailing junk, overflow).
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view s);

/// Parses an unsigned integer in base 10 or, with "0x" prefix, base 16.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view s);

/// Parses a hexadecimal unsigned integer (no 0x prefix required).
[[nodiscard]] std::optional<std::uint64_t> parse_hex(std::string_view s);

namespace detail {
/// Hex digit value of each byte; 0xFF for a non-digit.
inline constexpr std::array<std::uint8_t, 256> kHexDigitValue = [] {
  std::array<std::uint8_t, 256> t{};
  for (auto& v : t) v = 0xFF;
  for (int i = 0; i < 10; ++i) t[static_cast<std::size_t>('0') + i] = i;
  for (int i = 0; i < 6; ++i) {
    t[static_cast<std::size_t>('a') + i] = 10 + i;
    t[static_cast<std::size_t>('A') + i] = 10 + i;
  }
  return t;
}();
}  // namespace detail

/// parse_hex for the trace decoders' hot loops: inputs of up to 16
/// digits (which cannot overflow) decode in a tight inline loop, longer
/// ones defer to parse_hex, so the accepted strings and the produced
/// values are identical by construction. False where parse_hex is
/// nullopt.
[[nodiscard]] inline bool parse_hex_fast(std::string_view s,
                                         std::uint64_t& out) noexcept {
  if (s.empty()) return false;
  if (s.size() > 16) {  // only >16 digits can overflow; let parse_hex rule
    const auto v = parse_hex(s);
    if (!v) return false;
    out = *v;
    return true;
  }
  std::uint64_t v = 0;
  for (const char c : s) {
    const std::uint8_t d = detail::kHexDigitValue[static_cast<unsigned char>(c)];
    if (d == 0xFF) return false;
    v = v << 4 | d;
  }
  out = v;
  return true;
}

/// Formats `value` as lower-case hex, zero padded to `width` digits
/// (Gleipnir prints addresses as 9-digit hex, e.g. "7ff000108").
[[nodiscard]] std::string to_hex(std::uint64_t value, int width = 0);

/// True when `c` is a valid identifier start ([A-Za-z_]).
[[nodiscard]] bool is_ident_start(char c) noexcept;

/// True when `c` is a valid identifier continuation ([A-Za-z0-9_]).
[[nodiscard]] bool is_ident_char(char c) noexcept;

/// True when `s` is a non-empty well-formed identifier.
[[nodiscard]] bool is_identifier(std::string_view s) noexcept;

/// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Human-readable byte size: 32768 -> "32 KiB", 32 -> "32 B".
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

}  // namespace tdt
