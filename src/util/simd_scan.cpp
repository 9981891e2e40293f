#include "util/simd_scan.hpp"

#include <cstdlib>
#include <cstring>

#include "util/string_util.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define TDT_SIMD_X86 1
#include <immintrin.h>
#endif

namespace tdt::simd {
namespace {

// ---------------------------------------------------------------------------
// Shared bit-walk: every vector tier reduces a line to a whitespace
// bitmap (bit i set = byte i is ASCII whitespace) and the field spans
// are extracted from the bitmap by one common routine, so the tiers can
// only disagree if their bitmaps disagree — which the differential
// tests rule out.

/// Longest line tokenized through the stack bitmap; anything longer
/// goes through the scalar loop in every tier (identical results, and
/// real record lines are far shorter).
constexpr std::size_t kMaxBitmapLine = 1024;
constexpr std::size_t kBitmapWords = kMaxBitmapLine / 64;

/// Reference tokenizer: the split_ws_into loop, span-emitting. Also the
/// whole scalar tier.
int tokenize_scalar(const char* p, std::size_t n, FieldSpan* out,
                    std::size_t max_fields) noexcept {
  std::size_t i = 0;
  int count = 0;
  while (i < n) {
    while (i < n && is_ascii_space(p[i])) ++i;
    const std::size_t start = i;
    while (i < n && !is_ascii_space(p[i])) ++i;
    if (i > start) {
      if (static_cast<std::size_t>(count) == max_fields) return -1;
      out[count++] = {static_cast<std::uint32_t>(start),
                      static_cast<std::uint32_t>(i)};
    }
  }
  return count;
}

/// Extracts field spans from a single whitespace word: the whole line
/// fits in 64 bits, so there is no word-boundary bookkeeping. Bits at
/// and past `n` must be set (whitespace padding) so every field is
/// terminated. A field starts at a 1->0 transition and ends at a 0->1
/// transition of the whitespace mask; materializing both transition
/// masks up front turns the walk into two independent ctz/clear-lowest
/// chains (~2 cycles per field) instead of one serial scan. Real record
/// lines are ~30 bytes, so this is the path virtually every line takes.
inline int walk_word(std::uint64_t ws, std::size_t n, FieldSpan* out,
                     std::size_t max_fields) noexcept {
  const std::uint64_t nonws = ~ws;
  // Padding keeps every nonws bit below n and below bit 63, so the
  // shifted copies cannot lose a transition.
  std::uint64_t starts = nonws & ~(nonws << 1);  // first byte of each field
  std::uint64_t ends = nonws & ~(nonws >> 1);    // last byte of each field
  const int count = __builtin_popcountll(starts);
  const int emit =
      static_cast<std::size_t>(count) > max_fields
          ? static_cast<int>(max_fields)  // overflow still yields the
          : count;                        // first max_fields spans
  for (int k = 0; k < emit; ++k) {
    out[k] = {static_cast<std::uint32_t>(__builtin_ctzll(starts)),
              static_cast<std::uint32_t>(__builtin_ctzll(ends)) + 1};
    starts &= starts - 1;
    ends &= ends - 1;
  }
  (void)n;
  return emit == count ? count : -1;
}

/// Extracts field spans from a whitespace bitmap. Bits at and past `n`
/// must be set (whitespace padding) so every field is terminated.
int walk_bitmap(const std::uint64_t* words, std::size_t nwords, std::size_t n,
                FieldSpan* out, std::size_t max_fields) noexcept {
  int count = 0;
  std::size_t w = 0;
  std::uint64_t nonws = ~words[0];
  for (;;) {
    // Next field start: first clear whitespace bit.
    while (nonws == 0) {
      if (++w == nwords) return count;
      nonws = ~words[w];
    }
    const std::size_t start =
        w * 64 + static_cast<std::size_t>(__builtin_ctzll(nonws));
    if (start >= n) return count;
    // Field end: first set whitespace bit after the start.
    std::uint64_t ws = words[w] & ~(nonws ^ (nonws - 1));
    std::size_t ew = w;
    std::size_t end;
    for (;;) {
      if (ws != 0) {
        end = ew * 64 + static_cast<std::size_t>(__builtin_ctzll(ws));
        break;
      }
      if (++ew == nwords) {  // field runs to the end of the line
        end = n;
        break;
      }
      ws = words[ew];
    }
    if (end > n) end = n;
    if (static_cast<std::size_t>(count) == max_fields) return -1;
    out[count++] = {static_cast<std::uint32_t>(start),
                    static_cast<std::uint32_t>(end)};
    if (end >= n) return count;
    // Resume the start scan just past the terminating whitespace byte.
    w = ew;
    nonws = ~words[w] & (end % 64 == 63 ? 0 : ~0ULL << (end % 64 + 1));
    if (end % 64 == 63) {
      if (++w == nwords) return count;
      nonws = ~words[w];
    }
  }
}

std::size_t find_newline_scalar(const char* p, std::size_t n) noexcept {
  const void* hit = std::memchr(p, '\n', n);
  return hit == nullptr
             ? n
             : static_cast<std::size_t>(static_cast<const char*>(hit) - p);
}

#if TDT_SIMD_X86

// -- SSE2 -------------------------------------------------------------------
// Whitespace = (c == ' ') | ((uint8)(c - 0x09) <= 4)  [0x09..0x0D].

inline __m128i ws_mask_128(__m128i v) noexcept {
  const __m128i sp = _mm_cmpeq_epi8(v, _mm_set1_epi8(' '));
  const __m128i t = _mm_sub_epi8(v, _mm_set1_epi8(0x09));
  const __m128i ctl = _mm_cmpeq_epi8(_mm_min_epu8(t, _mm_set1_epi8(4)), t);
  return _mm_or_si128(sp, ctl);
}

void build_bitmap_sse2(const char* p, std::size_t n,
                       std::uint64_t* words) noexcept {
  const std::size_t nwords = (n + 63) / 64;
  std::size_t i = 0;
  for (std::size_t w = 0; w < nwords; ++w) words[w] = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const std::uint64_t m =
        static_cast<std::uint32_t>(_mm_movemask_epi8(ws_mask_128(v)));
    words[i / 64] |= m << (i % 64);
  }
  for (; i < n; ++i) {
    if (is_ascii_space(p[i])) words[i / 64] |= 1ULL << (i % 64);
  }
  if (n % 64 != 0) words[nwords - 1] |= ~0ULL << (n % 64);
}

/// Whitespace word for a line of at most 64 bytes. The line is copied
/// into a padded stack block first so the full-width loads never touch
/// bytes outside it (a line may end flush against a mapping or buffer
/// edge, and sanitizers rightly flag the overread).
inline std::uint64_t ws_word_sse2(const char* p, std::size_t n) noexcept {
  alignas(16) char buf[64];
  std::memset(buf, ' ', sizeof buf);  // pad = whitespace, terminates fields
  std::memcpy(buf, p, n);
  std::uint64_t m = 0;
  for (std::size_t i = 0; i < 64; i += 16) {
    const __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(buf + i));
    m |= static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(_mm_movemask_epi8(ws_mask_128(v))))
         << i;
  }
  return m;
}

int tokenize_sse2(const char* p, std::size_t n, FieldSpan* out,
                  std::size_t max_fields) noexcept {
  if (n <= 64) return walk_word(ws_word_sse2(p, n), n, out, max_fields);
  if (n > kMaxBitmapLine) return tokenize_scalar(p, n, out, max_fields);
  std::uint64_t words[kBitmapWords];
  build_bitmap_sse2(p, n, words);
  return walk_bitmap(words, (n + 63) / 64, n, out, max_fields);
}

std::size_t find_newline_sse2(const char* p, std::size_t n) noexcept {
  const __m128i nl = _mm_set1_epi8('\n');
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const int m = _mm_movemask_epi8(_mm_cmpeq_epi8(v, nl));
    if (m != 0) return i + static_cast<std::size_t>(__builtin_ctz(m));
  }
  return i + find_newline_scalar(p + i, n - i);
}

// -- AVX2 -------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i ws_mask_256(__m256i v) noexcept {
  const __m256i sp = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(' '));
  const __m256i t = _mm256_sub_epi8(v, _mm256_set1_epi8(0x09));
  const __m256i ctl =
      _mm256_cmpeq_epi8(_mm256_min_epu8(t, _mm256_set1_epi8(4)), t);
  return _mm256_or_si256(sp, ctl);
}

__attribute__((target("avx2"))) void build_bitmap_avx2(
    const char* p, std::size_t n, std::uint64_t* words) noexcept {
  const std::size_t nwords = (n + 63) / 64;
  std::size_t i = 0;
  for (std::size_t w = 0; w < nwords; ++w) words[w] = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const std::uint64_t m = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(ws_mask_256(v)));
    words[i / 64] |= m << (i % 64);
  }
  for (; i < n; ++i) {
    if (is_ascii_space(p[i])) words[i / 64] |= 1ULL << (i % 64);
  }
  if (n % 64 != 0) words[nwords - 1] |= ~0ULL << (n % 64);
}

__attribute__((target("avx2"))) inline std::uint64_t ws_word_avx2(
    const char* p, std::size_t n) noexcept {
  alignas(32) char buf[64];
  std::memset(buf, ' ', sizeof buf);  // pad = whitespace, terminates fields
  std::memcpy(buf, p, n);
  const __m256i v0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
  const __m256i v1 =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 32));
  const auto lo = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(ws_mask_256(v0)));
  const auto hi = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(ws_mask_256(v1)));
  return static_cast<std::uint64_t>(lo) | static_cast<std::uint64_t>(hi) << 32;
}

__attribute__((target("avx2"))) int tokenize_avx2(
    const char* p, std::size_t n, FieldSpan* out,
    std::size_t max_fields) noexcept {
  if (n <= 64) return walk_word(ws_word_avx2(p, n), n, out, max_fields);
  if (n > kMaxBitmapLine) return tokenize_scalar(p, n, out, max_fields);
  std::uint64_t words[kBitmapWords];
  build_bitmap_avx2(p, n, words);
  return walk_bitmap(words, (n + 63) / 64, n, out, max_fields);
}

__attribute__((target("avx2"))) std::size_t find_newline_avx2(
    const char* p, std::size_t n) noexcept {
  const __m256i nl = _mm256_set1_epi8('\n');
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const int m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, nl));
    if (m != 0) return i + static_cast<std::size_t>(__builtin_ctz(m));
  }
  return i + find_newline_scalar(p + i, n - i);
}

#endif  // TDT_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.

using FindFn = std::size_t (*)(const char*, std::size_t) noexcept;
using TokenizeFn = int (*)(const char*, std::size_t, FieldSpan*,
                           std::size_t) noexcept;

struct Dispatch {
  Tier tier = Tier::Scalar;
  FindFn find = &find_newline_scalar;
  TokenizeFn tokenize = &tokenize_scalar;
};

Dispatch for_tier(Tier t) noexcept {
  Dispatch d;
#if TDT_SIMD_X86
  if (t >= Tier::Avx2) {
    d.tier = Tier::Avx2;
    d.find = &find_newline_avx2;
    d.tokenize = &tokenize_avx2;
    return d;
  }
  if (t >= Tier::Sse2) {
    d.tier = Tier::Sse2;
    d.find = &find_newline_sse2;
    d.tokenize = &tokenize_sse2;
    return d;
  }
#else
  (void)t;
#endif
  return d;
}

bool simd_disabled_by_env() noexcept {
  const char* v = std::getenv("TDT_NO_SIMD");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

Dispatch& dispatch() noexcept {
  static Dispatch d =
      for_tier(simd_disabled_by_env() ? Tier::Scalar : best_supported_tier());
  return d;
}

}  // namespace

std::string_view tier_name(Tier t) noexcept {
  switch (t) {
    case Tier::Scalar: return "scalar";
    case Tier::Sse2: return "sse2";
    case Tier::Avx2: return "avx2";
  }
  return "scalar";
}

Tier best_supported_tier() noexcept {
#if TDT_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Tier::Avx2;
  if (__builtin_cpu_supports("sse2")) return Tier::Sse2;
#endif
  return Tier::Scalar;
}

Tier active_tier() noexcept { return dispatch().tier; }

Tier set_active_tier(Tier t) noexcept {
  const Tier best = best_supported_tier();
  dispatch() = for_tier(t > best ? best : t);
  return dispatch().tier;
}

std::size_t find_newline(std::string_view s, std::size_t from) noexcept {
  if (from >= s.size()) return s.size();
  return from + dispatch().find(s.data() + from, s.size() - from);
}

FindNewlineFn find_newline_fn() noexcept { return dispatch().find; }

TokenizeFieldsFn tokenize_fields_fn() noexcept { return dispatch().tokenize; }

int tokenize_fields(std::string_view line, FieldSpan* out,
                    std::size_t max_fields) noexcept {
  return dispatch().tokenize(line.data(), line.size(), out, max_fields);
}

}  // namespace tdt::simd
