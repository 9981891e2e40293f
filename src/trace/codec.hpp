// Compression codecs for the TDTB v3 framed container and gzip'd text
// ingest. Frames compress independently, so the codec interface is
// whole-buffer: compress one frame payload, decompress one stored frame
// into its known uncompressed size.
//
// zstd and lz4 are optional: the implementation binds them at runtime
// (dlopen of the installed shared library) so the build never needs their
// headers and degrades gracefully — codec_available() reports what this
// process can actually use, and Codec::None always works. Setting
// TDT_NO_CODEC=1 forces zstd/lz4 unavailable (tests exercise the
// degraded path with it).
//
// gzip (RFC 1952, via zlib when the build found it) is a separate,
// text-side facility: externally captured traces arrive as `trace.out.gz`
// and the byte-source layer inflates them transparently; the GzipInflater
// here is its streaming engine, and GzipDeflater is the writers' for
// `.gz` output.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <streambuf>
#include <string>
#include <string_view>

namespace tdt::trace {

/// Frame payload codec ids as stored in the TDTB v3 frame header.
/// Wire-stable: never renumber.
enum class Codec : std::uint8_t {
  None = 0,  ///< payload stored verbatim
  Zstd = 1,  ///< zstd single-shot frame
  Lz4 = 2,   ///< lz4 block format (raw, no lz4-frame wrapper)
};

/// Canonical spelling ("none", "zstd", "lz4").
[[nodiscard]] std::string_view codec_name(Codec codec) noexcept;

/// Inverse of codec_name(); nullopt for unknown spellings.
[[nodiscard]] std::optional<Codec> parse_codec(std::string_view text) noexcept;

/// Codec for a raw frame-header byte; nullopt for ids this build does not
/// know (future codecs decode as "unknown", not as garbage).
[[nodiscard]] std::optional<Codec> codec_from_id(std::uint8_t id) noexcept;

/// True when this process can compress/decompress with `codec`. None is
/// always available; zstd/lz4 require their shared library at runtime.
[[nodiscard]] bool codec_available(Codec codec) noexcept;

/// A parsed --compress value.
struct CompressSpec {
  Codec codec = Codec::None;
  int level = 0;  ///< 0 = codec default (zstd level 3, lz4 fast-1)
};

/// Parses the --compress grammar `zstd|lz4|none[:level]`. Throws
/// Error{Config} on unknown codecs or a malformed level. Availability is
/// NOT checked here — writers do that so the error can name a remedy.
[[nodiscard]] CompressSpec parse_compress_spec(std::string_view text);

/// Worst-case compressed size for `n` input bytes under `codec`.
[[nodiscard]] std::size_t codec_compress_bound(Codec codec, std::size_t n);

/// Compresses `src` into `dst` (replaced, sized to the output). Returns
/// false when the codec is unavailable or the library reports an error.
/// Codec::None copies.
bool codec_compress(Codec codec, int level, std::string_view src,
                    std::string& dst);

/// Decompresses `src` into `dst`, which must come out exactly filled.
/// Returns false on corrupt input, a size mismatch, or an unavailable
/// codec. Codec::None requires src.size() == dst.size() and copies. Only
/// the bytes the codec produces are written: a caller that allocates
/// `dst` without zero-filling it, as the TDTB reader does, never makes
/// resident the part of a declared size that corrupt input leaves empty.
bool codec_decompress(Codec codec, std::string_view src, std::span<char> dst);

// --- gzip (text-trace ingest/export) ---------------------------------------

/// True when the build carries zlib.
[[nodiscard]] bool gzip_available() noexcept;

/// True when `head` starts with the gzip magic (0x1f 0x8b).
[[nodiscard]] bool looks_gzip(std::string_view head) noexcept;

/// Compresses `src` into a complete gzip member in `dst` (replaced),
/// through a GzipDeflater. Returns false when zlib is unavailable or
/// reports an error.
bool gzip_compress(std::string_view src, std::string& dst);

/// Streaming gzip compressor: an output stream buffer that deflates what
/// is written through it into one gzip member on `out` (the writers'
/// `.gz` output). A flush hands `out` the compressed bytes made so far
/// and flushes it, but ends no deflate block, so the bytes do not depend
/// on how the input was cut into writes and flushes: they equal
/// gzip_compress() of everything written. finish() ends the member; a
/// deflater destroyed without it leaves an incomplete one.
class GzipDeflater final : public std::streambuf {
 public:
  /// Throws Error{Config} when zlib is unavailable.
  explicit GzipDeflater(std::ostream& out);
  ~GzipDeflater() override;
  GzipDeflater(const GzipDeflater&) = delete;
  GzipDeflater& operator=(const GzipDeflater&) = delete;

  /// Compresses what is pending, writes the gzip trailer and flushes
  /// `out`. False when zlib or `out` failed.
  bool finish();

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int sync() override;

 private:
  /// Feeds `n` bytes to deflate with zlib flush mode `mode` and writes
  /// whatever it produces to `out`.
  bool deflate_to_out(const char* data, std::size_t n, int mode);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::ostream* out_;
};

/// Streaming gzip inflater: feed compressed chunks, pull inflated chunks.
/// Handles concatenated gzip members (as `cat a.gz b.gz` produces).
class GzipInflater {
 public:
  /// Throws Error{Config} when zlib is unavailable.
  GzipInflater();
  ~GzipInflater();
  GzipInflater(const GzipInflater&) = delete;
  GzipInflater& operator=(const GzipInflater&) = delete;

  enum class Status : std::uint8_t {
    NeedInput,  ///< consumed all input; feed more (or EOF if none is left)
    Output,     ///< produced bytes; call inflate_chunk again
    Done,       ///< stream ended cleanly at an input boundary
    Error,      ///< corrupt stream
  };

  /// Replaces the pending input view. The bytes must stay alive until the
  /// inflater asks for more input (NeedInput).
  void set_input(std::string_view in) noexcept;

  /// Inflates into out[0..cap); `*produced` gets the byte count.
  Status inflate_chunk(char* out, std::size_t cap, std::size_t* produced);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tdt::trace
