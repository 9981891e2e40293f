#include "trace/codec.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TDT_HAVE_DLOPEN 1
#include <dlfcn.h>
#endif

#if defined(TDT_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace tdt::trace {
namespace {

/// TDT_NO_CODEC=1 hides zstd/lz4 even when their libraries are present,
/// so the codec-none degradation path is testable everywhere.
bool codecs_disabled_by_env() {
  static const bool disabled = [] {
    const char* v = std::getenv("TDT_NO_CODEC");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return disabled;
}

#if defined(TDT_HAVE_DLOPEN)
void* open_first(const char* const* names) {
  for (const char* const* n = names; *n != nullptr; ++n) {
    if (void* h = ::dlopen(*n, RTLD_NOW | RTLD_LOCAL)) return h;
  }
  return nullptr;
}
#endif

// The build compiles without zstd.h/lz4.h: the few entry points the frame
// codecs need are declared locally and resolved with dlsym at first use.
// Signatures follow the stable public APIs of libzstd/liblz4.

struct ZstdApi {
  std::size_t (*compress_bound)(std::size_t) = nullptr;
  unsigned (*is_error)(std::size_t) = nullptr;
  std::size_t (*compress)(void*, std::size_t, const void*, std::size_t,
                          int) = nullptr;
  std::size_t (*decompress)(void*, std::size_t, const void*,
                            std::size_t) = nullptr;
  bool ok = false;
};

const ZstdApi& zstd_api() {
  static const ZstdApi api = [] {
    ZstdApi a;
#if defined(TDT_HAVE_DLOPEN)
    static const char* const names[] = {"libzstd.so.1", "libzstd.so",
                                        "libzstd.1.dylib", nullptr};
    void* h = open_first(names);
    if (h == nullptr) return a;
    a.compress_bound = reinterpret_cast<std::size_t (*)(std::size_t)>(
        ::dlsym(h, "ZSTD_compressBound"));
    a.is_error = reinterpret_cast<unsigned (*)(std::size_t)>(
        ::dlsym(h, "ZSTD_isError"));
    a.compress =
        reinterpret_cast<std::size_t (*)(void*, std::size_t, const void*,
                                         std::size_t, int)>(
            ::dlsym(h, "ZSTD_compress"));
    a.decompress =
        reinterpret_cast<std::size_t (*)(void*, std::size_t, const void*,
                                         std::size_t)>(
            ::dlsym(h, "ZSTD_decompress"));
    a.ok = a.compress_bound != nullptr && a.is_error != nullptr &&
           a.compress != nullptr && a.decompress != nullptr;
#endif
    return a;
  }();
  return api;
}

struct Lz4Api {
  int (*compress_bound)(int) = nullptr;
  int (*compress_fast)(const char*, char*, int, int, int) = nullptr;
  int (*decompress_safe)(const char*, char*, int, int) = nullptr;
  bool ok = false;
};

const Lz4Api& lz4_api() {
  static const Lz4Api api = [] {
    Lz4Api a;
#if defined(TDT_HAVE_DLOPEN)
    static const char* const names[] = {"liblz4.so.1", "liblz4.so",
                                        "liblz4.1.dylib", nullptr};
    void* h = open_first(names);
    if (h == nullptr) return a;
    a.compress_bound =
        reinterpret_cast<int (*)(int)>(::dlsym(h, "LZ4_compressBound"));
    a.compress_fast = reinterpret_cast<int (*)(const char*, char*, int, int,
                                               int)>(
        ::dlsym(h, "LZ4_compress_fast"));
    a.decompress_safe = reinterpret_cast<int (*)(const char*, char*, int,
                                                 int)>(
        ::dlsym(h, "LZ4_decompress_safe"));
    a.ok = a.compress_bound != nullptr && a.compress_fast != nullptr &&
           a.decompress_safe != nullptr;
#endif
    return a;
  }();
  return api;
}

/// lz4's int-typed API caps one block at ~2 GiB; frames are far smaller
/// (the writer bounds them), but a hostile header must not overflow.
constexpr std::size_t kLz4MaxBlock = 0x7E000000;  // LZ4_MAX_INPUT_SIZE

}  // namespace

std::string_view codec_name(Codec codec) noexcept {
  switch (codec) {
    case Codec::None: return "none";
    case Codec::Zstd: return "zstd";
    case Codec::Lz4: return "lz4";
  }
  return "unknown";
}

std::optional<Codec> parse_codec(std::string_view text) noexcept {
  if (text == "none") return Codec::None;
  if (text == "zstd") return Codec::Zstd;
  if (text == "lz4") return Codec::Lz4;
  return std::nullopt;
}

std::optional<Codec> codec_from_id(std::uint8_t id) noexcept {
  if (id > static_cast<std::uint8_t>(Codec::Lz4)) return std::nullopt;
  return static_cast<Codec>(id);
}

bool codec_available(Codec codec) noexcept {
  switch (codec) {
    case Codec::None: return true;
    case Codec::Zstd: return !codecs_disabled_by_env() && zstd_api().ok;
    case Codec::Lz4: return !codecs_disabled_by_env() && lz4_api().ok;
  }
  return false;
}

CompressSpec parse_compress_spec(std::string_view text) {
  CompressSpec spec;
  std::string_view name = text;
  const std::size_t colon = text.find(':');
  if (colon != std::string_view::npos) {
    name = text.substr(0, colon);
    const std::string level_text(text.substr(colon + 1));
    errno = 0;
    char* end = nullptr;
    const long level = std::strtol(level_text.c_str(), &end, 10);
    if (end == level_text.c_str() || *end != '\0' || errno == ERANGE ||
        level < 0 || level > 22) {
      throw_config_error("--compress: bad level '" + level_text +
                         "' (expected 0-22)");
    }
    spec.level = static_cast<int>(level);
  }
  const std::optional<Codec> codec = parse_codec(name);
  if (!codec.has_value()) {
    throw_config_error("--compress: unknown codec '" + std::string(name) +
                       "' (expected zstd|lz4|none[:level])");
  }
  spec.codec = *codec;
  return spec;
}

std::size_t codec_compress_bound(Codec codec, std::size_t n) {
  switch (codec) {
    case Codec::None:
      return n;
    case Codec::Zstd:
      if (zstd_api().ok) return zstd_api().compress_bound(n);
      break;
    case Codec::Lz4:
      if (lz4_api().ok && n <= kLz4MaxBlock) {
        return static_cast<std::size_t>(
            lz4_api().compress_bound(static_cast<int>(n)));
      }
      break;
  }
  // Unavailable codecs still get a safe bound so callers can size
  // scratch before the (failing) compress call.
  return n + n / 2 + 64;
}

bool codec_compress(Codec codec, int level, std::string_view src,
                    std::string& dst) {
  switch (codec) {
    case Codec::None:
      dst.assign(src.data(), src.size());
      return true;
    case Codec::Zstd: {
      if (!codec_available(codec)) return false;
      const ZstdApi& api = zstd_api();
      dst.resize(api.compress_bound(src.size()));
      const std::size_t n =
          api.compress(dst.data(), dst.size(), src.data(), src.size(),
                       level == 0 ? 3 : level);
      if (api.is_error(n) != 0) return false;
      dst.resize(n);
      return true;
    }
    case Codec::Lz4: {
      if (!codec_available(codec) || src.size() > kLz4MaxBlock) return false;
      const Lz4Api& api = lz4_api();
      dst.resize(static_cast<std::size_t>(
          api.compress_bound(static_cast<int>(src.size()))));
      // --compress lz4:N maps the level knob onto lz4's acceleration
      // factor (bigger = faster/looser); the default is acceleration 1.
      const int n = api.compress_fast(src.data(), dst.data(),
                                      static_cast<int>(src.size()),
                                      static_cast<int>(dst.size()),
                                      level == 0 ? 1 : level);
      if (n <= 0) return false;
      dst.resize(static_cast<std::size_t>(n));
      return true;
    }
  }
  return false;
}

bool codec_decompress(Codec codec, std::string_view src, std::span<char> dst) {
  switch (codec) {
    case Codec::None:
      if (src.size() != dst.size()) return false;
      std::copy(src.begin(), src.end(), dst.begin());
      return true;
    case Codec::Zstd: {
      if (!codec_available(codec)) return false;
      const ZstdApi& api = zstd_api();
      const std::size_t n =
          api.decompress(dst.data(), dst.size(), src.data(), src.size());
      return api.is_error(n) == 0 && n == dst.size();
    }
    case Codec::Lz4: {
      if (!codec_available(codec) || dst.size() > kLz4MaxBlock ||
          src.size() > kLz4MaxBlock) {
        return false;
      }
      const Lz4Api& api = lz4_api();
      const int n = api.decompress_safe(src.data(), dst.data(),
                                        static_cast<int>(src.size()),
                                        static_cast<int>(dst.size()));
      return n >= 0 && static_cast<std::size_t>(n) == dst.size();
    }
  }
  return false;
}

// --- gzip -------------------------------------------------------------------

bool gzip_available() noexcept {
#if defined(TDT_HAVE_ZLIB)
  return true;
#else
  return false;
#endif
}

bool looks_gzip(std::string_view head) noexcept {
  return head.size() >= 2 && static_cast<unsigned char>(head[0]) == 0x1f &&
         static_cast<unsigned char>(head[1]) == 0x8b;
}

#if defined(TDT_HAVE_ZLIB)

namespace {
/// Compressed bytes a GzipDeflater collects before writing them out.
constexpr std::size_t kGzipChunk = 64 * 1024;
}  // namespace

struct GzipDeflater::Impl {
  z_stream zs{};
  std::vector<char> chunk = std::vector<char>(kGzipChunk);
  bool finished = false;
};

GzipDeflater::GzipDeflater(std::ostream& out)
    : impl_(std::make_unique<Impl>()), out_(&out) {
  std::memset(&impl_->zs, 0, sizeof(impl_->zs));
  // windowBits 15+16 selects a gzip wrapper around the deflate stream.
  if (deflateInit2(&impl_->zs, Z_DEFAULT_COMPRESSION, Z_DEFLATED, 15 + 16, 8,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    throw Error(ErrorKind::Config, "zlib: deflateInit2 failed");
  }
}

GzipDeflater::~GzipDeflater() { deflateEnd(&impl_->zs); }

bool GzipDeflater::deflate_to_out(const char* data, std::size_t n, int mode) {
  if (impl_->finished) return false;
  z_stream& zs = impl_->zs;
  std::vector<char>& chunk = impl_->chunk;
  do {
    // zlib counts input in uInt; hand over a huge buffer in slices.
    const std::size_t slice = std::min<std::size_t>(n, 1u << 30);
    zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(data));
    zs.avail_in = static_cast<uInt>(slice);
    data += slice;
    n -= slice;
    const int slice_mode = n == 0 ? mode : Z_NO_FLUSH;
    int rc = Z_OK;
    do {
      zs.next_out = reinterpret_cast<Bytef*>(chunk.data());
      zs.avail_out = static_cast<uInt>(chunk.size());
      rc = deflate(&zs, slice_mode);
      if (rc == Z_STREAM_ERROR) return false;
      out_->write(chunk.data(),
                  static_cast<std::streamsize>(chunk.size() - zs.avail_out));
    } while (zs.avail_out == 0 ||
             (slice_mode == Z_FINISH && rc != Z_STREAM_END));
  } while (n > 0);
  if (mode == Z_FINISH) impl_->finished = true;
  return static_cast<bool>(*out_);
}

std::streamsize GzipDeflater::xsputn(const char* s, std::streamsize n) {
  return deflate_to_out(s, static_cast<std::size_t>(n), Z_NO_FLUSH) ? n : 0;
}

int GzipDeflater::overflow(int ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  return deflate_to_out(&c, 1, Z_NO_FLUSH) ? ch : traits_type::eof();
}

int GzipDeflater::sync() { return out_->flush() ? 0 : -1; }

bool GzipDeflater::finish() {
  return deflate_to_out(nullptr, 0, Z_FINISH) && out_->flush();
}

struct GzipInflater::Impl {
  z_stream zs{};
  bool stream_open = false;   // inflateInit2 done, not yet at stream end
  bool saw_member = false;    // at least one member decoded to completion
};

GzipInflater::GzipInflater() : impl_(std::make_unique<Impl>()) {
  std::memset(&impl_->zs, 0, sizeof(impl_->zs));
  if (inflateInit2(&impl_->zs, 15 + 16) != Z_OK) {
    throw Error(ErrorKind::Config, "zlib: inflateInit2 failed");
  }
  impl_->stream_open = true;
}

GzipInflater::~GzipInflater() {
  if (impl_ != nullptr && impl_->stream_open) inflateEnd(&impl_->zs);
}

void GzipInflater::set_input(std::string_view in) noexcept {
  impl_->zs.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(in.data()));
  impl_->zs.avail_in = static_cast<uInt>(in.size());
}

GzipInflater::Status GzipInflater::inflate_chunk(char* out, std::size_t cap,
                                                 std::size_t* produced) {
  *produced = 0;
  z_stream& zs = impl_->zs;
  zs.next_out = reinterpret_cast<Bytef*>(out);
  zs.avail_out = static_cast<uInt>(cap);
  const int rc = inflate(&zs, Z_NO_FLUSH);
  *produced = cap - zs.avail_out;
  if (rc == Z_STREAM_END) {
    impl_->saw_member = true;
    if (zs.avail_in > 0) {
      // Concatenated members: reset and keep going on the same input.
      // Output (even with 0 bytes produced) tells the caller to call
      // again rather than refill — the pending input is still ours.
      if (inflateReset(&zs) != Z_OK) return Status::Error;
      return Status::Output;
    }
    return *produced > 0 ? Status::Output : Status::Done;
  }
  if (rc != Z_OK && rc != Z_BUF_ERROR) return Status::Error;
  if (*produced > 0) return Status::Output;
  if (zs.avail_in == 0) return Status::NeedInput;
  // Z_BUF_ERROR with input pending and no output: a zero-capacity call
  // or a stall; report NeedInput only when input is truly drained.
  return cap == 0 ? Status::Output : Status::Error;
}

#else  // !TDT_HAVE_ZLIB

struct GzipDeflater::Impl {};

GzipDeflater::GzipDeflater(std::ostream& out) : out_(&out) {
  throw Error(ErrorKind::Config,
              "gzip support is not built in (zlib was unavailable at "
              "configure time)");
}

GzipDeflater::~GzipDeflater() = default;

bool GzipDeflater::deflate_to_out(const char*, std::size_t, int) {
  return false;
}

std::streamsize GzipDeflater::xsputn(const char*, std::streamsize) {
  return 0;
}

int GzipDeflater::overflow(int) { return traits_type::eof(); }

int GzipDeflater::sync() { return -1; }

bool GzipDeflater::finish() { return false; }

struct GzipInflater::Impl {};

GzipInflater::GzipInflater() {
  throw Error(ErrorKind::Config,
              "gzip support is not built in (zlib was unavailable at "
              "configure time)");
}

GzipInflater::~GzipInflater() = default;

void GzipInflater::set_input(std::string_view) noexcept {}

GzipInflater::Status GzipInflater::inflate_chunk(char*, std::size_t,
                                                 std::size_t*) {
  return Status::Error;
}

#endif  // TDT_HAVE_ZLIB

bool gzip_compress(std::string_view src, std::string& dst) {
  dst.clear();
  if (!gzip_available()) return false;
  std::ostringstream out;
  GzipDeflater deflater(out);
  if (deflater.sputn(src.data(), static_cast<std::streamsize>(src.size())) !=
          static_cast<std::streamsize>(src.size()) ||
      !deflater.finish()) {
    return false;
  }
  dst = out.str();
  return true;
}

}  // namespace tdt::trace
