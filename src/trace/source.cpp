#include "trace/source.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/simd_scan.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TDT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tdt::trace {
namespace {

/// One ReaderRead fault opportunity per chunk request, shared by every
/// I/O-backed source (docs/robustness.md, site `reader.read`).
[[nodiscard]] bool read_fault_fires() noexcept {
  return fault::FaultInjector::enabled() &&
         fault::should_fire(fault::Site::ReaderRead);
}

[[nodiscard]] std::unique_ptr<std::istream> open_binary(
    const std::string& path) {
  auto in = std::make_unique<std::ifstream>(path,
                                            std::ios::in | std::ios::binary);
  if (!*in) {
    throw_io_error("cannot open trace file '" + path + "'");
  }
  return in;
}

#if TDT_HAVE_MMAP
/// Maps `path` read-only when stat(2) says it is a non-empty regular
/// file; nullptr otherwise. The stat comes first: opening a named pipe
/// only to learn it cannot be mapped, then closing it, would cut its
/// writer off, and the fallback's open would wait forever.
[[nodiscard]] const char* map_regular_file(const std::string& path,
                                           std::size_t& size) noexcept {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode) ||
      st.st_size <= 0) {
    return nullptr;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  size = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  return base == MAP_FAILED ? nullptr : static_cast<const char*>(base);
}

/// Drops the whole pages of [base + released, base + upto) from the
/// resident set of a read-only mapping and advances `released`; the
/// pages fault back in from the file if read again.
void release_pages(const char* base, std::size_t& released,
                   std::size_t upto) noexcept {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t end = upto / page * page;
  if (end <= released) return;
  ::madvise(const_cast<char*>(base) + released, end - released, MADV_DONTNEED);
  released = end;
}
#endif

}  // namespace

// --- StreamSource ----------------------------------------------------------

StreamSource::StreamSource(std::istream& in, std::size_t block) : in_(&in) {
  buf_.resize(block == 0 ? kIngestBlock : block);
}

std::unique_ptr<StreamSource> StreamSource::open(const std::string& path) {
  auto owned = open_binary(path);
  auto source = std::make_unique<StreamSource>(*owned);
  source->owned_ = std::move(owned);
  return source;
}

std::string_view StreamSource::next_chunk() {
  if (done_) return {};
  if (read_fault_fires()) [[unlikely]] {
    done_ = true;
    failed_ = true;
    return {};
  }
  in_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  const std::size_t got = static_cast<std::size_t>(in_->gcount());
  if (got == 0) {
    done_ = true;
    // badbit = the underlying read actually failed (I/O error), as
    // opposed to a clean end of stream; surface it instead of treating
    // a torn read as EOF.
    failed_ = in_->bad();
    return {};
  }
  return {buf_.data(), got};
}

// --- MmapSource ------------------------------------------------------------

std::unique_ptr<MmapSource> MmapSource::open(const std::string& path,
                                             std::size_t chunk) {
#if TDT_HAVE_MMAP
  std::size_t size = 0;
  const char* base = map_regular_file(path, size);
  if (base == nullptr) return nullptr;
#if defined(POSIX_MADV_SEQUENTIAL)
  ::posix_madvise(const_cast<char*>(base), size, POSIX_MADV_SEQUENTIAL);
#endif
  return std::unique_ptr<MmapSource>(
      new MmapSource(base, size, chunk == 0 ? kDefaultChunk : chunk));
#else
  (void)path;
  (void)chunk;
  return nullptr;
#endif
}

MmapSource::~MmapSource() {
#if TDT_HAVE_MMAP
  if (base_ != nullptr) {
    ::munmap(const_cast<char*>(base_), size_);
  }
#endif
}

std::string_view MmapSource::next_chunk() {
  if (done_) return {};
  // One ReaderRead opportunity per call, including the final EOF-
  // signaling one — the same schedule as a stream source, whose EOF
  // probe read is also an opportunity. Fault specs hit both backends at
  // the same opportunity indices.
  if (read_fault_fires()) [[unlikely]] {
    done_ = true;
    failed_ = true;
    return {};
  }
  if (pos_ >= size_) {
    done_ = true;
    return {};
  }
  const std::size_t remaining = size_ - pos_;
  std::size_t take = remaining < chunk_ ? remaining : chunk_;
  if (take < remaining) {
    // Cut at the last newline inside the slice so lines never straddle
    // chunks (the memory stays contiguous, but the reader treats chunk
    // ends as potential line breaks and would copy the straddler).
    const std::size_t nl = std::string_view(base_ + pos_, take).rfind('\n');
    if (nl != std::string_view::npos) {
      take = nl + 1;
    }
  }
  const std::string_view chunk(base_ + pos_, take);
  pos_ += take;
  return chunk;
}

// --- OverlappedSource ------------------------------------------------------

OverlappedSource::OverlappedSource(std::istream& in, std::size_t block)
    : in_(&in) {
  const std::size_t cap = block == 0 ? kIngestBlock : block;
  for (Slot& slot : slots_) slot.data.resize(cap);
  prefetcher_ = std::thread([this] { prefetch_main(); });
}

std::unique_ptr<OverlappedSource> OverlappedSource::open(
    const std::string& path) {
  auto owned = open_binary(path);
  // The prefetch thread starts inside the constructor, so the stream
  // must be owned before construction, not adopted after.
  auto source = std::make_unique<OverlappedSource>(*owned);
  source->owned_ = std::move(owned);
  return source;
}

OverlappedSource::~OverlappedSource() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (prefetcher_.joinable()) prefetcher_.join();
}

void OverlappedSource::prefetch_main() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    Slot& slot = slots_[produce_];
    cv_.wait(lock, [&] { return stop_ || !slot.ready; });
    if (stop_) return;
    lock.unlock();

    // Fill outside the lock: the slot is invisible to the consumer
    // until ready flips, and the prefetcher is the only producer.
    bool fire = read_fault_fires();
    std::size_t got = 0;
    if (!fire) {
      in_->read(slot.data.data(),
                static_cast<std::streamsize>(slot.data.size()));
      got = static_cast<std::size_t>(in_->gcount());
    }

    lock.lock();
    if (fire || got == 0) {
      eof_ = true;
      failed_ = fire || in_->bad();
      lock.unlock();
      cv_.notify_all();
      return;
    }
    slot.len = got;
    slot.ready = true;
    produce_ = (produce_ + 1) % 2;
    lock.unlock();
    cv_.notify_all();
  }
}

std::string_view OverlappedSource::next_chunk() {
  std::unique_lock<std::mutex> lock(mu_);
  if (delivered_ > 0) {
    // Release the slot delivered by the previous call.
    Slot& prev = slots_[(consume_ + 1) % 2];
    prev.ready = false;
    cv_.notify_all();
  }
  Slot& slot = slots_[consume_];
  cv_.wait(lock, [&] { return slot.ready || eof_; });
  if (!slot.ready) return {};  // eof (possibly failed) and nothing buffered
  consume_ = (consume_ + 1) % 2;
  ++delivered_;
  return {slot.data.data(), slot.len};
}

bool OverlappedSource::failed() const noexcept {
  std::lock_guard<std::mutex> lock(
      const_cast<OverlappedSource*>(this)->mu_);
  return failed_;
}

// --- GzipSource ------------------------------------------------------------

GzipSource::GzipSource(std::unique_ptr<ByteSource> inner, std::string head)
    : inner_(std::move(inner)) {
  inflater_ = std::make_unique<GzipInflater>();  // throws without zlib
  head_ = std::move(head);
  name_ = "gzip+" + std::string(inner_->name());
  out_.resize(kIngestBlock);
  if (!head_.empty()) inflater_->set_input(head_);
}

GzipSource::~GzipSource() = default;

bool GzipSource::refill() {
  const std::string_view chunk = inner_->next_chunk();
  if (chunk.empty()) {
    if (inner_->failed()) failed_ = true;
    return false;
  }
  inflater_->set_input(chunk);
  return true;
}

std::string_view GzipSource::next_chunk() {
  if (done_) return {};
  for (;;) {
    std::size_t produced = 0;
    switch (inflater_->inflate_chunk(out_.data(), out_.size(), &produced)) {
      case GzipInflater::Status::Output:
        if (produced > 0) return {out_.data(), produced};
        continue;  // member boundary bookkeeping; inflate again
      case GzipInflater::Status::Done:
        // A member ended exactly at an input boundary. More compressed
        // bytes may still follow (`cat a.gz b.gz` split across chunks);
        // the inflater's concatenated-member reset handles them once fed.
        if (!refill()) {
          done_ = true;
          return {};
        }
        continue;
      case GzipInflater::Status::NeedInput:
        if (!refill()) {
          // EOF in the middle of a member: the stream is torn.
          done_ = true;
          failed_ = true;
          return {};
        }
        continue;
      case GzipInflater::Status::Error:
        done_ = true;
        failed_ = true;
        return {};
    }
  }
}

bool GzipSource::failed() const noexcept {
  return failed_ || inner_->failed();
}

// --- FileView --------------------------------------------------------------

std::unique_ptr<FileView> FileView::open(const std::string& path) {
  std::unique_ptr<FileView> view(new FileView());
#if TDT_HAVE_MMAP
  std::size_t size = 0;
  if (const char* base = map_regular_file(path, size)) {
#if defined(POSIX_MADV_WILLNEED)
    ::posix_madvise(const_cast<char*>(base), size, POSIX_MADV_WILLNEED);
#endif
    view->base_ = base;
    view->size_ = size;
    view->mapped_ = true;
    return view;
  }
#endif
  // A pipe, an empty file, or a file that cannot be mapped: read it whole.
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return nullptr;
  std::string buf;
  char block[64 * 1024];
  for (;;) {
    in.read(block, sizeof block);
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    buf.append(block, static_cast<std::size_t>(got));
    if (!in) break;
  }
  if (in.bad()) return nullptr;
  view->buf_ = std::move(buf);
  view->base_ = view->buf_.data();
  view->size_ = view->buf_.size();
  return view;
}

FileView::~FileView() {
#if TDT_HAVE_MMAP
  if (mapped_ && base_ != nullptr) {
    ::munmap(const_cast<char*>(base_), size_);
  }
#endif
}

void FileView::release_prefix(std::size_t n) noexcept {
#if TDT_HAVE_MMAP
  if (mapped_) release_pages(base_, released_, std::min(n, size_));
#else
  (void)n;
#endif
}

// --- Backend selection -----------------------------------------------------

namespace {

/// Hands the sniffed first chunk back, then delegates — non-gzip input
/// reaches the reader byte-identical to the unsniffed stream, on the
/// same backend (name() delegates so metrics report the real one).
class ReplaySource final : public ByteSource {
 public:
  ReplaySource(std::unique_ptr<ByteSource> inner, std::string head)
      : inner_(std::move(inner)), head_(std::move(head)) {}

  [[nodiscard]] std::string_view next_chunk() override {
    if (!replayed_) {
      replayed_ = true;
      return head_;
    }
    return inner_->next_chunk();
  }
  [[nodiscard]] bool failed() const noexcept override {
    return inner_->failed();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<ByteSource> inner_;
  std::string head_;
  bool replayed_ = false;
};

/// Sniffs the stream's first chunk for the gzip magic. The pull consumes
/// fault opportunity 0 exactly as the reader's first chunk request
/// would, and the bytes are replayed either way, so fault schedules and
/// delivered bytes are unchanged for non-gzip input.
std::unique_ptr<ByteSource> wrap_gzip_if_needed(
    std::unique_ptr<ByteSource> inner) {
  const std::string_view first = inner->next_chunk();
  if (!looks_gzip(first)) {
    return std::make_unique<ReplaySource>(std::move(inner),
                                          std::string(first));
  }
  if (!gzip_available()) {
    throw Error(ErrorKind::Config,
                "input is gzip-compressed but zlib support is not built in");
  }
  return std::make_unique<GzipSource>(std::move(inner), std::string(first));
}

}  // namespace

std::unique_ptr<ByteSource> open_trace_byte_source(const std::string& path,
                                                   IngestMode mode) {
  return wrap_gzip_if_needed(open_raw_byte_source(path, mode));
}

std::unique_ptr<ByteSource> open_raw_byte_source(const std::string& path,
                                                 IngestMode mode) {
  if (path == "-") {
    if (mode == IngestMode::Mmap) {
      throw_io_error("cannot mmap standard input");
    }
    if (mode == IngestMode::Stream) {
      return std::make_unique<StreamSource>(std::cin);
    }
    return std::make_unique<OverlappedSource>(std::cin);
  }
  switch (mode) {
    case IngestMode::Stream:
      return StreamSource::open(path);
    case IngestMode::Overlapped:
      return OverlappedSource::open(path);
    case IngestMode::Mmap: {
      auto mapped = MmapSource::open(path);
      if (mapped == nullptr) {
        throw_io_error("cannot mmap trace file '" + path + "'");
      }
      return mapped;
    }
    case IngestMode::Auto:
      break;
  }
  const char* no_mmap = std::getenv("TDT_NO_MMAP");
  const bool allow_mmap =
      no_mmap == nullptr || no_mmap[0] == '\0' ||
      (no_mmap[0] == '0' && no_mmap[1] == '\0');
  if (allow_mmap) {
    if (auto mapped = MmapSource::open(path)) return mapped;
  }
#if TDT_HAVE_MMAP
  // A named pipe blocks and benefits from overlap; MmapSource::open
  // already rejected it, so only the stat matters here.
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && S_ISFIFO(st.st_mode)) {
    return OverlappedSource::open(path);
  }
#endif
  return StreamSource::open(path);
}

}  // namespace tdt::trace
