#include "trace/source.hpp"

#include <algorithm>
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

// --- OverlappedSource ------------------------------------------------------

OverlappedSource::OverlappedSource(std::istream& in, std::size_t block)
    : in_(&in),
      block_(block == 0 ? kIngestBlock : block),
      pool_(1, 2, [this](std::uint64_t /*k*/, Block& b) {
        return read_block(b);
      }) {}

std::unique_ptr<OverlappedSource> OverlappedSource::open(
    const std::string& path) {
  auto owned = open_binary(path);
  // The prefetch thread starts inside the constructor, so the stream
  // must be owned before construction, not adopted after.
  auto source = std::make_unique<OverlappedSource>(*owned);
  source->owned_ = std::move(owned);
  return source;
}

bool OverlappedSource::read_block(Block& block) {
  if (read_fault_fires()) {
    failed_ = true;
    return false;
  }
  block.data.resize(block_);
  in_->read(block.data.data(), static_cast<std::streamsize>(block_));
  block.len = static_cast<std::size_t>(in_->gcount());
  if (block.len == 0) {
    failed_ = in_->bad();
    return false;
  }
  return true;
}

std::string_view OverlappedSource::next_chunk() {
  // Gives the block handed out before back to the prefetcher.
  const Block* block = pool_.take();
  if (block == nullptr) return {};  // eof (possibly failed)
  return {block->data.data(), block->len};
}

// --- GzipSource ------------------------------------------------------------

GzipSource::GzipSource(std::unique_ptr<ByteSource> inner, std::string head)
    : inner_(std::move(inner)) {
  inflater_ = std::make_unique<GzipInflater>();  // throws without zlib
  head_ = std::move(head);
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

void FileView::drop_resident() noexcept {
#if TDT_HAVE_MMAP
  std::size_t from = released_;
  if (mapped_) release_pages(base_, from, size_);
#endif
}

// --- Backend selection -----------------------------------------------------

namespace {

/// Hands the sniffed first chunk back, then delegates — non-gzip input
/// reaches the reader byte-identical to the unsniffed stream.
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

std::unique_ptr<ByteSource> open_trace_byte_source(const std::string& path) {
  if (path == "-") {
    return wrap_gzip_if_needed(std::make_unique<OverlappedSource>(std::cin));
  }
  return wrap_gzip_if_needed(OverlappedSource::open(path));
}

// --- LineSplitter ----------------------------------------------------------

LineSplitter::LineSplitter(std::unique_ptr<ByteSource> source,
                           DiagEngine* diags)
    : source_(std::move(source)),
      diags_(diags),
      find_nl_(simd::find_newline_fn()) {}

bool LineSplitter::next_slow(std::string_view& out) {
  if (carry_active_) {
    // The view handed out by the previous call aliased carry_; the
    // caller is done with it now.
    carry_.clear();
    carry_active_ = false;
  }
  for (;;) {
    if (chunk_pos_ < chunk_.size()) {
      const std::size_t nl =
          chunk_pos_ + find_nl_(chunk_.data() + chunk_pos_,
                                chunk_.size() - chunk_pos_);
      if (nl < chunk_.size()) {
        std::string_view line;
        if (carry_.empty()) {
          line = chunk_.substr(chunk_pos_, nl - chunk_pos_);
        } else {
          carry_.append(chunk_.data() + chunk_pos_, nl - chunk_pos_);
          line = carry_;
          carry_active_ = true;
        }
        chunk_pos_ = nl + 1;
        out = take_line(line);
        return true;
      }
      // No newline in the remainder: stash it and refill.
      carry_.append(chunk_.data() + chunk_pos_, chunk_.size() - chunk_pos_);
      chunk_pos_ = chunk_.size();
    }
    if (eof_) {
      if (!carry_.empty()) {
        if (io_failed_) {
          // A torn read: the buffered bytes are a fragment of a line of
          // unknown length, not a final line. Never let it parse.
          tail_discarded_ = true;
          carry_.clear();
          return false;
        }
        // Final line without a trailing newline. A lone trailing '\r'
        // is data here: no '\n' was consumed, so there is no terminator
        // to strip (and none is counted).
        bytes_ += carry_.size();
        ++line_;
        out = std::string_view(carry_);
        carry_active_ = true;
        return true;
      }
      return false;
    }
    chunk_ = source_->next_chunk();
    chunk_pos_ = 0;
    if (chunk_.empty()) {
      eof_ = true;
      io_failed_ = source_->failed();
    }
  }
}

void LineSplitter::report_io_failure() {
  if (!io_failed_ || io_reported_) return;
  io_reported_ = true;
  const SourceLoc loc{line_ + 1, 1};
  std::string msg = "trace read failed (stream error); " +
                    std::to_string(line_) + " lines salvaged";
  if (tail_discarded_) {
    msg += "; partial final line discarded";
  }
  if (diags_ == nullptr || diags_->strict()) {
    throw Error(ErrorKind::Io, std::move(msg), loc);
  }
  diags_->report(DiagSeverity::Error, DiagCode::TraceIoError, std::move(msg),
                 loc);
}

}  // namespace tdt::trace
