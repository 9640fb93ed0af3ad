#include "log/writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/hash.hpp"

namespace optm::log {

namespace {

void copy_padded(char* dst, std::size_t cap, const std::string& src) {
  std::memset(dst, 0, cap);
  std::memcpy(dst, src.data(), std::min(src.size(), cap - 1));
}

/// pwrite all `n` bytes at `offset`, retrying short writes and EINTR.
/// False with errno set on any other error.
[[nodiscard]] bool pwrite_all(int fd, const void* data, std::size_t n,
                              std::size_t offset) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      if (w == 0) errno = EIO;  // no progress on a regular file
      return false;
    }
    const auto done = static_cast<std::size_t>(w);
    p += done;
    n -= done;
    offset += done;
  }
  return true;
}

}  // namespace

LogWriter::LogWriter(WriterOptions options) : options_(std::move(options)) {
  options_.segment_bytes = std::max(options_.segment_bytes, kMinSegmentBytes);
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    fail("create_directories(" + options_.directory + "): " + ec.message());
    return;
  }
  // Hold the directory open for the lifetime of the writer: segment
  // creation/rotation/truncation must fsync the DIRECTORY too, or a crash
  // can lose the entry of a fully-synced segment (recovery would then
  // see a hole and hard-fail as non-final damage).
  dir_fd_ = ::open(options_.directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd_ < 0) {
    fail("open(" + options_.directory + "): " + std::strerror(errno));
    return;
  }
  // A directory that already holds segment files is someone else's log:
  // appending would interleave two recordings and the eventual
  // open(O_EXCL) would die with a bare "File exists". Refuse up front.
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    const auto name = entry.path().filename().string();
    if (name.size() > std::strlen(kSegmentSuffix) &&
        name.rfind(kSegmentSuffix) ==
            name.size() - std::strlen(kSegmentSuffix)) {
      fail("refusing to overwrite existing log in " + options_.directory +
           " (found " + name + ")");
      return;
    }
  }
  if (ec) fail("scan(" + options_.directory + "): " + ec.message());
}

LogWriter::~LogWriter() { close(); }

bool LogWriter::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  return false;
}

bool LogWriter::fail_io(const char* call) {
  const int e = errno;
  return fail(std::string(call) + "(" + path_ + "): " + std::strerror(e));
}

std::size_t LogWriter::room_events() const noexcept {
  const std::size_t cap = options_.segment_bytes;
  if (used_ + sizeof(BlockHeader) >= cap) return 0;
  return (cap - used_ - sizeof(BlockHeader)) / sizeof(core::Event);
}

bool LogWriter::write_segment_header() {
  SegmentHeader h;
  h.segment_index = segments_;
  h.segment_bytes = options_.segment_bytes;
  h.first_stamp = events_written_;
  h.num_vars = options_.metadata.num_vars;
  h.threads = options_.metadata.threads;
  copy_padded(h.runtime, kRuntimeChars, options_.metadata.runtime);
  copy_padded(h.policy, kPolicyChars, options_.metadata.policy);
  copy_padded(h.window_mode, kWindowModeChars, options_.metadata.window_mode);
  h.header_crc = util::crc32c(&h, offsetof(SegmentHeader, header_crc));
  // Copy only the used bytes into a zeroed page: sizeof(SegmentHeader)
  // includes trailing struct padding, whose (indeterminate) stack bytes
  // must not leak into the file — "rest of the page is zero" is part of
  // the format.
  unsigned char page[kSegmentHeaderBytes] = {};
  std::memcpy(page, &h, kSegmentHeaderUsedBytes);
  if (!pwrite_all(fd_, page, sizeof page, 0)) return fail_io("pwrite");
  used_ = kSegmentHeaderBytes;
  ++segments_;
  bytes_written_ += kSegmentHeaderBytes;
  return true;
}

bool LogWriter::open_segment() {
  path_ = (std::filesystem::path(options_.directory) /
           segment_file_name(segments_))
              .string();
  used_ = 0;
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_EXCL | O_CLOEXEC, 0644);
  if (fd_ < 0) return fail_io("open");
  // Size the file to the full capacity up front, so a crash leaves zeroed,
  // cleanly detectable space and rotation never changes the inode size.
  // fallocate reserves the blocks; filesystems without it fall back to a
  // sparse ftruncate. Either way the file is `segment_bytes` of zeroes.
  const auto bytes = static_cast<off_t>(options_.segment_bytes);
  if (::fallocate(fd_, 0, 0, bytes) != 0) {
    if (errno != EOPNOTSUPP && errno != ENOSYS && errno != EINVAL) {
      return fail_io("fallocate");
    }
    if (::ftruncate(fd_, bytes) != 0) return fail_io("ftruncate");
  }
  // The new segment's directory entry (name + inode) must be durable
  // before anything lands in it: otherwise a crash after rotation can
  // drop a whole mid-log segment even though its data was synced.
  return sync_directory() && write_segment_header();
}

bool LogWriter::sync_directory() {
  if (dir_fd_ < 0) return fail("directory fd not open");
  if (::fsync(dir_fd_) != 0) {
    return fail(std::string("fsync(directory): ") + std::strerror(errno));
  }
  ++dir_fsyncs_;
  return true;
}

bool LogWriter::put_block(std::span<const core::Event> events) {
  const std::size_t payload = events.size_bytes();
  BlockHeader bh;
  bh.event_count = static_cast<std::uint32_t>(events.size());
  bh.first_stamp = events_written_;
  bh.payload_crc = util::crc32c(events.data(), payload);
  bh.header_crc = util::crc32c(&bh, kBlockHeaderCrcBytes);
  // Payload first, header last: until the header bytes land, the reader
  // sees either zeroes (end of segment) or a CRC-failing torn tail.
  if (!pwrite_all(fd_, events.data(), payload, used_ + sizeof bh) ||
      !pwrite_all(fd_, &bh, sizeof bh, used_)) {
    return fail_io("pwrite");
  }
  used_ += sizeof(BlockHeader) + payload;
  bytes_written_ += sizeof(BlockHeader) + payload;
  events_written_ += events.size();
  ++blocks_written_;
  return true;
}

bool LogWriter::append(std::span<const core::Event> events) {
  if (!ok()) return false;
  if (closed_) return fail("append after close");
  while (!events.empty()) {
    if (fd_ < 0 && !open_segment()) return false;
    std::size_t room = room_events();
    if (room == 0) {
      if (!close_segment(/*truncate_to_used=*/false)) return false;
      if (!open_segment()) return false;
      room = room_events();
    }
    const std::size_t take = std::min(events.size(), room);
    // event_count is u32; a drained batch can't realistically exceed it,
    // but split defensively rather than truncate.
    const std::size_t n = std::min(take, std::size_t{0x7fffffff});
    if (!put_block(events.first(n))) return false;
    events = events.subspan(n);
  }
  return true;
}

bool LogWriter::close_segment(bool truncate_to_used) {
  if (fd_ < 0) return true;
  bool ok_here = true;
  if (truncate_to_used) {
    // The tail truncation is an INODE change, so it needs a full fsync.
    if (::ftruncate(fd_, static_cast<off_t>(used_)) != 0) {
      ok_here = fail_io("ftruncate(tail)");
    } else if (::fsync(fd_) != 0) {
      ok_here = fail_io("fsync(tail)");
    }
  } else if (::fdatasync(fd_) != 0) {
    // Rotation: the size was fixed at creation, so only data (and the
    // extent state fallocate left) is pending.
    ok_here = fail_io("fdatasync");
  }
  ::close(fd_);
  fd_ = -1;
  used_ = 0;
  return ok_here;
}

bool LogWriter::close() {
  if (closed_) return ok();
  closed_ = true;
  // An empty log still gets one (header-only) segment so the metadata —
  // and the fact that zero events were recorded — is durable.
  if (ok() && fd_ < 0 && segments_ == 0) open_segment();
  close_segment(/*truncate_to_used=*/true);
  // Seal the directory state (covers the tail truncation above) before
  // declaring the log closed.
  if (ok()) sync_directory();
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
    dir_fd_ = -1;
  }
  return ok();
}

}  // namespace optm::log
