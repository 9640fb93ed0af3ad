#include "log/reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/hash.hpp"

namespace optm::log {

// --- SegmentReader ----------------------------------------------------------

SegmentReader::~SegmentReader() { close_map(); }

void SegmentReader::close_map() {
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
  }
}

bool SegmentReader::fail(const std::string& what) {
  if (error_.empty()) error_ = path_ + ": " + what;
  done_ = true;
  return false;
}

bool SegmentReader::open(const std::string& path, bool allow_torn_tail) {
  path_ = path;
  allow_torn_tail_ = allow_torn_tail;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail(std::string("open: ") + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int e = errno;
    ::close(fd);
    return fail(std::string("fstat: ") + std::strerror(e));
  }
  file_bytes_ = static_cast<std::size_t>(st.st_size);
  if (file_bytes_ == 0) {
    // A crash between creat and the header write leaves a zero-byte
    // file; for a final segment that is a torn stub (nothing to drop,
    // but still a tear — torn_stub_ carries the signal).
    ::close(fd);
    if (allow_torn_tail_) torn_stub_ = true;
    return fail("empty segment file");
  }
  void* map = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return fail(std::string("mmap: ") + std::strerror(errno));
  }
  map_ = static_cast<const unsigned char*>(map);
  map_bytes_ = file_bytes_;

  if (file_bytes_ < kSegmentHeaderBytes) {
    // A crash while creating the file can leave a short header. There is
    // nothing certifiable here; for a FINAL segment LogReader treats the
    // whole stub as a torn tail (signalled via dropped_bytes).
    if (allow_torn_tail_) {
      dropped_bytes_ = file_bytes_;
      torn_stub_ = true;
    }
    return fail("segment shorter than its header");
  }
  std::memcpy(&header_, map_, sizeof header_);
  if (header_.magic == 0 && allow_torn_tail_) {
    // A final segment whose header page never reached the disk: a crash
    // between sizing the file and the header write-back (the kernel may
    // write block pages before the header page, so the rest of the file
    // is untrustworthy even if nonzero), or the prepared-but-unwritten
    // next segment that earlier, pipelined writers kept pre-created.
    // Nothing here was ever reported durable — drop the whole file as a
    // torn stub.
    dropped_bytes_ = file_bytes_;
    torn_stub_ = true;
    return fail("segment header never written (torn stub)");
  }
  if (header_.magic != kSegmentMagic) return fail("bad segment magic");
  if (header_.format_version != kFormatVersion) {
    return fail("unsupported format version " +
                std::to_string(header_.format_version));
  }
  if (header_.header_bytes != kSegmentHeaderBytes) {
    return fail("unexpected header size");
  }
  if (header_.event_size != sizeof(core::Event)) {
    return fail("event size mismatch (log written by an incompatible build)");
  }
  const std::uint32_t crc =
      util::crc32c(map_, offsetof(SegmentHeader, header_crc));
  if (crc != header_.header_crc) return fail("segment header CRC mismatch");
  at_ = kSegmentHeaderBytes;
  next_stamp_ = header_.first_stamp;
  return true;
}

std::span<const core::Event> SegmentReader::torn(const std::string& what) {
  if (allow_torn_tail_) {
    dropped_bytes_ = file_bytes_ - at_;
    done_ = true;
    return {};
  }
  fail(what);
  return {};
}

std::span<const core::Event> SegmentReader::next() {
  if (done_ || map_ == nullptr) return {};
  if (at_ + sizeof(BlockHeader) > file_bytes_) {
    // Exact EOF is a clean seal. A remainder shorter than a BlockHeader
    // that is all zeroes is the pre-sized segment's padding, not a tear:
    // the 4 KiB header page is 16 mod 24 and blocks are 24+48n bytes, so
    // a segment that packs full leaves a zeroed residual of
    // (segment_bytes - 4096) mod 24 bytes — in (0, 24) for sizes like
    // 2 MiB or 8 MiB. Only a nonzero residual byte means a torn write.
    for (std::size_t i = at_; i < file_bytes_; ++i) {
      if (map_[i] != 0) {
        return torn("nonzero trailing bytes shorter than a block header");
      }
    }
    done_ = true;
    return {};
  }
  BlockHeader bh;
  std::memcpy(&bh, map_ + at_, sizeof bh);
  if (bh.block_magic == 0) {  // zeroed space: end of a pre-sized segment
    done_ = true;
    return {};
  }
  if (bh.block_magic != kBlockMagic) return torn("bad block magic");
  if (util::crc32c(map_ + at_, kBlockHeaderCrcBytes) != bh.header_crc) {
    return torn("block header CRC mismatch");
  }
  const std::size_t payload =
      std::size_t{bh.event_count} * sizeof(core::Event);
  if (at_ + sizeof(BlockHeader) + payload > file_bytes_) {
    return torn("block payload overruns the segment");
  }
  if (bh.event_count == 0) return torn("empty block");
  if (bh.first_stamp != next_stamp_) {
    // A header that passes CRC but breaks stamp continuity is corruption,
    // not tearing: never certify across a gap.
    fail("stamp discontinuity (expected " + std::to_string(next_stamp_) +
         ", block says " + std::to_string(bh.first_stamp) + ")");
    return {};
  }
  const unsigned char* body = map_ + at_ + sizeof(BlockHeader);
  if (util::crc32c(body, payload) != bh.payload_crc) {
    return torn("block payload CRC mismatch");
  }
  at_ += sizeof(BlockHeader) + payload;
  next_stamp_ += bh.event_count;
  events_read_ += bh.event_count;
  ++blocks_read_;
  return {reinterpret_cast<const core::Event*>(body), bh.event_count};
}

// --- LogReader --------------------------------------------------------------

bool LogReader::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  return false;
}

bool LogReader::open(const std::string& directory) {
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) return fail(directory + ": " + ec.message());
  for (const auto& entry : it) {
    const auto name = entry.path().filename().string();
    if (name.size() > std::strlen(kSegmentSuffix) &&
        name.rfind(kSegmentSuffix) == name.size() - std::strlen(kSegmentSuffix)) {
      files_.push_back(entry.path().string());
    }
  }
  if (files_.empty()) return fail(directory + ": no segment files");
  // seg-%06llu names outgrow their zero padding at 1,000,000 segments,
  // where plain lexicographic order would put seg-1000000 before
  // seg-999999. Shorter names (fewer digits) sort first; ties (equal
  // padding) stay lexicographic, which is numeric for zero-padded names.
  std::sort(files_.begin(), files_.end(),
            [](const std::string& a, const std::string& b) {
              const auto an = std::filesystem::path(a).filename().string();
              const auto bn = std::filesystem::path(b).filename().string();
              return an.size() != bn.size() ? an.size() < bn.size() : an < bn;
            });
  // A crash between creating a segment and writing its header leaves a
  // trailing headerless stub AFTER the segment that holds the real tail
  // (logs from earlier, pipelined writers, which kept the NEXT segment
  // pre-created while the current one filled, leave one routinely).
  // Drop that stub up front — otherwise the preceding segment would be
  // opened as non-final and its (legitimate, recoverable) torn tail
  // would hard-fail. Only the LAST file can be such a stub; a headerless
  // file anywhere else is still mid-log damage and hard-fails below.
  if (files_.size() >= 2 && trailing_stub(files_.back())) {
    tail_torn_ = true;
    files_.pop_back();
  }
  return open_current();
}

/// True when `path` is a headerless crash stub (zero-length, shorter
/// than a header, or an all-zero header magic): nothing in it was ever
/// reported durable. Counts its bytes as dropped.
bool LogReader::trailing_stub(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  bool stub = false;
  if (size < kSegmentHeaderBytes) {
    stub = true;  // includes the zero-length crash-between-creat-and-size case
  } else {
    std::uint64_t magic = 1;
    if (::pread(fd, &magic, sizeof magic, 0) == sizeof magic && magic == 0) {
      stub = true;
    }
  }
  ::close(fd);
  if (stub) dropped_bytes_ += size;
  return stub;
}

bool LogReader::open_current() {
  const bool is_last = cursor_ + 1 == files_.size();
  if (!seg_.open(files_[cursor_], /*allow_torn_tail=*/is_last)) {
    if (is_last && seg_.tail_dropped()) {
      // The whole final segment is a torn stub (crash during creation):
      // drop it and end the stream cleanly.
      dropped_bytes_ += seg_.dropped_bytes();
      tail_torn_ = true;
      finish_current();
      current_open_ = false;
      return true;
    }
    return fail(seg_.error());
  }
  const auto& h = seg_.header();
  if (h.segment_index != cursor_) {
    return fail(files_[cursor_] + ": segment index " +
                std::to_string(h.segment_index) + " at position " +
                std::to_string(cursor_));
  }
  if (h.first_stamp != expected_stamp_) {
    return fail(files_[cursor_] + ": first stamp " +
                std::to_string(h.first_stamp) + ", expected " +
                std::to_string(expected_stamp_));
  }
  LogMetadata meta;
  meta.runtime = std::string(h.runtime, ::strnlen(h.runtime, kRuntimeChars));
  meta.policy = std::string(h.policy, ::strnlen(h.policy, kPolicyChars));
  meta.window_mode =
      std::string(h.window_mode, ::strnlen(h.window_mode, kWindowModeChars));
  meta.num_vars = h.num_vars;
  meta.threads = h.threads;
  if (cursor_ == 0) {
    metadata_ = meta;
  } else if (meta.runtime != metadata_.runtime ||
             meta.policy != metadata_.policy ||
             meta.window_mode != metadata_.window_mode ||
             meta.num_vars != metadata_.num_vars) {
    return fail(files_[cursor_] + ": metadata differs from the first segment");
  }
  current_open_ = true;
  return true;
}

void LogReader::finish_current() {
  SegmentInfo info;
  info.file = files_[cursor_];
  info.index = cursor_;
  info.first_stamp = seg_.header().first_stamp;
  info.events = seg_.events_read();
  info.blocks = seg_.blocks_read();
  info.file_bytes = seg_.file_bytes();
  info.dropped_bytes = seg_.dropped_bytes();
  segments_.push_back(info);
  seg_.close_map();
}

std::span<const core::Event> LogReader::next() {
  while (ok() && current_open_) {
    auto batch = seg_.next();
    if (!batch.empty()) {
      events_read_ += batch.size();
      expected_stamp_ += batch.size();
      return batch;
    }
    if (!seg_.ok()) {
      fail(seg_.error());
      return {};
    }
    dropped_bytes_ += seg_.dropped_bytes();
    const bool torn = seg_.tail_dropped();
    if (torn) tail_torn_ = true;
    finish_current();
    current_open_ = false;
    ++cursor_;
    if (cursor_ >= files_.size()) break;
    if (torn) {
      // Only the final segment may be torn; seeing more files after a
      // drop means mid-log damage.
      fail(files_[cursor_ - 1] + ": torn tail in a non-final segment");
      break;
    }
    // Reset the per-segment reader state by constructing in place.
    seg_.~SegmentReader();
    new (&seg_) SegmentReader();
    if (!open_current()) break;
  }
  return {};
}

}  // namespace optm::log
