// LogWriter: appends drained event batches to a segmented binary log
// (format.hpp) with plain pwrite. One writer owns one log directory;
// segments rotate at the configured capacity and a clean close()
// truncates the tail segment to its used size.
//
// Every step runs on the appending thread:
//
//   open a segment  — open(O_EXCL), fallocate to the full capacity
//                     (ftruncate where unsupported), fsync the directory,
//                     pwrite the 4 KiB header page;
//   append a block  — pwrite the payload, then its 24-byte block header;
//   rotate          — fdatasync the full segment inline, so a rotated
//                     segment is durable as soon as the next one opens;
//   close()         — ftruncate the tail to its used size, fsync it, and
//                     fsync the directory once more.
//
// Everything the writer reported ok is on disk once close() returns true.
// Crash-consistency invariants hold by construction: a segment's
// directory entry is durable before its header, the header page is
// written before any block, and a block's payload before its header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/event.hpp"
#include "log/format.hpp"

namespace optm::log {

/// The optm-soak-v1 metadata mirrored into every segment header, so a log
/// is self-describing: `checker_tool certify-log` recovers the policy and
/// the model size without side-channel flags.
struct LogMetadata {
  std::string runtime = "?";
  std::string policy = "?";
  std::string window_mode = "?";
  std::uint32_t num_vars = 0;
  std::uint32_t threads = 0;
};

struct WriterOptions {
  std::string directory;  // created if absent; must be empty of segments
  /// Per-segment capacity (header page included). Clamped up to
  /// kMinSegmentBytes. Default 64 MiB ≈ 1.4M events per segment.
  std::size_t segment_bytes = std::size_t{64} << 20;
  LogMetadata metadata;
};

/// Not thread-safe: exactly one thread appends (the drain pump). All
/// methods are no-ops after the first failure; check ok()/error().
class LogWriter {
 public:
  explicit LogWriter(WriterOptions options);
  ~LogWriter();
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Append one stamp-contiguous batch as one block (split across
  /// segments only when it outgrows the remaining capacity).
  bool append(std::span<const core::Event> events);

  /// Seal the log: truncate the tail segment to its used bytes and make
  /// it and the directory durable. Idempotent. append() after close()
  /// fails.
  bool close();

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  [[nodiscard]] std::uint64_t events_written() const noexcept { return events_written_; }
  [[nodiscard]] std::uint64_t blocks_written() const noexcept { return blocks_written_; }
  [[nodiscard]] std::uint64_t segments_written() const noexcept { return segments_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Directory fsyncs covering the segments this writer filled (one per
  /// segment created, one at close): the durability discipline
  /// regression tests assert on this — a synced segment whose DIRECTORY
  /// ENTRY is not durable can vanish wholesale in a crash, which recovery
  /// would misread as non-final damage and hard-fail.
  [[nodiscard]] std::uint64_t dir_fsyncs() const noexcept { return dir_fsyncs_; }

  /// Kept only for the end-to-end benchmark's layer metrics
  /// (`log.prep_stalls`, `log.flush_lag_peak`). The writer has no
  /// pipeline: `enabled` is always false and the counters are zero.
  struct PipelineStats {
    bool enabled = false;
    std::uint64_t prep_stalls = 0;
    std::uint64_t flush_lag_peak = 0;
  };
  [[nodiscard]] PipelineStats pipeline_stats() const noexcept { return {}; }

 private:
  bool open_segment();
  bool close_segment(bool truncate_to_used);
  bool sync_directory();
  bool fail(const std::string& what);
  /// fail() naming the syscall, the current segment file and errno.
  bool fail_io(const char* call);
  bool write_segment_header();
  /// Events that still fit in the current segment as one more block.
  [[nodiscard]] std::size_t room_events() const noexcept;
  bool put_block(std::span<const core::Event> events);

  WriterOptions options_;
  std::string error_;
  bool closed_ = false;

  int fd_ = -1;      // current segment, -1 between segments
  int dir_fd_ = -1;  // the log directory, held open for entry fsyncs
  std::string path_;  // current segment file, for error messages
  std::size_t used_ = 0;  // bytes written into the current segment

  std::uint64_t segments_ = 0;
  std::uint64_t events_written_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t dir_fsyncs_ = 0;
};

}  // namespace optm::log
