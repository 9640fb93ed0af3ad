// Log writer + recovery corpus: the golden optm-log-v1 byte layout, a
// write failure mid-segment, and crash artifacts at every segment stage.
//
// A kill can leave on-disk states a clean close never produces: a
// trailing segment file that was created and sized but whose header page
// never reached the disk (a crash between create and header write-back,
// or the NEXT segment that logs written by earlier, pipelined writers
// kept pre-created while the current one filled). Each kill-stage test
// below reconstructs one such state exactly and asserts the recovery
// taxonomy: the reader yields an exact prefix of the recording (or
// reports a torn tail) and NEVER certifies fabricated history; headerless
// files anywhere but the tail stay hard errors.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/event.hpp"
#include "log/format.hpp"
#include "log/log_sink.hpp"
#include "log/reader.hpp"
#include "log/writer.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/hash.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace optm;
namespace fs = std::filesystem;

fs::path scratch_root() {
  return fs::path(::testing::TempDir()) /
         ("optm_log_recovery_" + std::to_string(::getpid()));
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = scratch_root() / tag;
  fs::remove_all(dir);
  return dir;
}

std::vector<core::Event> make_events(std::size_t n) {
  std::vector<core::Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(core::ev::try_commit(static_cast<core::TxId>(i + 1)));
  }
  return events;
}

/// Write `events` in fixed-size appends into a small-segment log.
std::uint64_t write_log(const fs::path& dir,
                        const std::vector<core::Event>& events,
                        std::size_t chunk = 200) {
  log::WriterOptions wopt;
  wopt.directory = dir.string();
  wopt.segment_bytes = 16 * 1024;
  wopt.metadata.runtime = "tl2";
  wopt.metadata.policy = "commit-order";
  wopt.metadata.window_mode = "windowed";
  wopt.metadata.num_vars = 8;
  log::LogWriter writer(wopt);
  for (std::size_t i = 0; i < events.size(); i += chunk) {
    const std::size_t n = std::min(chunk, events.size() - i);
    EXPECT_TRUE(writer.append({events.data() + i, n})) << writer.error();
  }
  EXPECT_TRUE(writer.close()) << writer.error();
  return writer.segments_written();
}

std::vector<fs::path> sorted_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<char> slurp(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct ReplayOutcome {
  bool reader_ok = false;
  bool torn = false;
  std::vector<core::Event> events;
};

ReplayOutcome replay(const fs::path& dir) {
  ReplayOutcome out;
  log::LogReader reader;
  if (!reader.open(dir.string())) return out;
  for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
    out.events.insert(out.events.end(), batch.begin(), batch.end());
  }
  out.reader_ok = reader.ok();
  out.torn = reader.tail_dropped();
  return out;
}

void expect_prefix_of(const ReplayOutcome& out,
                      const std::vector<core::Event>& orig) {
  ASSERT_LE(out.events.size(), orig.size());
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    ASSERT_EQ(out.events[i], orig[i]) << "diverges from recording at " << i;
  }
}

/// Drop a pre-sized, headerless segment file — the artifact a kill leaves
/// between creating a segment and its header write-back.
void add_stub(const fs::path& dir, std::uint64_t index, std::size_t bytes) {
  std::ofstream out(dir / log::segment_file_name(index), std::ios::binary);
  if (bytes != 0) {
    const std::vector<char> zeros(bytes, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
}

void flip_byte(const fs::path& file, std::uintmax_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  ASSERT_TRUE(f.good());
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
  ASSERT_TRUE(f.good());
}

/// Zero file content starting at `from` — a page the kernel never wrote
/// back before the kill.
void zero_from(const fs::path& file, std::uintmax_t from) {
  const auto size = fs::file_size(file);
  ASSERT_LT(from, size);
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  const std::vector<char> zeros(static_cast<std::size_t>(size - from), 0);
  f.seekp(static_cast<std::streamoff>(from));
  f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  ASSERT_TRUE(f.good());
}

// --- golden byte layout ------------------------------------------------------

/// Fully populated, pairwise distinct events, so a shifted, reordered or
/// dropped payload byte cannot compare equal.
std::vector<core::Event> golden_events(std::size_t n) {
  std::vector<core::Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(core::ev::ret(
        static_cast<core::TxId>(i + 1), static_cast<core::ObjId>(i % 7),
        core::OpCode::kWrite, static_cast<core::Value>(3 * i + 1),
        static_cast<core::Value>(5 * i + 2), 2 * i + 1, i + 9));
  }
  return events;
}

template <typename T>
void put_bytes(std::vector<char>& out, const T* data, std::size_t bytes) {
  const auto* p = reinterpret_cast<const char*>(data);
  out.insert(out.end(), p, p + bytes);
}

/// The bytes optm-log-v1 prescribes for one segment, from format.hpp and
/// the reference CRC-32C alone: the 4 KiB header page (used bytes, rest
/// zero), then per block a BlockHeader and its payload. `blocks` holds
/// each block's event count; the segment's first event is
/// `events[first_stamp]`. A non-tail segment is zero-filled to its full
/// capacity; the tail ends at its last block.
std::vector<char> golden_segment(std::uint64_t index, std::size_t capacity,
                                 std::uint64_t first_stamp,
                                 const std::vector<std::size_t>& blocks,
                                 const std::vector<core::Event>& events,
                                 bool tail) {
  log::SegmentHeader h;
  h.segment_index = index;
  h.segment_bytes = capacity;
  h.first_stamp = first_stamp;
  h.num_vars = 8;
  std::memcpy(h.runtime, "tl2", 3);
  std::memcpy(h.policy, "commit-order", 12);
  std::memcpy(h.window_mode, "windowed", 8);
  h.header_crc =
      util::crc32c_reference(&h, offsetof(log::SegmentHeader, header_crc));
  std::vector<char> out(log::kSegmentHeaderBytes, 0);
  std::memcpy(out.data(), &h, log::kSegmentHeaderUsedBytes);

  std::uint64_t stamp = first_stamp;
  for (const std::size_t n : blocks) {
    const core::Event* payload = events.data() + stamp;
    log::BlockHeader bh;
    bh.event_count = static_cast<std::uint32_t>(n);
    bh.first_stamp = stamp;
    bh.payload_crc = util::crc32c_reference(payload, n * sizeof(core::Event));
    bh.header_crc = util::crc32c_reference(&bh, log::kBlockHeaderCrcBytes);
    put_bytes(out, &bh, sizeof bh);
    put_bytes(out, payload, n * sizeof(core::Event));
    stamp += n;
  }
  EXPECT_LE(out.size(), capacity);
  if (!tail) out.resize(capacity, 0);
  return out;
}

// The golden layout, compared byte for byte with what LogWriter writes.
// A capacity of 4096 + 1048 bytes and these appends give:
//   seg 0: blocks of 10 and 10 events, then 40 zero bytes — room for a
//          block header but not for an event, so the writer rotates and
//          the reader sees a zero block_magic;
//   seg 1: blocks of 1, 5 and 14 events packed full, leaving a 16-byte
//          all-zero residual shorter than a BlockHeader;
//   seg 2: the tail, blocks of 16 and 3 events, truncated to its used
//          size at close.
// The second and fourth appends are split at segment capacity.
TEST(LogRecovery, GoldenByteLayout) {
  constexpr std::size_t kCapacity = log::kSegmentHeaderBytes + 1048;
  const std::size_t appends[] = {10, 11, 5, 30, 3};
  const auto events = golden_events(59);
  const fs::path dir = fresh_dir("golden");
  log::WriterOptions wopt;
  wopt.directory = dir.string();
  wopt.segment_bytes = kCapacity;
  wopt.metadata.runtime = "tl2";
  wopt.metadata.policy = "commit-order";
  wopt.metadata.window_mode = "windowed";
  wopt.metadata.num_vars = 8;
  {
    log::LogWriter writer(wopt);
    std::size_t at = 0;
    for (const std::size_t n : appends) {
      ASSERT_TRUE(writer.append({events.data() + at, n})) << writer.error();
      at += n;
    }
    ASSERT_EQ(at, events.size());
    ASSERT_TRUE(writer.close()) << writer.error();
    EXPECT_EQ(writer.blocks_written(), 7u);
  }

  struct Segment {
    std::uint64_t first_stamp;
    std::vector<std::size_t> blocks;
    bool tail;
  };
  const Segment expected[] = {
      {0, {10, 10}, false}, {20, {1, 5, 14}, false}, {40, {16, 3}, true}};
  const auto files = sorted_files(dir);
  ASSERT_EQ(files.size(), std::size(expected));
  for (std::size_t i = 0; i < files.size(); ++i) {
    SCOPED_TRACE(files[i].filename().string());
    EXPECT_EQ(files[i].filename(), log::segment_file_name(i));
    const auto want = golden_segment(i, kCapacity, expected[i].first_stamp,
                                     expected[i].blocks, events,
                                     expected[i].tail);
    const auto got = slurp(files[i]);
    ASSERT_EQ(got.size(), want.size());
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    EXPECT_TRUE(diff.first == got.end())
        << "first differing byte at offset " << (diff.first - got.begin());
  }
  // The tail was truncated to exactly its used size.
  EXPECT_EQ(fs::file_size(files[2]), log::kSegmentHeaderBytes + 2 * 24 +
                                         19 * sizeof(core::Event));
  fs::remove_all(dir);
}

// --- write failure -----------------------------------------------------------

/// Lowers RLIMIT_FSIZE and ignores SIGXFSZ for its lifetime, so a write
/// past the limit fails with EFBIG instead of killing the process.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

// A write error mid-segment fails the stream, never the process. With
// RLIMIT_FSIZE 1000 bytes into the next block's payload, pwrite first
// writes short (up to the limit) and the retry then fails with EFBIG:
// append() reports false, error() names the call, close() fails, and the
// reader gets an exact prefix of the recording — the acked events, with
// nothing fabricated from the partial payload.
TEST(LogRecovery, WriteFailureMidSegmentFailsTheStreamNotTheProcess) {
  const auto events = make_events(600);
  const fs::path dir = fresh_dir("efbig");
  log::WriterOptions wopt;
  wopt.directory = dir.string();
  wopt.segment_bytes = 64 * 1024;
  log::LogWriter writer(wopt);
  ASSERT_TRUE(writer.append({events.data(), 100})) << writer.error();

  const std::size_t payload_at = log::kSegmentHeaderBytes +
                                 2 * sizeof(log::BlockHeader) +
                                 100 * sizeof(core::Event);
  const std::size_t limit = payload_at + 1000;  // mid-event
  bool appended = true;
  bool closed = true;
  std::string error;
  std::vector<char> landed;
  {
    const FileSizeLimit cap(limit);
    appended = writer.append({events.data() + 100, 500});
    error = writer.error();
    landed = slurp(dir / log::segment_file_name(0));
    closed = writer.close();
  }
  EXPECT_FALSE(appended);
  EXPECT_NE(error.find("pwrite("), std::string::npos) << error;
  EXPECT_NE(error.find(std::strerror(EFBIG)), std::string::npos) << error;
  EXPECT_FALSE(closed);
  EXPECT_EQ(writer.error(), error);  // the first failure stays latched
  EXPECT_EQ(writer.events_written(), 100u);

  // The short write landed (so the EFBIG came from the retry at the
  // limit), and nothing past the limit did.
  ASSERT_GT(landed.size(), limit);
  const auto* want = reinterpret_cast<const char*>(events.data() + 100);
  EXPECT_TRUE(std::equal(landed.begin() + payload_at,
                         landed.begin() + limit, want));
  EXPECT_EQ(landed[limit], 0);

  // Clean or torn tail, but never more than was acked, never different.
  const auto out = replay(dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_EQ(out.events.size(), 100u);
  expect_prefix_of(out, events);
  fs::remove_all(dir);
}

// --- kill-stage artifacts ----------------------------------------------------
//
// Build one clean multi-segment log, then reconstruct the exact on-disk
// state a kill at each segment stage would leave and assert recovery.

struct Corpus {
  fs::path dir;
  std::vector<core::Event> events;
  std::vector<fs::path> files;
  std::uint64_t segments = 0;
};

Corpus build_corpus(const std::string& tag) {
  Corpus c;
  c.dir = fresh_dir(tag);
  c.events = make_events(2500);
  c.segments = write_log(c.dir, c.events);
  c.files = sorted_files(c.dir);
  EXPECT_GE(c.segments, 3u);
  return c;
}

// Kill between the segment's open() and sizing: zero-byte trailing
// file. Recovered; the real segments read in full.
TEST(LogRecovery, KillAfterCreateLeavesZeroByteStub) {
  const Corpus c = build_corpus("kill_create");
  add_stub(c.dir, c.segments, 0);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);  // the stub is reported as a (empty) torn tail
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Kill mid-sizing: trailing file shorter than a segment header.
TEST(LogRecovery, KillDuringSizingLeavesShortStub) {
  const Corpus c = build_corpus("kill_sizing");
  add_stub(c.dir, c.segments, log::kSegmentHeaderBytes / 2);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Kill after sizing + dir fsync, before the header page was written:
// full-size all-zero file. Logs written by earlier, pipelined writers
// carry this artifact in steady state (they kept the next segment
// pre-created while the current one filled).
TEST(LogRecovery, KillAfterPrepareLeavesFullSizeZeroStub) {
  const Corpus c = build_corpus("kill_prepared");
  add_stub(c.dir, c.segments, 16 * 1024);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Kill after rotation but before the FINAL segment's header page hit the
// disk (writeback may flush block pages first, so the file can hold
// stray nonzero bytes past the zeroed header): the whole final segment
// is dropped — nothing in it was ever reported durable — and the log
// recovers to the prefix that precedes it, even with an old pipelined
// writer's pre-created next segment also present.
TEST(LogRecovery, KillBeforeHeaderWritebackDropsFinalSegment) {
  const Corpus c = build_corpus("kill_header");
  zero_from(c.files.back(), 0);  // header page lost; tail already truncated
  add_stub(c.dir, c.segments, 16 * 1024);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_LT(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Kill mid-block in the final real segment, a headerless stub also
// present: the classic torn tail plus an extra trailing file. The stub
// must not mask the torn-tail recovery of the segment before it.
TEST(LogRecovery, TornBlockTailBehindTrailingStubRecovers) {
  const Corpus c = build_corpus("kill_midblock");
  const auto size = fs::file_size(c.files.back());
  ASSERT_GT(size, log::kSegmentHeaderBytes + sizeof(log::BlockHeader) + 24);
  flip_byte(c.files.back(), size - 24);  // corrupt the last block's payload
  add_stub(c.dir, c.segments, 16 * 1024);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_LT(out.events.size(), c.events.size());
  EXPECT_GT(out.events.size(), 0u);
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// A headerless file in the MIDDLE of the log is not a crash artifact
// (only the last file can be a created-but-unwritten segment): it means
// a durable segment was destroyed, and certifying across it would gap
// the history. Hard error.
TEST(LogRecovery, MidLogStubIsHardError) {
  const Corpus c = build_corpus("mid_stub");
  ASSERT_GE(c.files.size(), 3u);
  zero_from(c.files[1], 0);  // destroy a mid-log segment's header
  const auto out = replay(c.dir);
  EXPECT_FALSE(out.reader_ok);
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Two trailing headerless files are byte-indistinguishable from the
// legitimate crash-after-rotation state (the just-swapped-to segment
// whose header page never hit the disk, followed by an old pipelined
// writer's pre-created next segment) — so recovery drops both. Nothing in either file was ever
// reported durable, so no history is fabricated.
TEST(LogRecovery, DoubleTrailingStubRecovers) {
  const Corpus c = build_corpus("double_stub");
  add_stub(c.dir, c.segments, 16 * 1024);
  add_stub(c.dir, c.segments + 1, 16 * 1024);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// A log that is ONLY a stub — kill before the first segment was ever
// taken by the writer — recovers to the empty prefix, reported torn:
// zero events were acked durable, and zero events is what comes back.
TEST(LogRecovery, LoneStubReadsAsEmptyTornLog) {
  const fs::path dir = fresh_dir("lone_stub");
  fs::create_directories(dir);
  add_stub(dir, 0, 16 * 1024);
  log::LogReader reader;
  ASSERT_TRUE(reader.open(dir.string())) << reader.error();
  EXPECT_TRUE(reader.next().empty());
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.events_read(), 0u);
  EXPECT_TRUE(reader.tail_dropped());
  fs::remove_all(dir);
}

// --- concurrency -------------------------------------------------------------

// The writer under the real drain pump, recording threads running
// concurrently: the TSan leg of CI runs this binary, so appending on the
// pump thread and closing on the test thread are checked for races, and
// the result must still read back as the full recording.
TEST(LogRecovery, ConcurrentWriterUnderDrainPump) {
  const fs::path dir = fresh_dir("pump");
  const std::uint32_t vars = 16;
  auto stm = stm::make_stm("tl2", vars);
  stm::Recorder recorder(vars);
  stm->set_recorder(&recorder);

  log::WriterOptions wopt;
  wopt.directory = dir.string();
  wopt.segment_bytes = 64 * 1024;
  wopt.metadata.runtime = "tl2";
  wopt.metadata.num_vars = vars;
  log::LogWriter writer(wopt);
  log::LogWriterSink log_sink(writer);

  std::atomic<bool> done{false};
  stm::DrainPump pump(recorder, log_sink);
  stm::DrainPump::Stats stats;
  std::thread pumper([&] { stats = pump.run(done); });

  wl::MixParams mix;
  mix.threads = 3;
  mix.vars = vars;
  mix.txs_per_thread = 400;
  mix.ops_per_tx = 4;
  mix.seed = 77;
  (void)wl::run_random_mix(*stm, mix);
  done.store(true, std::memory_order_release);
  pumper.join();

  ASSERT_TRUE(stats.sink_ok) << writer.error();
  ASSERT_TRUE(writer.close()) << writer.error();
  EXPECT_GE(writer.segments_written(), 2u);

  const auto out = replay(dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_FALSE(out.torn);
  EXPECT_EQ(out.events.size(), recorder.num_events());
  fs::remove_all(dir);
}

}  // namespace
