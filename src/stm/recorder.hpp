// The history recorder: turns live STM executions into core::History
// values that the checkers can judge.
//
// Every recorded event is stamped with a ticket from one atomic global
// sequence counter at the moment it semantically occurs (invocations before
// the shared-memory work of the operation, responses after the value is
// fixed, C at the commit point), so the stamp order is a legal linearization
// of the actual event order. Commit order is captured separately — it is
// the total order ≪ the certificate checker (Theorem 2) verifies against.
//
// Soundness of the certificate requires more than per-event atomicity: the
// *value sampling* of a read must be atomic with the recording of its
// response, and the *commit point* atomic with the recording of C —
// otherwise a descheduled thread records its event after a conflicting
// commit slipped in between, and the recorded ≪ is no longer a valid
// serialization even though the execution was correct. Optimistic
// runtimes therefore wrap those two short sections in a window on the
// recorder's reader/writer lock when a recorder is attached
// (RuntimeBase::RecWindow):
//
//   * sampling windows (shared) — value sampling of a read, or the C
//     record of a read-only transaction (which publishes nothing). They
//     may overlap each other: two concurrent samples cannot invalidate
//     each other's recorded order, only a conflicting commit can.
//   * commit windows (exclusive) — the commit point of an update
//     transaction (or any window that mutates committed register state,
//     e.g. eager in-place writes and their rollback).
//
// This reader/writer discipline preserves the Theorem-2 argument — no
// commit point can slip between a value sample and its record — while
// letting read-heavy recorded runs scale with cores. Recording mode still
// serializes commit points against sampling; it changes timing, never
// algorithm logic, and is intended for verification runs; benchmarks run
// unrecorded. The lock-based runtimes (glock, 2PL) need no window: their
// own locks already order sampling and commit points against recording
// (see the recording contract in runtime.hpp).
//
// WINDOW-FREE (stamped) recording drops even that discipline: a runtime
// that can justify every non-local read by a stamp interval
// (Stm::set_window_free) takes NO window at all and instead stamps the
// read response with its (rv, version) pair (Event::stamp = 2·rv+1,
// Event::ver). Two stamp sources exist, landing in one stamp space:
//
//   * CLOCK runtimes (tl2, tiny, norec): rv is the global version clock
//     the read was O(1)-validated against, ver the lock word's version
//     (kNoReadVersion for NOrec's value validation). MvStm is the
//     multi-version variant: rv is the begin-time snapshot, ver the ring
//     slot's writer ticket, and update commits draw their 2·wv ticket
//     after locking and before validating so the commit window can go
//     too.
//   * OREC runtimes (dstm, astm): no per-read clock check exists, so the
//     CAS-acquired ownership record is the stamp authority instead — a
//     committer publishes kCommitting through its status word (which
//     every owned orec points at) BEFORE drawing its clock ticket, and
//     write-backs store the 2·wv ticket as the orec version word; a
//     validation draws rv before examining any entry and waits out
//     kCommitting/kCommitted owners, making each passing read-set
//     simultaneously current at 2·rv+1. Reads stamp (2·rv+1, word/2).
//     Stolen orecs cannot poison the stamps: stealing requires the
//     victim's status to read kAborted, so the victim's C never records
//     and its buffered writes never become a version — see online.hpp.
//
// The recorder's job shrinks to assigning each push a globally ordered
// stamp; the Theorem-2 argument moves onto the stamps the runtime emits,
// checked by the kStampedRead version-order policy
// (core/version_order.hpp; the soundness argument is in core/online.hpp).
// Records may then drift — a read response can land after the C of a
// commit that overwrote the version it read, and C records of concurrent
// commits can land out of wv order — but reads-from is never inverted (a
// committer records C before write-back; a reader samples only after
// write-back), which is all the stamp checks need. history() and drain()
// carry the read stamps through untouched; the cross-runtime conformance
// suite differentially tests window-free against windowed recordings of
// identical schedules.
//
// LANE RECORDS. Each recording process appends to its own lane, lock-free
// against the others; a merge by stamp rebuilds the linearization. A lane
// stores each event as a variable-length run of 64-bit words, not a fixed
// struct: a header word (the 48-bit stamp, the 3-bit kind, the 5-bit op and
// one presence bit per payload field), a tx|obj word, then only the payload
// fields (arg, ret, stamp, ver) that are non-zero. A read invocation or
// tryC is 16 bytes, a write or a stamped C/A 24, a stamped read response
// 40, and no record exceeds 48 — about 25 bytes per event on the tl2 soak
// mix, against the 48 of a core::Event. The completion stamp travels on the
// C/A record itself (Event::stamp), so certificate_order() reads it from
// there. Lanes grow by 512 KiB chunks mapped pre-faulted straight from the
// OS and unmapped when the recorder dies; a record never straddles two
// chunks (a pad header closes a chunk the next record would overflow).
//
// DRAIN SIDE (the live-verification feed). drain() k-way merges each
// lane's published prefix directly out of the lanes' stable chunks,
// decoding every record straight into a caller-owned, reusable
// EventBatch — no intermediate per-lane copy, no per-drain allocation:
// the drain cursors cache the chunk pointers (chunks never move once
// mapped, so the per-lane spinlock is taken only when a lane has GROWN
// since the last drain), the merge heap is a reused member, and the batch
// keeps its high-water capacity across drains. A consumer therefore pays
// exactly one decode-copy per event, recorder chunk -> batch, for the
// lifetime of the pipeline. history() and certificate_order() decode
// through the same merge.
//
// CONSUMPTION is decoupled from draining by stm::EventSink (sink.hpp):
// the DrainPump loop owns the pacing and the reusable batch, and hands
// each stamp-contiguous batch to an interchangeable sink — certify live
// (MonitorSink), buffer in RAM (HistoryAppendSink), append to the
// durable segment log (log::LogWriterSink), or fan out (TeeSink). New
// consumers implement the sink interface instead of re-rolling this
// drain loop.
//
// PACING. A live consumer should neither busy-poll a quiet recorder nor
// let a burst build unbounded verdict latency. AdaptiveDrainPacer derives
// the poll threshold from the measured ingest rate (an EWMA of stamps
// issued between polls): bursts raise the threshold toward max_interval so
// batches amortize the merge, quiet periods drop it toward min_interval
// and an idle-poll flush bounds the tail — so the events between a
// violation being recorded and the monitor latching it stay under
// Options::max_pending whatever the workload does (the cadence tests
// enforce both the convergence and the latency bound).
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/history.hpp"
#include "core/version_order.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/api.hpp"
#include "util/spin.hpp"

namespace optm::stm {

/// Caller-owned, reusable drain buffer: a thin wrapper over a contiguous
/// event array whose capacity survives clear(), so a steady-state
/// drain/ingest loop allocates nothing. Recorder::drain APPENDS to it;
/// consumers clear() between drains and hand span() to
/// OnlineCertificateMonitor::ingest.
class EventBatch {
 public:
  void clear() noexcept { events_.clear(); }
  void reserve(std::size_t n) { events_.reserve(n); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return events_.capacity();
  }
  [[nodiscard]] const core::Event& operator[](std::size_t i) const noexcept {
    return events_[i];
  }
  [[nodiscard]] std::span<const core::Event> span() const noexcept {
    return events_;
  }
  [[nodiscard]] auto begin() const noexcept { return events_.begin(); }
  [[nodiscard]] auto end() const noexcept { return events_.end(); }
  void push_back(const core::Event& e) { events_.push_back(e); }

 private:
  std::vector<core::Event> events_;
};

/// Self-pacing policy for a live drain loop (see the file header). All
/// units are EVENTS (recorder stamps), so behavior is deterministic and
/// directly testable: no wall clock enters the decision.
class AdaptiveDrainPacer {
 public:
  struct Options {
    /// Poll-threshold floor/ceiling, in pending events.
    std::uint64_t min_interval = 64;
    std::uint64_t max_interval = 8192;
    /// Hard verdict-latency bound: a drain is forced once this many events
    /// are pending, whatever the rate estimate says.
    std::uint64_t max_pending = 16384;
    /// Consecutive polls with pending work but NO new ingest before a
    /// flush (bounds latency when the lanes go quiet mid-batch).
    std::uint32_t idle_polls = 4;
    /// The threshold targets this many polls' worth of ingest per drain.
    std::uint32_t target_polls = 4;
    /// EWMA smoothing for the per-poll ingest rate.
    double alpha = 0.25;
  };

  AdaptiveDrainPacer() noexcept : AdaptiveDrainPacer(Options()) {}
  explicit AdaptiveDrainPacer(const Options& options) noexcept
      : options_(options), interval_(clamp(options.min_interval)) {}

  /// One poll: `issued` = Recorder::stamps_issued(), `pending` =
  /// Recorder::approx_pending(). True -> the caller should drain now.
  [[nodiscard]] bool should_drain(std::uint64_t issued,
                                  std::uint64_t pending) noexcept {
    // stamps_issued() is monotone; guard anyway so a swapped-in counter
    // cannot underflow the rate estimate.
    const std::uint64_t delta = issued >= last_issued_ ? issued - last_issued_ : 0;
    last_issued_ = issued;
    if (delta > 0) {
      rate_ = rate_ <= 0.0 ? static_cast<double>(delta)
                           : options_.alpha * static_cast<double>(delta) +
                                 (1.0 - options_.alpha) * rate_;
      interval_ = clamp(static_cast<std::uint64_t>(
          rate_ * static_cast<double>(options_.target_polls)));
      idle_ = 0;
    }
    if (pending == 0) {
      idle_ = 0;
      return false;
    }
    if (pending >= interval_ || pending >= options_.max_pending) return true;
    if (delta == 0 && ++idle_ >= options_.idle_polls) return true;
    return false;
  }

  /// Report a completed drain (resets the idle-flush counter; the rate
  /// estimate feeds purely off stamps_issued deltas, so the batch size
  /// itself is not a parameter).
  void on_drain() noexcept { idle_ = 0; }

  /// Current poll threshold, in pending events (what converges).
  [[nodiscard]] std::uint64_t interval() const noexcept { return interval_; }

 private:
  [[nodiscard]] std::uint64_t clamp(std::uint64_t x) const noexcept {
    const std::uint64_t hi =
        std::min(options_.max_interval, options_.max_pending);
    return std::max(options_.min_interval, std::min(x, hi));
  }

  Options options_;
  double rate_ = 0.0;
  std::uint64_t interval_;
  std::uint64_t last_issued_ = 0;
  std::uint32_t idle_ = 0;
};

/// The recorder. Each lane is a single-writer chunked word buffer: the
/// owning process encodes the event as one variable-length record (see
/// the file header),
/// stamps it from one atomic sequence counter, and publishes it with a
/// release store of the lane's word count — the hot path is one fetch_add
/// and a few plain stores, no lock. (The lane's spinlock guards only
/// chunk-list growth, once per 512 KiB, and reader snapshots of that
/// list.) A merge by stamp reconstructs the legal linearization. The
/// stamps of published events are globally contiguous except for events
/// still in flight on other lanes; drain() (the epoch merge) therefore
/// consumes exactly the longest stamp-contiguous prefix, which is a
/// complete, stable prefix of the linearization even while recording
/// continues — the feed for live batch verification.
class Recorder {
 public:
  /// Size of one lane chunk, mapped pre-faulted from the OS. Smaller
  /// chunks mean more mmap/munmap calls (128 KiB measured a few percent
  /// slower e2ebench set-up on a 4-core VM); larger ones a larger unused
  /// tail in each lane's last chunk.
  static constexpr std::size_t kChunkBytes = std::size_t{512} << 10;

  explicit Recorder(std::size_t num_vars)
      : model_(core::ObjectModel::registers(num_vars, 0)) {}

  /// Allocate a fresh transaction id (starts at 1; 0 is the §5.4
  /// initializer).
  [[nodiscard]] core::TxId begin_tx() {
    return next_tx_.fetch_add(1, std::memory_order_relaxed);
  }

  // The hooks: `lane` is the recording process's slot (ctx.id()),
  // < sim::kMaxThreads, and selects its single-writer lane.
  void on_inv(std::uint32_t lane, core::TxId tx, VarId var, core::OpCode op,
              core::Value arg) {
    push(lane, core::ev::inv(tx, var, op, arg));
  }
  /// `stamp`/`ver` are a stamped read's (2·rv+1, version) pair — see
  /// Event::stamp and Event::ver; 0/0 means unstamped.
  void on_ret(std::uint32_t lane, core::TxId tx, VarId var, core::OpCode op,
              core::Value arg, core::Value ret, std::uint64_t stamp = 0,
              std::uint64_t ver = 0) {
    push(lane, core::ev::ret(tx, var, op, arg, ret, stamp, ver));
  }
  void on_try_commit(std::uint32_t lane, core::TxId tx) {
    push(lane, core::ev::try_commit(tx));
  }
  /// `stamp` is the transaction's serialization stamp within the run. For
  /// runtimes that re-validate the whole read set at the commit point
  /// (DSTM, visible-read, 2PL) the commit record order IS the
  /// serialization order — they pass stamp = 0 and certificate_order()
  /// falls back to record order. Clock-based runtimes serialize read-only
  /// transactions at their snapshot time (TL2's rv, MV's ub), which may lie
  /// before already-recorded commits; they pass composite stamps (2·wv for
  /// updates, 2·rv+1 for read-only) so certificate_order() can interleave
  /// them correctly.
  void on_commit(std::uint32_t lane, core::TxId tx, std::uint64_t stamp = 0) {
    push(lane, core::ev::commit(tx, stamp));
  }
  void on_try_abort(std::uint32_t lane, core::TxId tx) {
    push(lane, core::ev::try_abort(tx));
  }
  /// `stamp` is the serialization point of the ABORTED transaction — the
  /// moment its (validated) reads were simultaneously current. Clock-based
  /// runtimes pass 2·rv+1 (the snapshot they read from); record-order
  /// runtimes pass 0 and certificate_order() anchors the transaction at
  /// its last response (its last successful whole-read-set validation).
  void on_abort(std::uint32_t lane, core::TxId tx, std::uint64_t stamp = 0) {
    push(lane, core::ev::abort(tx, stamp));
  }

  /// The reader/writer lock behind the recording windows
  /// (RuntimeBase::RecWindow): sampling windows hold it shared, commit
  /// windows exclusively.
  [[nodiscard]] util::SharedSpinLock& window_lock() noexcept {
    return window_lock_;
  }

  /// Snapshot of the recorded history. Exact in quiescence (no recording
  /// hook concurrently in flight); during a run it returns the published
  /// prefix-with-gaps and is intended for monitoring only.
  [[nodiscard]] core::History history() const {
    core::History h(model_);
    h.reserve(num_events());
    for_each_recorded([&h](const core::Event& e) { h.append(e); });
    return h;
  }

  /// The certificate ≪ of the recorded history: core::stamped_anchor_order
  /// (each transaction keyed by its C/A stamp, then its anchor position).
  [[nodiscard]] std::vector<core::TxId> certificate_order() const {
    std::vector<core::Event> events;
    events.reserve(num_events());
    for_each_recorded([&events](const core::Event& e) { events.push_back(e); });
    return core::stamped_anchor_order(events);
  }

  /// Events stamped so far. Exact in quiescence; during a run it also
  /// counts the few events whose records are still being written.
  [[nodiscard]] std::size_t num_events() const {
    return seq_.load(std::memory_order_acquire);
  }

  /// Events stamped so far (one stamp is one event) — the ingest-rate
  /// signal AdaptiveDrainPacer's EWMA feeds on.
  [[nodiscard]] std::uint64_t stamps_issued() const noexcept {
    return seq_.load(std::memory_order_acquire);
  }

  /// Events recorded but not yet drained — the quantity AdaptiveDrainPacer
  /// paces on. Approximate by nature (both ends move concurrently).
  [[nodiscard]] std::uint64_t approx_pending() const noexcept {
    return seq_.load(std::memory_order_acquire) -
           drained_events_.load(std::memory_order_acquire);
  }

  /// Lane memory holding published records, chunk-closing pads included
  /// (bytes_used() / num_events() is the mean encoded event size).
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    std::size_t words = 0;
    for (const Lane& lane : lanes_) {
      words += lane.count.load(std::memory_order_acquire);
    }
    return words * sizeof(Word);
  }

  /// Size of the lane record that encodes `e`: 16 bytes plus 8 per
  /// non-zero payload field, at most 48.
  [[nodiscard]] static std::size_t record_bytes(const core::Event& e) noexcept {
    return record_words(presence(e)) * sizeof(Word);
  }

  /// Epoch merge: append to `out` the not-yet-drained events whose stamps
  /// belong to the contiguous completed prefix of the global stamp
  /// sequence, at most `max_events` of them (the oldest first). Safe to
  /// call concurrently with recording (from ONE draining thread); events
  /// in flight past the first stamp gap, or past the bound, stay pending
  /// until a later drain. A k-way merge over the per-lane chunk cursors
  /// (each lane is stamp-sorted by construction), decoding each record
  /// exactly once, chunk -> out; the cursors cache the stable chunk
  /// pointers, so the per-lane spinlock is touched only when a lane grew a
  /// new chunk, and nothing is allocated once `out` and the cursor caches
  /// reach their high-water capacity. Returns the number of events
  /// appended.
  std::size_t drain(EventBatch& out,
                    std::size_t max_events = std::numeric_limits<std::size_t>::max()) {
    const std::lock_guard<std::mutex> guard(merge_mu_);
    if (next_seq_ == seq_.load(std::memory_order_acquire)) return 0;
    const std::size_t consumed =
        merge(cursors_, heap_, next_seq_, max_events, /*live=*/true,
              [&out](const core::Event& e) { out.push_back(e); });
    drained_events_.store(
        drained_events_.load(std::memory_order_relaxed) + consumed,
        std::memory_order_release);
    return consumed;
  }

  [[nodiscard]] const core::ObjectModel& model() const noexcept {
    return model_;
  }

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kChunkWords = kChunkBytes / sizeof(Word);

  // Header word: stamp in bits 0-47, kind in 48-50, op in 51-55, the
  // presence bits of the payload fields in 56-59.
  static constexpr unsigned kKindShift = 48;
  static constexpr unsigned kOpShift = 51;
  static constexpr unsigned kPresenceShift = 56;
  static constexpr Word kSeqMask = (Word{1} << kKindShift) - 1;
  static constexpr unsigned kHasArg = 1;
  static constexpr unsigned kHasRet = 2;
  static constexpr unsigned kHasStamp = 4;
  static constexpr unsigned kHasVer = 8;
  /// The kind no event has: a header of this kind closes its chunk.
  static constexpr Word kPadKind = 7;
  static constexpr Word kPad = kPadKind << kKindShift;
  static_assert(static_cast<unsigned>(core::EventKind::kAbort) < kPadKind);
  static_assert(static_cast<unsigned>(core::OpCode::kContains) < 32);
  static_assert(sizeof(core::TxId) == 4 && sizeof(core::ObjId) == 4);

  [[nodiscard]] static unsigned presence(const core::Event& e) noexcept {
    return (e.arg != 0 ? kHasArg : 0U) | (e.ret != 0 ? kHasRet : 0U) |
           (e.stamp != 0 ? kHasStamp : 0U) | (e.ver != 0 ? kHasVer : 0U);
  }
  [[nodiscard]] static std::size_t record_words(unsigned present) noexcept {
    return 2 + static_cast<std::size_t>(std::popcount(present));
  }
  [[nodiscard]] static std::uint64_t seq_of(Word header) noexcept {
    return header & kSeqMask;
  }

  /// Decode the record at `p` into `e`; returns its length in words.
  static std::size_t decode(const Word* p, core::Event& e) noexcept {
    const Word header = p[0];
    const auto present = static_cast<unsigned>(header >> kPresenceShift) & 0xFU;
    e.kind = static_cast<core::EventKind>((header >> kKindShift) & 0x7U);
    e.op = static_cast<core::OpCode>((header >> kOpShift) & 0x1FU);
    e.tx = static_cast<core::TxId>(p[1] >> 32);
    e.obj = static_cast<core::ObjId>(p[1]);
    const Word* w = p + 2;
    e.arg = (present & kHasArg) != 0 ? static_cast<core::Value>(*w++) : 0;
    e.ret = (present & kHasRet) != 0 ? static_cast<core::Value>(*w++) : 0;
    e.stamp = (present & kHasStamp) != 0 ? *w++ : 0;
    e.ver = (present & kHasVer) != 0 ? *w++ : 0;
    return static_cast<std::size_t>(w - p);
  }

  struct ChunkUnmap {
    void operator()(Word* chunk) const noexcept { ::munmap(chunk, kChunkBytes); }
  };
  using ChunkPtr = std::unique_ptr<Word, ChunkUnmap>;

  /// A fresh chunk straight from the OS, pre-faulted (MAP_POPULATE), so
  /// the recording hot path takes no page faults and the memory goes back
  /// to the OS, not to an allocator arena, when the recorder dies.
  [[nodiscard]] static ChunkPtr map_chunk() {
    void* p = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return ChunkPtr(static_cast<Word*>(p));
  }

  /// One per-process single-writer buffer, addressed by word index (chunk
  /// c holds words [c·kChunkWords, (c+1)·kChunkWords)). The owning process
  /// is the only writer; it publishes each record with a release store of
  /// `count`, the words written so far. Readers load `count` (acquire) and
  /// may then read any word below it — chunks never move once mapped, so
  /// no lock is needed on the hot path. The spinlock guards chunk-list
  /// growth (once per kChunkBytes) and reader snapshots of the
  /// chunk-pointer list. `tail`/`end` are the writer's private cache of
  /// the current chunk and the word index one past it. Padded so lanes do
  /// not false-share.
  struct alignas(64) Lane {
    mutable util::SpinLock mu;
    std::vector<ChunkPtr> chunks;
    Word* tail{nullptr};
    std::size_t end{0};
    std::atomic<std::size_t> count{0};
  };

  void push(std::uint32_t lane_id, const core::Event& e) {
    // A lane id out of range is a caller bug (the same id already indexes
    // RuntimeBase::rec_tx_); wrapping it would merge two writers onto one
    // single-writer lane and wedge drain() on a never-published stamp.
    assert(lane_id < sim::kMaxThreads);
    Lane& lane = lanes_[lane_id];
    const unsigned present = presence(e);
    const std::size_t words = record_words(present);
    std::size_t at = lane.count.load(std::memory_order_relaxed);
    if (at + words > lane.end) {
      // The record does not fit: close the chunk with a pad header (unless
      // it is exactly full) and continue at the start of a fresh one,
      // mapped outside the lock.
      if (at < lane.end) lane.tail[at + kChunkWords - lane.end] = kPad;
      ChunkPtr chunk = map_chunk();
      const std::lock_guard<util::SpinLock> guard(lane.mu);
      lane.tail = chunk.get();
      lane.chunks.push_back(std::move(chunk));
      at = lane.end;
      lane.end += kChunkWords;
    }
    Word* p = lane.tail + (at + kChunkWords - lane.end);
    p[1] = (Word{e.tx} << 32) | e.obj;
    Word* w = p + 2;
    if ((present & kHasArg) != 0) *w++ = static_cast<Word>(e.arg);
    if ((present & kHasRet) != 0) *w++ = static_cast<Word>(e.ret);
    if ((present & kHasStamp) != 0) *w++ = e.stamp;
    if ((present & kHasVer) != 0) *w = e.ver;
    // The stamp is drawn at the instant of recording (inside the caller's
    // window, when one is held): its order is the semantic order. The
    // fetch_add can be relaxed: RMWs on one atomic are totally ordered and
    // happens-before implies modification order, so any cross-thread
    // ordering established by the runtime (or a window) yields ordered
    // stamps; the release store of `count` is what publishes the record.
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    assert(seq <= kSeqMask);
    p[0] = seq | (static_cast<Word>(e.kind) << kKindShift) |
           (static_cast<Word>(e.op) << kOpShift) |
           (static_cast<Word>(present) << kPresenceShift);
    lane.count.store(at + words, std::memory_order_release);
  }

  /// Reader-side view of one lane: the word index of the next record, the
  /// lane's word count when last loaded, and the cached (stable) chunk
  /// pointers covering it.
  struct Cursor {
    std::vector<const Word*> chunks;
    std::size_t taken = 0;
    std::size_t published = 0;

    [[nodiscard]] const Word* at(std::size_t i) const noexcept {
      return chunks[i / kChunkWords] + i % kChunkWords;
    }
  };
  using Cursors = std::array<Cursor, sim::kMaxThreads>;
  using Heap = std::vector<std::pair<std::uint64_t, std::size_t>>;  // (stamp, lane)

  /// Reload a cursor's published count and (only if the lane grew a chunk)
  /// extend its chunk-pointer cache under the lane spinlock.
  void load(std::size_t l, Cursor& cur) const {
    const Lane& lane = lanes_[l];
    cur.published = lane.count.load(std::memory_order_acquire);
    if (cur.published > cur.chunks.size() * kChunkWords) {
      const std::lock_guard<util::SpinLock> guard(lane.mu);
      for (std::size_t c = cur.chunks.size(); c < lane.chunks.size(); ++c) {
        cur.chunks.push_back(lane.chunks[c].get());
      }
    }
  }

  /// The header of the cursor's next record, stepping over a chunk-closing
  /// pad; nullptr once every loaded word is consumed. A pad is published
  /// together with the record that starts the next chunk, so the step
  /// always lands on a published record.
  [[nodiscard]] static const Word* next_record(Cursor& cur) noexcept {
    if (cur.taken == cur.published) return nullptr;
    const Word* p = cur.at(cur.taken);
    if (((*p >> kKindShift) & 0x7U) == kPadKind) {
      cur.taken = (cur.taken / kChunkWords + 1) * kChunkWords;
      p = cur.at(cur.taken);
    }
    return p;
  }

  /// k-way merge of the lanes' records by stamp from `cursors` onward,
  /// decoding at most `max_events` of them into `emit`. `live` (the drain):
  /// only the stamp-contiguous run starting at `next_seq`, reloading a
  /// lane that runs dry mid-run so a burst still being published keeps
  /// feeding it. Otherwise (a snapshot): every loaded record, gaps and
  /// all. Returns the number of events emitted.
  template <class Emit>
  std::size_t merge(Cursors& cursors, Heap& heap, std::uint64_t& next_seq,
                    std::size_t max_events, bool live, Emit&& emit) const {
    heap.clear();
    for (std::size_t l = 0; l < cursors.size(); ++l) {
      load(l, cursors[l]);
      if (const Word* p = next_record(cursors[l])) heap.push_back({seq_of(*p), l});
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});

    std::size_t emitted = 0;
    while (emitted < max_events && !heap.empty() &&
           (!live || heap.front().first == next_seq)) {
      next_seq = heap.front().first;
      const std::size_t l = heap.front().second;
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
      Cursor& cur = cursors[l];
      // Consume the lane's whole run of consecutive stamps before going
      // back to the heap (runs are long when one thread records a burst).
      for (;;) {
        core::Event e;
        cur.taken += decode(cur.at(cur.taken), e);
        emit(e);
        ++next_seq;
        if (++emitted == max_events) break;
        const Word* p = next_record(cur);
        if (p == nullptr && live) {
          load(l, cur);
          p = next_record(cur);
        }
        if (p == nullptr) break;
        if (seq_of(*p) != next_seq) {
          // This lane's next stamp is not adjacent: park it in the heap.
          heap.push_back({seq_of(*p), l});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          break;
        }
      }
    }
    return emitted;
  }

  /// Every published event, in stamp order (gaps of in-flight events
  /// skipped), through a private set of cursors.
  template <class Emit>
  void for_each_recorded(Emit&& emit) const {
    Cursors cursors;
    Heap heap;
    std::uint64_t next_seq = 0;
    (void)merge(cursors, heap, next_seq, std::numeric_limits<std::size_t>::max(),
                /*live=*/false, emit);
  }

  core::ObjectModel model_;
  std::array<Lane, sim::kMaxThreads> lanes_;
  std::atomic<std::uint64_t> seq_{0};
  /// Events drained so far (event units, accumulated per drain).
  std::atomic<std::uint64_t> drained_events_{0};
  std::atomic<core::TxId> next_tx_{1};
  util::SharedSpinLock window_lock_;

  // Epoch-merge cursor state (drain side only, under merge_mu_).
  std::mutex merge_mu_;
  Cursors cursors_;
  Heap heap_;
  std::uint64_t next_seq_ = 0;  // first stamp not yet drained
};

}  // namespace optm::stm
