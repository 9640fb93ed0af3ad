// Online (streaming) opacity monitors.
//
// §5.2 observes that "a history of a TM is generated progressively and at
// each time the history of all events issued so far must be opaque" — the
// set of opaque histories is not prefix-closed, but a correct TM's run is
// judged prefix by prefix. These monitors consume one transactional event
// at a time, as a TM would emit them, and report the FIRST event whose
// prefix is condemned. Two backends with the usual exactness/efficiency
// trade:
//
//  * OnlineDefinitionalMonitor — exact. Replays Definition 1 on every
//    prefix that ends in a response-class event (invocations alone cannot
//    make an opaque prefix non-opaque: they add no return values and
//    complete no transaction, so the previous witness still works).
//    Exponential worst case; intended for checker-scale histories, tests,
//    and cross-validation of the certificate backend.
//
//  * OnlineCertificateMonitor — polynomial (amortized O(1) per event), for
//    register histories with value-unique writes. It is a SUFFICIENT
//    certificate, not a decision procedure: a clean run is certified
//    opaque-prefix-by-prefix; a flagged event is a certificate violation
//    (carrying a structured CertFlagKind) that the definitional backend
//    can then adjudicate. Reads from commit-pending writers (legal under
//    opacity via the set V — the H4 optimization) are flagged
//    conservatively with kReadFromNonCommitted; none of our runtimes
//    produce them, because the recorder window makes commit points atomic
//    with their C events.
//
// Both backends are single-threaded, and OnlineCertificateMonitor is the
// one certificate engine: live drains (stm::MonitorSink), recorded
// histories, logs replayed from disk (stream_verify.hpp) and network
// tenants (net/server.hpp) all feed it on the calling thread. A flag it
// raises can be settled against Definition 1 by core::adjudicate
// (adjudicate.hpp).
//
// The committed VERSION ORDER the certificate checks against is no longer
// hard-wired to the commit (C-record) order: the monitor takes a
// core::VersionOrderPolicy (see version_order.hpp) that decides how ranks
// are assigned:
//
//  * kCommitOrder (default) — PR 1's behavior byte for byte: the version
//    order is the commit order, update transactions serialize at their
//    commit rank. Correct for every single-version STM in this repository.
//  * kBlindWriteSmart — commit-order ranks until a window-based flag would
//    fire; then the §3.6 "smart" reorderings are searched (bounded, each
//    candidate verified exactly with the Theorem-2 certificate) and, on
//    success, the monitor retro-orders the offending version — re-opening
//    the windows the commit order had closed — and keeps streaming in
//    search mode. Checker-scale (it retains and replays the prefix).
//  * kSnapshotRank — ranks live in the runtimes' stamp space (Event::stamp:
//    2·wv on update commits, 2·snapshot+1 on snapshot-serialized commits).
//    Read-only transactions serialize at their snapshot point, which may
//    lie arbitrarily before their C event, and update commits' C records
//    may drift past each other (a window-free recorder) — the MV histories
//    the commit-order policy falsely flags.
//  * kStampedRead — kSnapshotRank plus validation of the per-read
//    (rv, version) stamp pair that window-free TL2-style recording puts on
//    non-local read responses (Event::stamp = 2·rv+1, Event::ver = the
//    version read). The policy for histories recorded with NO sampling
//    window at all.
//
// WINDOW-FREE SOUNDNESS (Theorem 2 on stamps). With the recorder's shared
// sampling window gone, a read's value sampling and the recording of its
// response are no longer atomic: the response record can drift past the C
// record of a commit that overwrote the version read, and C records of
// concurrent commits can drift past each other. The certificate survives
// because every claim it needs moved off record POSITIONS onto the stamps
// the runtime emits:
//
//   * reads-from is never inverted: a TL2-style committer records C
//     (drawing its global recorder stamp) BEFORE writing back, and a
//     reader samples the committed value only AFTER write-back, so the
//     writer's C precedes every dependent read response in the drained
//     stream — version records exist and are committed by the time a read
//     resolves against them (kReadFromNonCommitted cannot fire falsely);
//   * read validity is a stamp interval: a read stamped (rv, version)
//     claims its version was current at snapshot rv — version <= rv by the
//     runtime's O(1) validation, and the NEXT version of that register
//     carries wv' > rv because a writer locks the register before
//     advancing the clock (a reader that samples an unlocked old version
//     did so before the overwriter locked, hence before it advanced). So
//     2·rv+1 lies in the version's stamp interval [2·version, 2·wv')
//     regardless of where the records landed;
//   * the serialization checks are per-transaction stamp checks: an update
//     commit (2·wv) and a pinned read-only point (2·rv+1) must lie inside
//     the transaction's stamp-space snapshot window and above its birth
//     floor. The floor stays sound window-free: any C event recorded
//     before a transaction's first event drew its commit stamp before that
//     first event was recorded, hence before the transaction sampled its
//     snapshot — its rank is below every serialization point the
//     transaction can claim.
//
// OREC-SOURCED STAMPS (dstm/astm). The ownership-record runtimes have no
// per-read O(1) clock validation, but the same three claims hold with the
// orec machinery as the stamp authority (the full story is in
// stm/dstm.hpp):
//
//   * a committer CASes its status word to kCommitting BEFORE drawing its
//     clock ticket wv, and every owned orec points at that word — so the
//     intent to commit is visible through the data before the ticket
//     exists, exactly the role TL2's write locks play;
//   * a validation draws its snapshot rv BEFORE examining any read-set
//     entry and waits out kCommitting/kCommitted owners (bounded, then a
//     conservative abort — two committers each reading a variable the
//     other owns would deadlock an unbounded wait); an entry that passes
//     therefore has every future overwriter entering kCommitting — and
//     drawing its ticket — after the rv read, so all passing entries are
//     simultaneously current at stamp 2·rv+1. Reads are stamped
//     (2·rv+1, version/2), where the version word a reader sampled is the
//     writer's 2·wv ticket (write-backs store the ticket);
//   * reads-from is never inverted for the same reason as in TL2: C is
//     recorded after the kCommitted store and before write-back, and a
//     reader resolves a value only after write-back published it.
//
//   STOLEN ORECS cannot fake any of this: ownership can be stolen only
//   from a status word reading kAborted (or a stale epoch), never from
//   kCommitting/kCommitted — so a steal implies the victim aborted, its C
//   is never recorded, and its buffered writes never reach a version
//   word. The stamps on the victim's recorded reads keep naming the last
//   COMMITTED version, which is still the truth, and the victim's A event
//   installs nothing — so a committed read can never resolve against a
//   stolen (never-written-back) version, and reads-from cannot invert.
//
// MvStm's update commits join by the mirrored ordering: the committer
// locks its write set, draws 2·wv, THEN validates (lock → ticket →
// validate), so an overwriter of anything it read tickets strictly later;
// its reads are stamped (2·snapshot+1, ring stamp), truthful by the
// snapshot-read construction (see stm/mv.hpp).
//
// The recorded ≺_H (completion before first event, in RECORD order) is a
// subset of the real-time order of the record pushes, so a stamp
// serialization that respects the birth floors respects ≺_H — exactly the
// obligation Theorem 2's well-formedness side imposes.
//
// What the stamps do NOT prove by themselves is that the runtime told the
// truth; kStampedRead therefore cross-checks every claim it can (version
// identity, snapshot monotonicity) and the conformance harness
// (core/conformance.hpp) differentially tests window-free recordings
// against windowed recordings of identical schedules and against the exact
// definitional checker.
//
// The certificate backend maintains, per live transaction, the interval of
// serialization ranks ("the snapshot window") at which ALL its non-local
// reads were simultaneously current — the same snapshot-window idea as
// find_inconsistent_snapshot, but incremental:
//
//   * every committed write opens a version at the resolver-assigned rank
//     and closes the previous version of that register;
//   * a read intersects the transaction's window with the version's
//     [open, close) interval; an empty window is an inconsistent snapshot;
//   * a window that closes at or before the transaction's "birth floor"
//     (the resolver's floor at its first event) cannot be serialized
//     without violating the real-time order ≺_H — the stale-read case;
//   * at commit, an UPDATE transaction must additionally serialize inside
//     its window at its resolver rank (under kCommitOrder that rank is the
//     new top rank, so this degenerates to "reads still current at
//     commit"); a read-only transaction needs its pinned snapshot point
//     inside the window when the policy derives one, or merely a nonempty
//     window extending past its birth floor when it does not.
//
// SiStm's write skew is caught at the second skewed commit: the rival's
// commit closed a version the committer read, so the window no longer
// contains the commit rank.
//
// HOT-PATH COST MODEL. A steady-state event performs ZERO heap
// allocations and ZERO node-based hash-map probes, and the state it
// touches stays small enough to live in cache on long streams:
//
//   * Theorem 2's certificate needs a transaction's snapshot window only
//     while the transaction is live, and afterwards only its outcome (for
//     the §5.4 "reads from a committed writer" check). So the full TxState
//     exists only for LIVE transactions, in a pool whose slots are
//     recycled at C/A (last retired, first reused). Every TxId maps, in a
//     TxId-indexed slab (TxSlab — recorder ids are dense, so the id is the
//     index), to a 4-byte TxCode: unseen, committed, ended without
//     commit, or the live pool slot. Holder-window updates skip retired
//     transactions, and any event of a retired transaction fails
//     well-formedness with the reason its kDone phase implies;
//   * the (register, value) version namespace is an open-addressing flat
//     table (VersionTable — 16-byte slots over an append-only record
//     array, linear probing, no tombstones since versions are never
//     erased; both arrays are zero pages with huge-page advice, so growth
//     needs no fill pass). Each register's current version is held by
//     record index, so closing it at an install takes no probe;
//   * a transaction's executed writes are a sorted SmallWriteSet: inline
//     up to its capacity, then spilled into vectors RECYCLED through a
//     per-monitor pool at transaction completion (same ascending-register
//     iteration order as the std::map it replaced, so install order and
//     every flag position are unchanged);
//   * holder lists and the BlindWriteSmart retained prefix reuse their
//     high-water capacity; failure strings are built only when a flag
//     actually fires.
//
// reserve() pre-sizes all of it and faults its pages in (the live pool up
// to kLiveReserve concurrently live transactions);
// tests/core/monitor_alloc_test.cpp feeds 100k+ events under a counting
// operator-new and asserts literally zero allocations after warm-up for
// kCommitOrder/kSnapshotRank/kStampedRead, and a logarithmic number
// without reserve(). The design follows what production validation engines
// do to stay O(1) per event (TL2's per-stripe version arrays, NOrec's
// value-based fast path); behavioral equivalence with the pre-rebuild
// engine is enforced byte-for-byte (verdict + flagged position) by the
// conformance and batch differential suites, and tests/core/online_test.cpp
// pins every post-completion flag of a retired transaction.
//
// Under kBlindWriteSmart the retained prefix is now kept as an
// incrementally appended History, and search mode re-verifies each prefix
// by first extending the LAST CERTIFIED WITNESS with the transactions
// that appeared since (one exact pass in the common case) before falling
// back to the bounded §3.6 search — whose candidates are screened by the
// O(reads) StampPruneIndex scan (version_order.hpp) before any exact
// verify_opacity_certificate replay.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dense_state.hpp"
#include "core/history.hpp"
#include "core/opacity.hpp"
#include "core/version_order.hpp"

namespace optm::core {

struct OnlineViolation {
  /// Index (0-based) of the event whose prefix is condemned; the prefix
  /// h[0..pos] inclusive is the shortest bad one this monitor saw.
  std::size_t pos{0};
  std::string reason;
  /// Structured classification — what adjudication dispatches on.
  CertFlagKind kind{CertFlagKind::kNone};
  /// Transaction of the condemned event — what the §3.6 search
  /// prioritizes. Set by OnlineCertificateMonitor; kNoTx elsewhere.
  TxId tx{kNoTx};
};

/// Exact streaming monitor: Definition 1 on every response-ended prefix.
class OnlineDefinitionalMonitor {
 public:
  explicit OnlineDefinitionalMonitor(ObjectModel model,
                                     OpacityOptions options = {});

  /// Feed the next event. Returns false once a violation has been found
  /// (sticky); further events are recorded but not re-checked.
  bool feed(const Event& e);

  /// Batch ingestion: feed every event of `batch` in order. Returns the
  /// conjunction of the feeds (false once a violation is latched).
  bool ingest(std::span<const Event> batch);

  [[nodiscard]] bool ok() const noexcept { return !violation_.has_value(); }
  [[nodiscard]] const std::optional<OnlineViolation>& violation() const noexcept {
    return violation_;
  }
  [[nodiscard]] const History& history() const noexcept { return h_; }
  [[nodiscard]] std::size_t events_fed() const noexcept { return h_.size(); }

 private:
  History h_;
  OpacityOptions options_;
  std::optional<OnlineViolation> violation_;
};

/// Polynomial streaming certificate monitor (see file header for the
/// precise guarantee). Requires an all-register object model; throws
/// std::invalid_argument otherwise.
class OnlineCertificateMonitor {
 public:
  explicit OnlineCertificateMonitor(
      ObjectModel model,
      VersionOrderPolicy policy = VersionOrderPolicy::kCommitOrder);

  /// Feed the next event. Returns false once a violation has been found
  /// (sticky).
  bool feed(const Event& e);

  /// Batch ingestion — the feed for the sharded recorder's drain() and the
  /// recorded-mode pipeline. Equivalent to feeding every event of `batch`
  /// one at a time (the equivalence is tested), but amortizes the sticky
  /// violation handling across the batch. Returns false once a violation
  /// has been latched. Live pipelines usually reach this through
  /// stm::MonitorSink fed by a DrainPump (stm/sink.hpp); the same spans
  /// also arrive replayed from disk via log::LogReader and the pull-based
  /// front-end core::verify_event_stream (stream_verify.hpp).
  bool ingest(std::span<const Event> batch);

  /// Pre-size the dense hot-path state: the transaction slab (expected
  /// number of distinct TxIds), the version table (expected distinct
  /// (register, value) pairs, writes plus initial values), and optionally
  /// each register's holder list. After this, a feed within those bounds
  /// performs no heap allocation at all (monitor_alloc_test holds it to
  /// zero under a counting allocator).
  void reserve(std::size_t num_txs, std::size_t num_versions,
               std::size_t holders_per_register = 0);

  [[nodiscard]] bool ok() const noexcept { return !violation_.has_value(); }
  [[nodiscard]] const std::optional<OnlineViolation>& violation() const noexcept {
    return violation_;
  }
  [[nodiscard]] VersionOrderPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t events_fed() const noexcept { return pos_; }
  /// Committed update transactions seen so far.
  [[nodiscard]] std::size_t commits_seen() const noexcept { return commits_; }
  /// kBlindWriteSmart only: true once a §3.6 retro-ordering was needed (and
  /// found) — the monitor is replaying prefixes in search mode from then on.
  [[nodiscard]] bool retro_ordered() const noexcept { return search_mode_; }
  /// kBlindWriteSmart only: the §3.6 order that certified the last
  /// verified prefix (empty until a retro-ordering was needed).
  [[nodiscard]] const std::vector<TxId>& witness() const noexcept {
    return witness_;
  }

 private:
  static constexpr std::size_t kOpen = static_cast<std::size_t>(-1);

  /// Life-cycle of one transaction, §4's well-formedness state machine.
  enum class Phase : std::uint8_t {
    kIdle,           // between responses
    kOpPending,      // operation invoked, response outstanding
    kCommitPending,  // tryC issued
    kAbortPending,   // tryA issued
    kDone,           // C or A received (retired: only a TxCode remains)
  };

  /// Full state of a LIVE transaction. Held in a pool whose slots are
  /// recycled at C/A: once a transaction completes, only its outcome code
  /// survives (see TxCode).
  struct TxState {
    Phase phase{Phase::kIdle};
    bool committed{false};
    bool has_write{false};      // an executed write exists
    std::size_t birth_rank{0};
    std::size_t lo{0};          // window: max over reads of version open rank
    std::size_t hi{kOpen};      // min over reads of version close rank
    /// Largest read-stamp (2·rv+1) among the transaction's stamped reads —
    /// kStampedRead checks the commit stamp against it.
    std::uint64_t max_read_stamp{0};
    Event pending{};            // the outstanding invocation (kOpPending)
    /// Executed writes, latest value per register, ascending-register
    /// order (spill storage recycled via spill_pool_ at completion).
    SmallWriteSet writes;
  };

  /// A transaction's entry in the TxId-indexed slab: its outcome once it
  /// completed, else kLiveBase + its slot in live_. The default (0) is
  /// "never seen", as the slab requires. A completed transaction costs
  /// these 4 bytes and nothing else: the reads-from check needs only
  /// "committed?", holder updates skip it, and any further event of it
  /// fails well-formedness (a retired transaction is in phase kDone).
  using TxCode = std::uint32_t;
  static constexpr TxCode kUnseen = 0;
  static constexpr TxCode kCommitted = 1;
  static constexpr TxCode kEndedUncommitted = 2;  // aborted, or C not certified
  static constexpr TxCode kLiveBase = 3;
  static_assert(sizeof(TxCode) <= 4, "a completed transaction costs 4 bytes");
  /// Live-pool slots reserve() pre-sizes: the high-water number of
  /// concurrently live transactions a feed may reach allocation-free.
  static constexpr std::size_t kLiveReserve = 256;

  struct VersionRec {
    TxId writer{kNoTx};
    std::size_t open_rank{0};
    std::size_t close_rank{kOpen};
  };

  bool fail(CertFlagKind kind, const std::string& reason);
  /// First event of a transaction: take a live-pool slot for it (`code`
  /// becomes kLiveBase + slot) and record its birth floor.
  TxState& admit(TxCode& code);
  /// C or A of the live transaction in `code`'s slot: collapse it to its
  /// outcome and recycle the slot.
  void retire(TxCode& code, TxState& tx);
  bool on_operation_response(const Event& e, TxState& tx);
  bool on_commit(const Event& c, TxState& tx, TxId id);
  /// kBlindWriteSmart: called at a would-be repairable flag; tries the §3.6
  /// search on the retained prefix and, on success, switches to search mode.
  bool try_retro_order();
  /// Search mode: exact bounded re-verification of the retained prefix,
  /// extending the last certified witness first (incremental fast path).
  bool search_verify();

  ObjectModel model_;
  VersionOrderPolicy policy_;
  VersionOrderResolver resolver_;
  std::size_t pos_{0};
  std::size_t commits_{0};  // committed update transactions so far
  TxId cur_tx_{kNoTx};      // transaction of the event being fed
  bool search_mode_{false};
  /// Set when a successful retro-order already verified the current
  /// event's prefix (feed() then skips the redundant search).
  bool prefix_verified_{false};
  /// The fed prefix, retained only under kBlindWriteSmart (the reorder
  /// search and search-mode re-verification replay it), appended
  /// incrementally instead of rebuilt per search.
  History retained_;
  /// kBlindWriteSmart: the order that certified the last verified prefix;
  /// extended and tried first on the next one.
  std::vector<TxId> witness_;
  std::optional<OnlineViolation> violation_;
  /// TxId-indexed outcome/live-slot codes — the id is the index (dense by
  /// construction of both recorders; sparse ids overflow gracefully).
  TxSlab<TxCode> txs_;
  /// Full states of the live transactions; slots listed in free_live_ are
  /// recycled (last retired, first reused, so the slot is still cached).
  std::vector<TxState> live_;
  std::vector<std::uint32_t> free_live_;
  /// (register, value) -> version record; value-unique writes. Every read
  /// and write resolves against it, so it IS the hot path: an
  /// open-addressing flat table, records inline, no per-probe chasing.
  VersionTable<VersionRec> versions_;
  /// Register -> record index (VersionTable::index_of) of its current
  /// committed version: closing it at the next install takes no probe.
  std::vector<std::uint32_t> current_;
  /// Register -> live transactions holding the current version in their
  /// window (their hi must shrink when it closes).
  std::vector<std::vector<TxId>> holders_;
  /// Recycled SmallWriteSet spill storage (see dense_state.hpp).
  SmallWriteSet::SpillPool spill_pool_;
};

}  // namespace optm::core
