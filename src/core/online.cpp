#include "core/online.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/object_spec.hpp"

namespace optm::core {

// ---------------------------------------------------------------------------
// OnlineDefinitionalMonitor
// ---------------------------------------------------------------------------

OnlineDefinitionalMonitor::OnlineDefinitionalMonitor(ObjectModel model,
                                                     OpacityOptions options)
    : h_(std::move(model)), options_(options) {}

bool OnlineDefinitionalMonitor::feed(const Event& e) {
  h_.append(e);
  if (violation_.has_value()) return false;

  std::string why;
  if (!h_.well_formed(&why)) {
    violation_ = OnlineViolation{h_.size() - 1, "not well-formed: " + why,
                                 CertFlagKind::kNotWellFormed};
    return false;
  }
  // Invocations cannot break an opaque prefix: they add no return values
  // and complete no transaction, so the previous witness serialization
  // still serves (the new invocation is simply pending).
  if (e.is_invocation()) return true;

  const OpacityResult result = check_opacity(h_, options_);
  if (result.verdict != Verdict::kYes) {
    violation_ = OnlineViolation{
        h_.size() - 1,
        result.verdict == Verdict::kNo
            ? "prefix not opaque: " + result.reason
            : "search budget exhausted: " + result.reason,
        result.verdict == Verdict::kNo ? CertFlagKind::kNotOpaque
                                       : CertFlagKind::kBudgetExhausted};
    return false;
  }
  return true;
}

bool OnlineDefinitionalMonitor::ingest(std::span<const Event> batch) {
  bool ok = true;
  for (const Event& e : batch) ok = feed(e);
  return ok && !violation_.has_value();
}

// ---------------------------------------------------------------------------
// OnlineCertificateMonitor
// ---------------------------------------------------------------------------

OnlineCertificateMonitor::OnlineCertificateMonitor(ObjectModel model,
                                                   VersionOrderPolicy policy)
    : model_(std::move(model)), policy_(policy), resolver_(policy) {
  current_.resize(model_.size());
  holders_.resize(model_.size());
  versions_.reserve(model_.size() + 16);
  if (policy_ == VersionOrderPolicy::kBlindWriteSmart) {
    retained_ = History(model_);
  }
  for (ObjId r = 0; r < model_.size(); ++r) {
    const auto* reg = dynamic_cast<const RegisterSpec*>(&model_.spec(r));
    if (reg == nullptr) {
      throw std::invalid_argument(
          "online certificate monitor: register histories only");
    }
    // The initializer's version of every register: open from rank 0.
    const Value init = reg->initial_value();
    VersionRec& rec = versions_.slot(r, init);
    rec = VersionRec{kInitTx, 0, kOpen};
    current_[r] = versions_.index_of(rec);
  }
}

void OnlineCertificateMonitor::reserve(std::size_t num_txs,
                                       std::size_t num_versions,
                                       std::size_t holders_per_register) {
  txs_.reserve(num_txs);
  const std::size_t live = std::min(num_txs, kLiveReserve);
  live_.reserve(live);
  free_live_.reserve(live);
  versions_.reserve(num_versions);
  if (holders_per_register > 0) {
    for (auto& h : holders_) h.reserve(holders_per_register);
  }
}

bool OnlineCertificateMonitor::fail(CertFlagKind kind,
                                    const std::string& reason) {
  if (policy_ == VersionOrderPolicy::kBlindWriteSmart && !search_mode_ &&
      reorder_repairable(kind)) {
    // The flag is a statement about the commit order only; §3.6 permits
    // other version orders. Search them before condemning the prefix.
    if (try_retro_order()) return true;
  }
  violation_ = OnlineViolation{pos_, reason, kind, cur_tx_};
  return false;
}

bool OnlineCertificateMonitor::try_retro_order() {
  SmartReorderOptions options;
  options.prioritize = cur_tx_;
  SmartReorderResult found = smart_reorder_search(retained_, options);
  if (!found.certified) return false;
  // A §3.6 reordering certifies the prefix exactly: the retro-ordered
  // version re-opened the window the commit order had closed. The
  // incremental rank state is stale from here on — keep streaming by
  // replaying prefixes through the bounded search. This event's prefix is
  // already verified; feed() must not run the search a second time.
  witness_ = std::move(found.order);
  search_mode_ = true;
  prefix_verified_ = true;
  return true;
}

bool OnlineCertificateMonitor::search_verify() {
  // Incremental replay: the witness that certified the last prefix,
  // extended with the transactions that appeared since, is tried before
  // the bounded search — in the common case one exact pass re-verifies
  // the suffix past the last certified anchor.
  SmartReorderOptions options;
  options.prioritize = cur_tx_;
  options.hint = witness_.empty() ? nullptr : &witness_;
  SmartReorderResult found = smart_reorder_search(retained_, options);
  if (found.certified) {
    witness_ = std::move(found.order);
    return true;
  }
  violation_ = OnlineViolation{
      pos_,
      "no bounded smart reordering certifies the prefix (" +
          std::to_string(found.candidates_tried) + " candidate orders tried)",
      CertFlagKind::kSmartReorderFailed, cur_tx_};
  return false;
}

bool OnlineCertificateMonitor::on_operation_response(const Event& e,
                                                     TxState& tx) {
  if (e.op == OpCode::kWrite) {
    // Value-unique writes underpin reads-from resolution (§5.4).
    bool inserted = false;
    VersionRec& wrec = versions_.slot(e.obj, e.arg, &inserted);
    if (inserted) {
      wrec.open_rank = 0;
      wrec.close_rank = 0;  // uninstalled: the empty [0, 0) interval
    } else if (wrec.writer != e.tx) {
      return fail(CertFlagKind::kValueNotUnique,
                  tx_tag(e.tx) + " rewrote value " + std::to_string(e.arg) + " of x" +
                  std::to_string(e.obj) + " (value-unique writes required)");
    }
    wrec.writer = e.tx;  // ranks assigned at commit
    tx.has_write = true;
    tx.writes.set(e.obj, e.arg, spill_pool_);
    return true;
  }

  // Read response. Local reads must return the transaction's own latest
  // write and do not touch the window.
  const bool stamped =
      policy_ == VersionOrderPolicy::kStampedRead && e.stamp != 0;
  if (stamped && e.stamp > tx.max_read_stamp) tx.max_read_stamp = e.stamp;
  if (const Value* own = tx.writes.find(e.obj)) {
    if (*own != e.ret) {
      return fail(CertFlagKind::kLocalInconsistency,
                  tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                  std::to_string(e.ret) + " despite its own write of " +
                  std::to_string(*own) + " (local consistency)");
    }
    return true;
  }

  const VersionRec* v = versions_.find(e.obj, e.ret);
  if (v == nullptr) {
    return fail(CertFlagKind::kUnwrittenValue,
                tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                std::to_string(e.ret) + ", a value never written");
  }
  const VersionRec& rec = *v;
  if (rec.writer == e.tx) {
    return fail(CertFlagKind::kSelfRead,
                tx_tag(e.tx) + " read back its own value without a prior write");
  }
  if (rec.writer != kInitTx) {
    const TxCode* w = txs_.find(rec.writer);
    if (w == nullptr || *w != kCommitted) {
      // Possibly the H4 commit-pending case — conservative (see header).
      return fail(CertFlagKind::kReadFromNonCommitted,
                  tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                  std::to_string(e.ret) + " from non-committed T" +
                  std::to_string(rec.writer));
    }
  }

  if (stamped) {
    // The read claims it observed version `ver` while snapshot 2·rv+1 was
    // current; both halves must agree with the value-resolved version
    // chain (the Theorem-2-on-stamps cross-check, see the header; the
    // shared helper also guards 2·ver against the wrap attack).
    if (e.ver != kNoReadVersion &&
        !read_stamp_names_version(e.ver, rec.open_rank)) {
      return fail(CertFlagKind::kReadStampMismatch,
                  tx_tag(e.tx) + " stamped its read of x" + std::to_string(e.obj) +
                  "=" + std::to_string(e.ret) + " with version " +
                  std::to_string(e.ver) + " but the value belongs to the version "
                  "opened at rank " + std::to_string(rec.open_rank));
    }
    if (rec.open_rank > static_cast<std::size_t>(e.stamp)) {
      return fail(CertFlagKind::kReadStampMismatch,
                  tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                  std::to_string(e.ret) + " from a version opened at rank " +
                  std::to_string(rec.open_rank) + ", after its snapshot stamp " +
                  std::to_string(e.stamp));
    }
  }

  // Intersect the snapshot window with the version's validity interval.
  if (rec.open_rank > tx.lo) tx.lo = rec.open_rank;
  if (rec.close_rank < tx.hi) tx.hi = rec.close_rank;
  if (rec.close_rank == kOpen) holders_[e.obj].push_back(e.tx);

  if (tx.lo >= tx.hi) {
    return fail(CertFlagKind::kSnapshotEmpty,
                tx_tag(e.tx) + "'s reads form no consistent snapshot (window empty " +
                "after reading x" + std::to_string(e.obj) + "=" +
                std::to_string(e.ret) + ")");
  }
  if (tx.hi <= tx.birth_rank) {
    return fail(CertFlagKind::kStaleRead,
                tx_tag(e.tx) + " read the outdated x" + std::to_string(e.obj) + "=" +
                std::to_string(e.ret) +
                ", overwritten before the transaction's first event "
                "(real-time order)");
  }
  return true;
}

bool OnlineCertificateMonitor::on_commit(const Event& c, TxState& tx, TxId id) {
  // Serialization-point checks BEFORE installing this commit's writes.
  if (policy_ == VersionOrderPolicy::kStampedRead && c.stamp != 0 &&
      c.stamp < tx.max_read_stamp) {
    // Snapshots only ever slide forward; a commit stamp below a read
    // snapshot contradicts the runtime's own discipline.
    return fail(CertFlagKind::kReadStampMismatch,
                tx_tag(id) + " committed at stamp " + std::to_string(c.stamp) +
                " below its latest read snapshot " +
                std::to_string(tx.max_read_stamp));
  }
  std::size_t rank = 0;
  if (tx.has_write) {
    if (stamp_space(policy_)) {
      // The transaction serializes at its stamped rank, which must lie in
      // its snapshot window and above its birth floor — the generalized
      // form of "reads current at commit" (under kCommitOrder the rank is
      // the new top rank, so the two coincide).
      rank = resolver_.update_commit_rank(c);
      if (rank < tx.lo || rank >= tx.hi || rank <= tx.birth_rank) {
        return fail(CertFlagKind::kNotCurrentAtCommit,
                    tx_tag(id) + " committed updates at rank " +
                        std::to_string(rank) +
                        " outside its snapshot window (version order)");
      }
    } else {
      // Update transactions serialize at their commit rank: every read
      // version must still be open (SiStm's write skew dies here).
      if (tx.hi != kOpen) {
        return fail(CertFlagKind::kNotCurrentAtCommit,
                    tx_tag(id) + " committed updates although a version it read was "
                          "overwritten (reads not current at commit)");
      }
      rank = resolver_.update_commit_rank(c);
    }
  } else {
    const std::optional<std::size_t> point = resolver_.read_only_point(c);
    if (point.has_value()) {
      // The runtime pinned the serialization point (an MV snapshot): it
      // must lie in the window and above the birth floor.
      if (*point < tx.lo || *point >= tx.hi || *point <= tx.birth_rank) {
        return fail(CertFlagKind::kNoReadOnlyPoint,
                    tx_tag(id) + " (read-only) committed at snapshot point " +
                        std::to_string(*point) +
                        " outside its snapshot window");
      }
    } else if (tx.lo >= tx.hi || tx.hi <= tx.birth_rank) {
      return fail(CertFlagKind::kNoReadOnlyPoint,
                  tx_tag(id) + " (read-only) committed with no serialization point "
                        "compatible with real-time order");
    }
  }

  tx.committed = true;
  if (!tx.has_write) return true;

  // Install: one rank for the whole commit; each written register's
  // previous version closes here. (Ascending-register order, exactly as
  // the std::map-backed write set iterated.)
  ++commits_;
  for (const auto& [obj, value] : tx.writes) {
    versions_.record(current_[obj]).close_rank = rank;
    for (const TxId holder : holders_[obj]) {
      // A retired holder's window is never consulted again: skip it.
      const TxCode* code = txs_.find(holder);
      if (code == nullptr || *code < kLiveBase) continue;
      TxState& h = live_[*code - kLiveBase];
      if (rank < h.hi) h.hi = rank;
    }
    holders_[obj].clear();

    VersionRec& rec = versions_.slot(obj, value);
    rec.writer = id;
    rec.open_rank = rank;
    rec.close_rank = kOpen;
    current_[obj] = versions_.index_of(rec);
  }
  return true;
}

OnlineCertificateMonitor::TxState& OnlineCertificateMonitor::admit(
    TxCode& code) {
  std::uint32_t slot = 0;
  if (free_live_.empty()) {
    slot = static_cast<std::uint32_t>(live_.size());
    live_.emplace_back();
  } else {
    slot = free_live_.back();
    free_live_.pop_back();
  }
  code = kLiveBase + slot;
  TxState& tx = live_[slot];
  tx.birth_rank = resolver_.floor();
  return tx;
}

void OnlineCertificateMonitor::retire(TxCode& code, TxState& tx) {
  // The write set is installed, discarded, or the run is condemned:
  // recycle any spill storage for the next write-heavy transaction.
  tx.writes.release(spill_pool_);
  free_live_.push_back(code - kLiveBase);
  code = tx.committed ? kCommitted : kEndedUncommitted;
  tx = TxState{};
}

bool OnlineCertificateMonitor::feed(const Event& e) {
  if (violation_.has_value()) {
    ++pos_;
    return false;
  }
  if (policy_ == VersionOrderPolicy::kBlindWriteSmart) retained_.append(e);
  cur_tx_ = e.tx;
  TxCode& code = txs_.get(e.tx);
  // A retired transaction has no live state; it is in phase kDone, where
  // every event below fails well-formedness before touching `tx`.
  TxState* tx = nullptr;
  if (code == kUnseen) {
    tx = &admit(code);
  } else if (code >= kLiveBase) {
    tx = &live_[code - kLiveBase];
  }
  const Phase phase = tx != nullptr ? tx->phase : Phase::kDone;

  bool ok = true;
  switch (e.kind) {
    case EventKind::kInvoke:
      if (phase != Phase::kIdle) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " invoked an operation while not idle (well-formedness)");
      } else if (!model_.contains(e.obj)) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " invoked an operation on unknown object x" +
                  std::to_string(e.obj));
      } else {
        tx->phase = Phase::kOpPending;
        tx->pending = e;
      }
      break;
    case EventKind::kResponse:
      if (phase != Phase::kOpPending || !tx->pending.matches(e)) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " received a response with no matching invocation "
                        "(well-formedness)");
      } else {
        tx->phase = Phase::kIdle;
        if (search_mode_) {
          // The exact search replaces the register checks, but has_write
          // keeps feeding commits_seen().
          if (e.op == OpCode::kWrite) tx->has_write = true;
        } else {
          ok = on_operation_response(e, *tx);
        }
      }
      break;
    case EventKind::kTryCommit:
      if (phase != Phase::kIdle) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " issued tryC while not idle (well-formedness)");
      } else {
        tx->phase = Phase::kCommitPending;
      }
      break;
    case EventKind::kCommit:
      if (phase != Phase::kCommitPending) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " committed without tryC (well-formedness)");
      } else {
        if (search_mode_) {
          tx->committed = true;
          if (tx->has_write) ++commits_;
        } else {
          ok = on_commit(e, *tx, e.tx);
        }
        retire(code, *tx);
      }
      break;
    case EventKind::kTryAbort:
      if (phase != Phase::kIdle) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " issued tryA while not idle (well-formedness)");
      } else {
        tx->phase = Phase::kAbortPending;
      }
      break;
    case EventKind::kAbort:
      // A answers tryA, tryC, or a pending operation invocation.
      if (phase == Phase::kDone) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " aborted after completing (well-formedness)");
      } else {
        retire(code, *tx);  // aborted: writes never install
      }
      break;
  }
  // Search mode delegates the certificate to the exact bounded search on
  // every response-class prefix (invocations cannot break opacity); the
  // prefix that triggered a successful retro-order was verified by the
  // repair itself.
  if (ok && search_mode_ && e.is_response() && !prefix_verified_) {
    ok = search_verify();
  }
  prefix_verified_ = false;
  ++pos_;
  return ok;
}

bool OnlineCertificateMonitor::ingest(std::span<const Event> batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (violation_.has_value()) {
      // Sticky: the rest of the batch is recorded (events_fed) in one step
      // instead of churning through feed() per event.
      pos_ += batch.size() - i;
      return false;
    }
    (void)feed(batch[i]);
  }
  return !violation_.has_value();
}

}  // namespace optm::core
