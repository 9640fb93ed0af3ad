// Transaction histories (paper §4) and their derived notions: projections,
// equivalence, well-formedness, transaction status, real-time order,
// completions Complete(H), and the §5.4 register-history notions
// nonlocal(H), local consistency and consistency.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/object_spec.hpp"
#include "core/types.hpp"

namespace optm::core {

/// Status of a transaction in a history (paper §4, "Status of transactions").
enum class TxStatus : std::uint8_t {
  kCommitted,      // last event C_i
  kAborted,        // last event A_i
  kCommitPending,  // live, has issued tryC_i
  kLive,           // live, no tryC_i yet
};

[[nodiscard]] constexpr const char* to_string(TxStatus s) noexcept {
  switch (s) {
    case TxStatus::kCommitted: return "committed";
    case TxStatus::kAborted: return "aborted";
    case TxStatus::kCommitPending: return "commit-pending";
    case TxStatus::kLive: return "live";
  }
  return "?";
}

/// A (high-level) history: the sequence of all invocation and response
/// events of an execution, together with the object model giving each
/// shared object's sequential specification.
class History {
 public:
  History() = default;
  explicit History(ObjectModel model) : model_(std::move(model)) {}

  History& append(Event e) {
    events_.push_back(e);
    return *this;
  }

  /// Bulk append of an event run — THE conversion from the drain side
  /// (stm::EventBatch::span(), a log reader's block) into a history.
  History& append_batch(std::span<const Event> batch) {
    events_.insert(events_.end(), batch.begin(), batch.end());
    return *this;
  }

  /// Pre-size the event buffer for `events` events (no effect on content).
  void reserve(std::size_t events) { events_.reserve(events); }

  /// A history over `model` from one contiguous event run.
  [[nodiscard]] static History from_batch(ObjectModel model,
                                          std::span<const Event> batch) {
    History h(std::move(model));
    h.append_batch(batch);
    return h;
  }

  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const Event& operator[](std::size_t i) const { return events_[i]; }
  [[nodiscard]] const ObjectModel& model() const noexcept { return model_; }

  /// Transactions in H, ordered by first event (T_i ∈ H iff H|T_i nonempty).
  [[nodiscard]] std::vector<TxId> transactions() const;
  [[nodiscard]] bool contains(TxId tx) const;

  // --- projections -------------------------------------------------------

  /// H|Ti: longest subsequence with only Ti's events.
  [[nodiscard]] History project_tx(TxId tx) const;
  /// H|ob: longest subsequence with only operation events on ob.
  [[nodiscard]] History project_obj(ObjId obj) const;
  /// Committed-transactions-only subsequence (used by serializability).
  [[nodiscard]] History committed_only() const;

  /// H ≡ H': same transactions, identical H|Ti for every Ti.
  [[nodiscard]] bool equivalent(const History& other) const;

  /// H · H' concatenation.
  [[nodiscard]] History concat(const History& other) const;

  // --- well-formedness ----------------------------------------------------

  /// Paper §4 "we assume every history is well-formed": per-transaction
  /// alternation of invocations and matching responses, with termination
  /// rules (nothing after C/A; only C/A after tryC; only A after tryA),
  /// and every operation supported by its object's specification.
  [[nodiscard]] bool well_formed(std::string* why = nullptr) const;

  /// The pending invocation event of `tx`, if any.
  [[nodiscard]] std::optional<Event> pending_invocation(TxId tx) const;

  // --- status -------------------------------------------------------------

  [[nodiscard]] TxStatus status(TxId tx) const;
  [[nodiscard]] bool is_committed(TxId tx) const { return status(tx) == TxStatus::kCommitted; }
  [[nodiscard]] bool is_aborted(TxId tx) const { return status(tx) == TxStatus::kAborted; }
  [[nodiscard]] bool is_commit_pending(TxId tx) const {
    return status(tx) == TxStatus::kCommitPending;
  }
  [[nodiscard]] bool is_completed(TxId tx) const {
    const auto s = status(tx);
    return s == TxStatus::kCommitted || s == TxStatus::kAborted;
  }
  [[nodiscard]] bool is_live(TxId tx) const { return !is_completed(tx); }
  /// Aborted without having issued tryA.
  [[nodiscard]] bool is_forcefully_aborted(TxId tx) const;

  // --- real-time order ------------------------------------------------------

  /// Ti ≺_H Tj: Ti completed and Tj's first event follows Ti's last event.
  [[nodiscard]] bool precedes(TxId a, TxId b) const;
  [[nodiscard]] bool concurrent(TxId a, TxId b) const {
    return contains(a) && contains(b) && a != b && !precedes(a, b) && !precedes(b, a);
  }
  /// ≺_other ⊆ ≺_this (this history preserves the real-time order of `other`).
  [[nodiscard]] bool preserves_real_time_order_of(const History& other) const;

  /// No two transactions concurrent.
  [[nodiscard]] bool is_sequential(std::string* why = nullptr) const;
  /// No live transaction.
  [[nodiscard]] bool is_complete() const;

  // --- Complete(H) ----------------------------------------------------------

  /// Canonical representatives of Complete(H): one history per assignment of
  /// commit/abort to the commit-pending transactions (2^p total); every other
  /// live transaction is aborted (pending operation -> A; idle -> tryC, A).
  /// Inserted events are appended at the end in transaction-id order, which
  /// is without loss of generality for opacity (equivalence only constrains
  /// per-transaction subsequences and the real-time order used is ≺_H).
  /// Throws std::length_error if 2^p exceeds `max_results`.
  [[nodiscard]] std::vector<History> completions(std::size_t max_results = 1024) const;

  // --- §5.4 register-history notions ----------------------------------------

  /// nonlocal(H): H without local operation executions. A read of r by Ti is
  /// local if preceded in H|Ti by a write of Ti to r; a write is local if
  /// followed in H|Ti by another write of Ti to r.
  [[nodiscard]] History nonlocal() const;

  /// Every local read returns the transaction's own latest preceding write.
  [[nodiscard]] bool locally_consistent(std::string* why = nullptr) const;

  /// Locally consistent, and every non-local read in nonlocal(H) returns a
  /// value written in nonlocal(H) (the object's initial value counts as
  /// written by the implicit initializing transaction T0 of §5.4).
  [[nodiscard]] bool consistent(std::string* why = nullptr) const;

  // --- rendering --------------------------------------------------------------

  /// One event per line: "  3: ret2(x0, read -> 1)".
  [[nodiscard]] std::string str() const;
  /// Figure-style per-transaction lanes (like the paper's Figures 1 and 2).
  [[nodiscard]] std::string timeline() const;

 private:
  ObjectModel model_;
  std::vector<Event> events_;
};

// ---------------------------------------------------------------------------
// HistoryIndex: per-transaction digest used by all checkers
// ---------------------------------------------------------------------------

/// One operation execution (paper: exec_i(ob, op, args, val)); if the
/// response never arrived, `has_response` is false (pending invocation).
struct OpExec {
  ObjId obj{kNoObj};
  OpCode op{OpCode::kRead};
  Value arg{0};
  Value ret{0};
  bool has_response{false};
  std::size_t inv_pos{0};  // index of the invocation event in H
  std::size_t ret_pos{0};  // index of the response event (if any)
};

struct TxInfo {
  TxId id{kNoTx};
  TxStatus status{TxStatus::kLive};
  bool forcefully_aborted{false};
  std::size_t first_pos{0};  // index of first event in H
  std::size_t last_pos{0};   // index of last event in H
  std::vector<OpExec> ops;   // in program order; at most the last one pending
  bool read_only{true};      // no state-changing op (per the object specs)
};

/// Immutable digest of a well-formed history: transactions with their
/// operation sequences, statuses, and the real-time order. Checkers build
/// one of these instead of re-scanning the raw event list.
class HistoryIndex {
 public:
  /// Precondition: h.well_formed(). Throws std::invalid_argument otherwise.
  explicit HistoryIndex(const History& h);

  [[nodiscard]] const History& history() const noexcept { return *h_; }
  [[nodiscard]] const std::vector<TxInfo>& txs() const noexcept { return txs_; }
  [[nodiscard]] std::size_t num_txs() const noexcept { return txs_.size(); }

  /// Internal dense index of a TxId (txs()[i].id == tx).
  [[nodiscard]] std::size_t pos_of(TxId tx) const;

  /// Real-time order on dense indices: txs()[i] ≺_H txs()[j].
  [[nodiscard]] bool precedes(std::size_t i, std::size_t j) const noexcept {
    const auto& a = txs_[i];
    const auto& b = txs_[j];
    return (a.status == TxStatus::kCommitted || a.status == TxStatus::kAborted) &&
           a.last_pos < b.first_pos;
  }

 private:
  const History* h_;
  std::vector<TxInfo> txs_;
};

}  // namespace optm::core
