// Transactional events (paper §4, "Transactional events").
//
// A history is a sequence of these events. Invocation events (operation
// invocation, commit-try, abort-try) are initiated by transactions;
// response events (operation response, commit, abort) by the TM.
#pragma once

#include <string>

#include "core/types.hpp"

namespace optm::core {

enum class EventKind : std::uint8_t {
  kInvoke,     // inv_i(ob, op, args)
  kResponse,   // ret_i(ob, op, val)
  kTryCommit,  // tryC_i
  kCommit,     // C_i
  kTryAbort,   // tryA_i
  kAbort,      // A_i
};

[[nodiscard]] constexpr const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kInvoke: return "inv";
    case EventKind::kResponse: return "ret";
    case EventKind::kTryCommit: return "tryC";
    case EventKind::kCommit: return "C";
    case EventKind::kTryAbort: return "tryA";
    case EventKind::kAbort: return "A";
  }
  return "?";
}

/// Sentinel for Event::ver on stamped reads whose runtime validates by
/// VALUE rather than by a named version (NOrec): the snapshot claim
/// (Event::stamp) stands, but the version identity is left to value
/// resolution.
inline constexpr std::uint64_t kNoReadVersion = ~std::uint64_t{0};

struct Event {
  EventKind kind{EventKind::kInvoke};
  TxId tx{kNoTx};
  ObjId obj{kNoObj};     // valid for kInvoke / kResponse
  OpCode op{OpCode::kRead};
  Value arg{0};          // operation argument (kInvoke; copied onto kResponse)
  Value ret{0};          // return value (kResponse only)
  /// Serialization stamp of stamp-aware runtimes, in the runtime's stamp
  /// space (2·version for points at a committed version, 2·snapshot+1 for
  /// points at a snapshot). Carried by
  ///   * C/A events: 2·wv for committed updates, 2·snapshot+1 for
  ///     transactions that serialize at their snapshot (see
  ///     stm::Recorder::on_commit);
  ///   * non-local READ responses of window-free-capable runtimes:
  ///     2·rv+1, the snapshot the read was validated against (the `rv`
  ///     half of the read-stamp pair; `ver` below is the other half).
  /// 0 means "unstamped": the version order is the commit (record) order.
  /// The stamp-space version-order policies (core/version_order.hpp) read
  /// this instead of re-inferring ranks from the event stream.
  std::uint64_t stamp{0};
  /// The `version` half of a stamped read's (rv, version) pair: the
  /// runtime version of the value read (its writer's wv; stamp-space open
  /// rank 2·ver), or kNoReadVersion when the runtime validates by value
  /// (NOrec). Only meaningful on a kResponse read with stamp != 0.
  std::uint64_t ver{0};

  [[nodiscard]] constexpr bool is_invocation() const noexcept {
    return kind == EventKind::kInvoke || kind == EventKind::kTryCommit ||
           kind == EventKind::kTryAbort;
  }
  [[nodiscard]] constexpr bool is_response() const noexcept {
    return !is_invocation();
  }

  /// Do `*this` (an invocation) and `r` (a response) match in the paper's
  /// sense: same transaction, and for operations the same object/op?
  [[nodiscard]] constexpr bool matches(const Event& r) const noexcept {
    if (tx != r.tx) return false;
    switch (kind) {
      case EventKind::kInvoke:
        return (r.kind == EventKind::kResponse && obj == r.obj && op == r.op) ||
               r.kind == EventKind::kAbort;  // abort may replace a response
      case EventKind::kTryCommit:
        return r.kind == EventKind::kCommit || r.kind == EventKind::kAbort;
      case EventKind::kTryAbort:
        return r.kind == EventKind::kAbort;
      default:
        return false;
    }
  }

  friend constexpr bool operator==(const Event&, const Event&) noexcept = default;
};

/// Factory helpers mirroring the paper's notation.
namespace ev {

[[nodiscard]] constexpr Event inv(TxId tx, ObjId obj, OpCode op, Value arg = 0) noexcept {
  return Event{EventKind::kInvoke, tx, obj, op, arg, 0, 0};
}
[[nodiscard]] constexpr Event ret(TxId tx, ObjId obj, OpCode op, Value arg,
                                  Value val, std::uint64_t stamp = 0,
                                  std::uint64_t ver = 0) noexcept {
  return Event{EventKind::kResponse, tx, obj, op, arg, val, stamp, ver};
}
[[nodiscard]] constexpr Event try_commit(TxId tx) noexcept {
  return Event{EventKind::kTryCommit, tx, kNoObj, OpCode::kRead, 0, 0, 0};
}
[[nodiscard]] constexpr Event commit(TxId tx, std::uint64_t stamp = 0) noexcept {
  return Event{EventKind::kCommit, tx, kNoObj, OpCode::kRead, 0, 0, stamp};
}
[[nodiscard]] constexpr Event try_abort(TxId tx) noexcept {
  return Event{EventKind::kTryAbort, tx, kNoObj, OpCode::kRead, 0, 0, 0};
}
[[nodiscard]] constexpr Event abort(TxId tx, std::uint64_t stamp = 0) noexcept {
  return Event{EventKind::kAbort, tx, kNoObj, OpCode::kRead, 0, 0, stamp};
}

}  // namespace ev

/// "T<id>", the paper's name for a transaction, as flag and failure
/// messages spell it.
[[nodiscard]] std::string tx_tag(TxId tx);

/// Renders an event in the paper's notation, e.g. "inv1(x3, read)",
/// "ret2(x0, read -> 5)", "tryC1", "A2".
[[nodiscard]] std::string to_string(const Event& e);

}  // namespace optm::core
