#include "core/legality.hpp"

#include <stdexcept>
#include <unordered_map>

namespace optm::core {

namespace {

/// Replay all operation events of `s` (in order) against fresh object
/// states; returns false at the first response mismatching its spec.
bool replay(const History& s, std::string* why) {
  SystemState state(s.model());
  std::unordered_map<TxId, Event> pending;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Event& e = s[i];
    switch (e.kind) {
      case EventKind::kInvoke:
        pending[e.tx] = e;
        break;
      case EventKind::kResponse: {
        const Event inv = pending.at(e.tx);
        pending.erase(e.tx);
        const Value expected = state.apply(inv.obj, inv.op, inv.arg);
        if (expected != e.ret) {
          if (why != nullptr) {
            *why = "event " + std::to_string(i) + " (" + to_string(e) +
                   "): specification requires return " + std::to_string(expected);
          }
          return false;
        }
        break;
      }
      default:
        break;  // tryC/C/tryA/A do not touch object state
    }
  }
  // A trailing pending invocation is permitted: sequential specifications
  // contain sequences ending with a pending invocation (paper §4).
  return true;
}

}  // namespace

bool sequential_legal(const History& s, std::string* why) {
  std::string wf;
  if (!s.well_formed(&wf)) {
    if (why != nullptr) *why = "not well-formed: " + wf;
    return false;
  }
  std::string seq;
  if (!s.is_sequential(&seq)) {
    if (why != nullptr) *why = "not sequential: " + seq;
    return false;
  }
  return replay(s, why);
}

bool transaction_legal(const History& s, TxId ti, std::string* why) {
  if (!s.contains(ti)) {
    if (why != nullptr) *why = "transaction not in history";
    return false;
  }
  // Largest subsequence with committed Tk ≺_S Ti, plus Ti itself.
  History sub(s.model());
  for (const Event& e : s.events()) {
    if (e.tx == ti || (s.is_committed(e.tx) && s.precedes(e.tx, ti))) {
      sub.append(e);
    }
  }
  std::string inner;
  if (!sequential_legal(sub, &inner)) {
    if (why != nullptr) {
      *why = tx_tag(ti) + " illegal: " + inner;
    }
    return false;
  }
  return true;
}

bool all_transactions_legal(const History& s, std::string* why) {
  for (TxId tx : s.transactions()) {
    if (!transaction_legal(s, tx, why)) return false;
  }
  return true;
}

}  // namespace optm::core
