#include "core/recoverability.hpp"

#include <limits>
#include <map>
#include <stdexcept>

namespace optm::core {

namespace {

/// Position of the commit event of each committed transaction.
std::map<TxId, std::size_t> commit_positions(const History& h) {
  std::map<TxId, std::size_t> pos;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i].kind == EventKind::kCommit) pos[h[i].tx] = i;
  }
  return pos;
}

}  // namespace

std::vector<bool> executed_invocations(const History& h) {
  std::vector<bool> executed(h.size(), false);
  std::map<TxId, std::size_t> pending;  // tx -> position of its open inv
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind == EventKind::kInvoke) {
      pending[e.tx] = i;
    } else if (e.kind == EventKind::kResponse) {
      const auto it = pending.find(e.tx);
      if (it != pending.end()) {
        executed[it->second] = true;
        pending.erase(it);
      }
    } else if (e.kind == EventKind::kAbort) {
      pending.erase(e.tx);  // A instead of a response: the op never executed
    }
  }
  return executed;
}

RecoverabilityResult check_recoverability(const History& h) {
  RecoverabilityResult result{true, ""};
  const auto& model = h.model();

  // Resolve reads-from by value (value-unique writes).
  std::map<std::pair<ObjId, Value>, TxId> writer_of;
  for (const Event& e : h.events()) {
    if (e.kind == EventKind::kInvoke && e.op == OpCode::kWrite) {
      const auto [it, inserted] =
          writer_of.emplace(std::make_pair(e.obj, e.arg), e.tx);
      if (!inserted && it->second != e.tx) {
        throw std::invalid_argument("recoverability: writes must be value-unique");
      }
    }
  }

  const auto commits = commit_positions(h);
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind != EventKind::kResponse || e.op != OpCode::kRead) continue;
    if (!model.contains(e.obj) || model.spec(e.obj).name() != "register") continue;

    const auto w = writer_of.find({e.obj, e.ret});
    if (w == writer_of.end() || w->second == e.tx) continue;  // initial / own
    const TxId reader = e.tx;
    const TxId writer = w->second;
    if (!h.is_committed(reader)) continue;  // only committed readers constrained

    if (!h.is_committed(writer)) {
      result.holds = false;
      result.reason = "committed T" + std::to_string(reader) +
                      " read from non-committed T" + std::to_string(writer);
      return result;
    }
    if (commits.at(writer) > commits.at(reader)) {
      result.holds = false;
      result.reason = tx_tag(reader) + " committed before T" +
                      std::to_string(writer) + " it read from";
      return result;
    }
  }
  return result;
}

RecoverabilityResult check_strict_recoverability(const History& h) {
  RecoverabilityResult result{true, ""};
  const auto& model = h.model();

  // For each transaction: position of its completion event (or end of H).
  std::map<TxId, std::size_t> completion;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind == EventKind::kCommit || e.kind == EventKind::kAbort)
      completion[e.tx] = i;
  }
  const std::size_t never = std::numeric_limits<std::size_t>::max();

  // For each (tx, obj): position of the first EXECUTED update (an
  // invocation answered by A never became an operation execution in the
  // paper's model — a refused lock request, say, does not access the
  // object).
  const std::vector<bool> executed = executed_invocations(h);
  std::map<std::pair<TxId, ObjId>, std::size_t> first_update;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind == EventKind::kInvoke && executed[i] &&
        !model.spec(e.obj).is_readonly(e.op)) {
      first_update.emplace(std::make_pair(e.tx, e.obj), i);
    }
  }

  for (const auto& [key, start] : first_update) {
    const auto [updater, obj] = key;
    const auto done = completion.count(updater) ? completion.at(updater) : never;
    for (std::size_t i = start + 1; i < h.size() && i < done; ++i) {
      const Event& e = h[i];
      if (e.kind == EventKind::kInvoke && executed[i] && e.obj == obj &&
          e.tx != updater) {
        result.holds = false;
        result.reason =
            tx_tag(e.tx) + " operated on x" + std::to_string(obj) +
            " while updater T" + std::to_string(updater) + " was incomplete";
        return result;
      }
    }
  }
  return result;
}

}  // namespace optm::core
