#include "core/rigorous.hpp"

#include <limits>
#include <map>

#include "core/recoverability.hpp"

namespace optm::core {

RigorousResult check_rigorous(const History& h) {
  RigorousResult result{true, ""};

  // Condition 1: strict recoverability.
  const RecoverabilityResult strict = check_strict_recoverability(h);
  if (!strict.holds) {
    result.holds = false;
    result.reason = strict.reason;
    return result;
  }

  // Condition 2: no update on an object read by an incomplete transaction.
  const auto& model = h.model();
  std::map<TxId, std::size_t> completion;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind == EventKind::kCommit || e.kind == EventKind::kAbort)
      completion[e.tx] = i;
  }
  const std::size_t never = std::numeric_limits<std::size_t>::max();

  // Only operation executions count (see recoverability.hpp): a refused
  // request — an invocation answered by A — never touched the object.
  const std::vector<bool> executed = executed_invocations(h);
  std::map<std::pair<TxId, ObjId>, std::size_t> first_read;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind == EventKind::kInvoke && executed[i] &&
        model.spec(e.obj).is_readonly(e.op)) {
      first_read.emplace(std::make_pair(e.tx, e.obj), i);
    }
  }

  for (const auto& [key, start] : first_read) {
    const auto [reader, obj] = key;
    const auto done = completion.count(reader) ? completion.at(reader) : never;
    for (std::size_t i = start + 1; i < h.size() && i < done; ++i) {
      const Event& e = h[i];
      if (e.kind == EventKind::kInvoke && executed[i] && e.obj == obj &&
          e.tx != reader && !model.spec(e.obj).is_readonly(e.op)) {
        result.holds = false;
        result.reason =
            tx_tag(e.tx) + " updated x" + std::to_string(obj) +
            " read by incomplete T" + std::to_string(reader);
        return result;
      }
    }
  }
  return result;
}

}  // namespace optm::core
