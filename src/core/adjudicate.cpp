#include "core/adjudicate.hpp"

#include <unordered_set>
#include <utility>

namespace optm::core {

Adjudication adjudicate(const History& h, CertFlagKind kind,
                        const AdjudicateOptions& options) {
  if (proves_non_opaque(kind)) {
    return {Verdict::kNo, std::string("flag kind ") + to_string(kind) +
                              " violates consistency (Theorem 2 makes it "
                              "necessary; no search needed)"};
  }
  std::string why;
  if (kind == CertFlagKind::kNotWellFormed || !h.well_formed(&why)) {
    return {Verdict::kUnknown,
            "not well-formed; the definitional checker needs a well-formed "
            "history" +
                (why.empty() ? std::string() : " (" + why + ")")};
  }
  if (h.transactions().size() > options.max_txs) {
    return {Verdict::kUnknown,
            "history too large for the definitional checker (" +
                std::to_string(h.transactions().size()) + " transactions)"};
  }
  OpacityOptions opts;
  opts.max_states = options.max_states;
  OpacityResult exact = check_opacity(h, opts);
  return {exact.verdict, std::move(exact.reason)};
}

History project_registers(const History& h, const std::vector<ObjId>& registers) {
  std::unordered_set<ObjId> regs(registers.begin(), registers.end());
  std::unordered_set<TxId> touching;
  for (const Event& e : h.events()) {
    if ((e.kind == EventKind::kInvoke || e.kind == EventKind::kResponse) &&
        regs.count(e.obj) != 0) {
      touching.insert(e.tx);
    }
  }
  History out(h.model());
  for (const Event& e : h.events()) {
    const bool op_event =
        e.kind == EventKind::kInvoke || e.kind == EventKind::kResponse;
    if (op_event ? regs.count(e.obj) != 0 : touching.count(e.tx) != 0) {
      out.append(e);
    }
  }
  return out;
}

}  // namespace optm::core
