#include "core/progress.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace optm::core {

ProgressResult check_progressive(const History& h) {
  ProgressResult result;

  // Lifetimes and access sets per transaction.
  struct Info {
    std::size_t first = 0;
    std::size_t last = 0;
    std::set<ObjId> objects;
    bool seen = false;
  };
  std::map<TxId, Info> info;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    Info& inf = info[e.tx];
    if (!inf.seen) {
      inf.first = i;
      inf.seen = true;
    }
    inf.last = i;
    if (e.kind == EventKind::kInvoke) inf.objects.insert(e.obj);
  }

  result.progressive = true;
  for (const auto& [tx, inf] : info) {
    if (!h.is_forcefully_aborted(tx)) continue;
    ++result.forced_aborts;

    bool justified = false;
    for (const auto& [other, oinf] : info) {
      if (other == tx) continue;
      // (a) common shared object?
      const bool conflicts = std::any_of(
          inf.objects.begin(), inf.objects.end(),
          [&oinf](ObjId obj) { return oinf.objects.count(obj) > 0; });
      if (!conflicts) continue;
      // (b) lifetimes overlap (both live at some common instant)?
      const bool overlap = inf.first <= oinf.last && oinf.first <= inf.last;
      if (overlap) {
        justified = true;
        break;
      }
    }
    if (justified) {
      ++result.justified_aborts;
    } else if (result.progressive) {
      result.progressive = false;
      result.violation = ProgressViolation{
          tx, tx_tag(tx) +
                  " was forcefully aborted without any concurrent "
                  "conflicting transaction"};
    }
  }
  return result;
}

}  // namespace optm::core
