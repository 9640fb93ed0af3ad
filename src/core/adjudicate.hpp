// Definitional adjudication of a certificate flag.
//
// The certificate monitor (online.hpp) is SUFFICIENT, not necessary: a
// clean run is certified opaque, but a flag may be conservative (the H4
// reads-from-commit-pending case, or a version-order claim another order
// would satisfy). adjudicate() settles one flag against Definition 1:
//
//   * a kind that breaks §5.4 consistency (proves_non_opaque) is kNo
//     outright — Theorem 2 makes consistency necessary, so no search runs;
//   * a well-formedness flag is kUnknown: §4 is decided, not certified, and
//     the exact checker requires a well-formed history;
//   * a history with more than `max_txs` transactions is kUnknown (the
//     exact checker is exponential);
//   * anything else goes to check_opacity under the `max_states` budget.
//
// Callers pick the history to judge: the whole recording, a prefix ending
// at the flag, or a register projection (project_registers) that keeps the
// exponential search on a fraction of the transactions. A verdict refers
// to exactly the history passed in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/opacity.hpp"
#include "core/version_order.hpp"

namespace optm::core {

struct AdjudicateOptions {
  /// Skip the exact checker above this many transactions.
  std::size_t max_txs = 8;
  /// DFS state budget handed to check_opacity.
  std::uint64_t max_states = 200'000;
};

struct Adjudication {
  Verdict verdict{Verdict::kUnknown};
  std::string reason;
};

/// Adjudicate a flag of kind `kind` raised on `h` (see the file header for
/// the dispatch).
[[nodiscard]] Adjudication adjudicate(const History& h, CertFlagKind kind,
                                      const AdjudicateOptions& options = {});

/// All operation events on the given registers, plus the tryC/C/tryA/A
/// events of every transaction with at least one such operation.
[[nodiscard]] History project_registers(const History& h,
                                        const std::vector<ObjId>& registers);

}  // namespace optm::core
