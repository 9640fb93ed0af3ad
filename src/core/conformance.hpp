// Conformance driver — the differential-testing backbone of the
// window-free recording work.
//
// One recorded history is judged two independent ways: by the certificate
// monitor OnlineCertificateMonitor under each configured version-order
// policy (core/version_order.hpp), and by the exact definitional checker
// check_opacity when the history is small enough for it. They owe each
// other two contracts:
//
//   * soundness: a CERTIFIED verdict under any policy is a Theorem-2
//     certificate, so the exact checker must not answer kNo (equivalently:
//     if the exact checker proves the history non-opaque, every policy
//     flags it — a flag may still be conservative, certificates are
//     sufficient, not necessary);
//   * well-formedness is decided, not certified: a kNotWellFormed flag on
//     a history the exact checker accepts means the two disagree on §4.
//
// check_conformance runs every configured engine over one history and
// verifies both contracts, reporting the first divergence in plain text.
// It is the reusable core of the cross-runtime conformance fuzz suite
// (tests/core/conformance_fuzz_test.cpp), which feeds it recordings of live
// runtimes — windowed and window-free — plus the random_*_history
// generators; recordings too large for the exact checker are judged there
// against the recorder's certificate order with verify_opacity_certificate
// instead. It is equally usable from tools (a recorded history that fails
// conformance is a checker bug by definition, whatever the verdict).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/version_order.hpp"

namespace optm::core {

struct ConformanceOptions {
  /// Policies to sweep (each runs one monitor).
  std::vector<VersionOrderPolicy> policies{
      VersionOrderPolicy::kCommitOrder, VersionOrderPolicy::kSnapshotRank,
      VersionOrderPolicy::kStampedRead};
  /// Run the exact definitional checker when the history has at most this
  /// many transactions (0 disables it — it is exponential).
  std::size_t exact_max_txs = 10;
  /// DFS state budget for the exact checker.
  std::uint64_t exact_max_states = 500'000;
};

/// The monitor's view of the history under one policy.
struct EngineVerdict {
  bool certified{false};
  std::size_t pos{0};  // first condemned position (valid iff !certified)
  std::string reason;
  CertFlagKind kind{CertFlagKind::kNone};
};

struct PolicyConformance {
  VersionOrderPolicy policy{VersionOrderPolicy::kCommitOrder};
  EngineVerdict monitor;
};

struct ConformanceReport {
  /// Every contract held (certified ⟹ exact not kNo, and no
  /// well-formedness flag on an exactly-opaque history).
  bool ok{true};
  /// Human-readable description of the first broken contract.
  std::string divergence;
  std::vector<PolicyConformance> policies;
  /// Exact checker's verdict (kUnknown when skipped or budget-exhausted).
  Verdict exact{Verdict::kUnknown};
  std::string exact_reason;
  /// Did the given policy certify the history (monitor side)?
  [[nodiscard]] bool certified(VersionOrderPolicy p) const noexcept {
    for (const PolicyConformance& pc : policies) {
      if (pc.policy == p) return pc.monitor.certified;
    }
    return false;
  }
};

/// Run every configured engine over `h` and check the contracts above.
/// Precondition (same as the certificate engines): all-register history;
/// throws std::invalid_argument otherwise.
[[nodiscard]] ConformanceReport check_conformance(
    const History& h, const ConformanceOptions& options = {});

}  // namespace optm::core
