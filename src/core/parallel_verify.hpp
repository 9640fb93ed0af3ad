// Compatibility shim for the end-to-end benchmark (e2ebench/), whose code
// is frozen between benchmark revisions. Every recorded history is judged
// by OnlineCertificateMonitor (online.hpp); the three names below exist
// only so e2ebench/ compiles.
#pragma once

#include <cstddef>
#include <optional>

#include "core/history.hpp"
#include "core/online.hpp"

namespace optm::core {

/// Kept only so e2ebench/ compiles; nothing else may use it, and it is
/// dropped at the next benchmark revision. `num_shards`/`num_threads` are
/// ignored.
struct ShardVerifyOptions {
  VersionOrderPolicy policy = VersionOrderPolicy::kCommitOrder;
  std::size_t num_shards = 0;
  std::size_t num_threads = 0;
};

/// Kept only so e2ebench/ compiles; nothing else may use it, and it is
/// dropped at the next benchmark revision.
struct ParallelVerifyResult {
  bool certified{false};
  std::optional<OnlineViolation> violation;
  std::size_t events{0};
};

/// One monitor ingest over `h`. Kept only so e2ebench/ compiles; nothing
/// else may use it, and it is dropped at the next benchmark revision.
[[nodiscard]] inline ParallelVerifyResult verify_history_sharded(
    const History& h, const ShardVerifyOptions& options = {}) {
  OnlineCertificateMonitor monitor(h.model(), options.policy);
  const bool certified = monitor.ingest(h.events());
  return {certified, monitor.violation(), monitor.events_fed()};
}

}  // namespace optm::core
