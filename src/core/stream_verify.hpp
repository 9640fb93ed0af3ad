// Verification of an event STREAM — the pull-based front-end that judges a
// recording straight from its source (multi-segment binary logs,
// log/reader.hpp) without materializing it.
//
// Every pulled span goes into one OnlineCertificateMonitor (online.hpp),
// constructed once for the whole stream, on the calling thread. Peak memory
// is the monitor's dense state (a few bytes per transaction and per
// version, see online.hpp) plus whatever the source hands out per pull —
// the events themselves are never retained. The verdict and first flagged
// position are exactly the in-RAM monitor's on the same recording.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "core/event.hpp"
#include "core/online.hpp"

namespace optm::core {

/// Pull-based event source: each call returns the next stamp-contiguous
/// run of the stream, an empty span once exhausted (or on error — the
/// caller checks its producer afterwards). Spans need only stay valid
/// until the next call.
using EventPull = std::function<std::span<const Event>()>;

struct StreamVerifyOptions {
  VersionOrderPolicy policy = VersionOrderPolicy::kCommitOrder;
  /// Ignored. Kept only so e2ebench/ compiles; nothing else may use
  /// them, and they are dropped at the next benchmark revision.
  std::size_t num_shards = 0;
  std::size_t num_threads = 0;
};

struct StreamVerifyResult {
  bool certified = false;
  /// Earliest flag, position in the global event stream — identical to
  /// what the in-RAM monitor latches on the same recording.
  std::optional<OnlineViolation> violation;
  std::size_t events = 0;
  /// Always 1 (the monitor runs on the calling thread). Kept only so
  /// e2ebench/ compiles; nothing else may use it, and it is dropped at
  /// the next benchmark revision.
  std::size_t threads_used = 1;
};

/// Verify a stream of events against the certificate under `policy`. The
/// model must be all registers (as for OnlineCertificateMonitor).
[[nodiscard]] StreamVerifyResult verify_event_stream(
    const ObjectModel& model, const EventPull& next,
    const StreamVerifyOptions& options = {});

}  // namespace optm::core
