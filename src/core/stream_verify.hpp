// Bounded-memory verification of an event STREAM — the chunked front-end
// to the offline machinery for recordings that no longer fit in RAM
// (multi-segment binary logs, log/reader.hpp).
//
// Strategy: the sharded parallel driver (parallel_verify.hpp) is the
// strongest checker — multi-threaded, full flag list, definitional
// fallback, §3.6 smart reorder — but it needs the whole history
// materialized. The streaming certificate monitor (online.hpp) needs only
// O(transactions + live versions) state and is verdict- and
// flag-position-equivalent to the driver (tested by the batch/conformance
// suites). verify_event_stream therefore buffers the stream into a
// History while it still fits `window_events`; if the stream ends within
// the window it runs the sharded driver over the materialized history,
// otherwise it replays the buffer into one OnlineCertificateMonitor, frees
// it, and streams the rest through ingest() in window-bounded spans —
// peak memory is the window plus monitor state, never the history size,
// and the streaming path always runs on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "core/event.hpp"
#include "core/online.hpp"
#include "core/parallel_verify.hpp"

namespace optm::core {

/// Pull-based event source: each call returns the next stamp-contiguous
/// run of the stream, an empty span once exhausted (or on error — the
/// caller checks its producer afterwards). Spans need only stay valid
/// until the next call.
using EventPull = std::function<std::span<const Event>()>;

struct StreamVerifyOptions {
  VersionOrderPolicy policy = VersionOrderPolicy::kCommitOrder;
  /// The materialization window, in events: histories up to this size are
  /// verified with the sharded parallel driver; longer streams fall over
  /// to the streaming monitor. Also bounds the span size fed per ingest.
  std::size_t window_events = std::size_t{1} << 20;
  /// Sharded-driver concurrency, resolved by resolve_verify_concurrency
  /// (parallel_verify.hpp — the same "0 = auto" rule as
  /// ShardVerifyOptions). It applies only when the stream fits the window;
  /// a longer stream runs the serial monitor and ignores both fields.
  std::size_t num_shards = 0;
  std::size_t num_threads = 0;
  /// Monitor pre-sizing hints (events within the bounds allocate nothing).
  std::size_t reserve_txs = 0;
  std::size_t reserve_versions = 0;
};

struct StreamVerifyResult {
  bool certified = false;
  /// Earliest flag, position in the global event stream — identical to
  /// what the in-RAM monitor latches on the same recording.
  std::optional<OnlineViolation> violation;
  std::size_t events = 0;
  /// True when the stream fit the window and the sharded driver ran.
  bool used_sharded_driver = false;
  std::size_t shards_used = 0;  // sharded driver only
  /// Worker threads the verification occupied (1 = serial monitor).
  std::size_t threads_used = 0;
  /// Number of ingest windows fed on the streaming path.
  std::size_t windows = 0;
};

/// Verify a stream of events against the certificate under `policy`, in
/// memory bounded by `window_events`. The model must be all registers
/// (as for OnlineCertificateMonitor).
[[nodiscard]] StreamVerifyResult verify_event_stream(
    const ObjectModel& model, const EventPull& next,
    const StreamVerifyOptions& options = {});

}  // namespace optm::core
