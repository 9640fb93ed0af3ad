#include "core/stream_verify.hpp"

#include <algorithm>
#include <utility>

#include "core/history.hpp"
#include "util/pool.hpp"

namespace optm::core {

namespace {

/// Most events the phase-1 buffer reserves up front: the default window.
/// A larger --window-events still buffers that far, growing past this by
/// doubling only if the stream really is that long, so an oversized
/// window cannot turn into an up-front allocation failure.
constexpr std::size_t kMaxWindowReserve = StreamVerifyOptions{}.window_events;

}  // namespace

StreamVerifyResult verify_event_stream(const ObjectModel& model,
                                       const EventPull& next,
                                       const StreamVerifyOptions& options) {
  const std::size_t window = std::max<std::size_t>(options.window_events, 1);
  StreamVerifyResult out;

  // Phase 1: buffer optimistically, hoping the stream fits the window.
  History buffered(model);
  buffered.reserve(std::min(window, kMaxWindowReserve));
  std::span<const Event> carry;  // unconsumed remainder of the last pull
  bool exhausted = false;
  while (buffered.size() < window) {
    carry = next();
    if (carry.empty()) {
      exhausted = true;
      break;
    }
    const std::size_t take = std::min(carry.size(), window - buffered.size());
    buffered.append_batch(carry.first(take));
    carry = carry.subspan(take);
    if (!carry.empty()) break;  // window full mid-pull
  }

  if (exhausted) {
    // "0 = auto" resolves here, for the sharded driver only; the streaming
    // path below is the serial monitor whatever the budget.
    const VerifyConcurrency conc = resolve_verify_concurrency(
        model.size(), options.num_shards, options.num_threads);
    util::ThreadPool pool(conc.threads);
    ShardVerifyOptions sharded;
    sharded.policy = options.policy;
    sharded.num_shards = options.num_shards;
    const ParallelVerifyResult r = verify_history_sharded(buffered, pool,
                                                          sharded);
    out.certified = r.certified;
    out.violation = r.violation;
    out.events = buffered.size();
    out.used_sharded_driver = true;
    out.shards_used = r.shards_used;
    out.threads_used = conc.threads;
    return out;
  }

  // Phase 2: the stream outgrew the window — fall over to the streaming
  // monitor, constructed ONCE for the whole stream. Replay the buffer, drop
  // it, then feed the rest straight from the source in window-bounded
  // spans.
  OnlineCertificateMonitor monitor(model, options.policy);
  if (options.reserve_txs != 0 || options.reserve_versions != 0) {
    monitor.reserve(options.reserve_txs, options.reserve_versions);
  }
  const auto ingest_windowed = [&](std::span<const Event> span) {
    while (!span.empty()) {
      const std::span<const Event> win =
          span.first(std::min(span.size(), window));
      span = span.subspan(win.size());
      ++out.windows;
      (void)monitor.ingest(win);
    }
  };
  ingest_windowed(buffered.events());
  {
    History drop(model);
    std::swap(buffered, drop);  // release the window's memory
  }
  ingest_windowed(carry);
  for (std::span<const Event> batch = next(); !batch.empty(); batch = next()) {
    ingest_windowed(batch);
  }
  out.certified = monitor.ok();
  out.violation = monitor.violation();
  out.events = monitor.events_fed();
  out.threads_used = 1;
  return out;
}

}  // namespace optm::core
