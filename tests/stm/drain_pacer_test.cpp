// The adaptive drain cadence (ROADMAP item, PR 5): the live consumer's
// poll threshold is derived from the recorder's measured ingest rate, so
// batches grow under bursts (amortizing the merge) while verdict latency —
// events between a violation being RECORDED and the monitor LATCHING it —
// stays under the configured bound, and quiet lanes are never busy-polled
// into the merge lock.
//
// The pacer is deliberately clock-free (all units are recorder stamps), so
// every property here is deterministic: convergence of the interval under
// a constant rate, growth under bursts, the idle-poll flush, and the
// end-to-end detection-latency bound through a real Recorder -> drain ->
// OnlineCertificateMonitor pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/online.hpp"
#include "stm/recorder.hpp"

namespace optm::stm {
namespace {

using Options = AdaptiveDrainPacer::Options;

/// Synthetic poll counters: `issued` is monotone across drives, exactly
/// like Recorder::stamps_issued().
struct PollState {
  std::uint64_t issued = 0;
  std::uint64_t drained = 0;
};

/// Drive the pacer with a synthetic poll schedule: `rate` new stamps per
/// poll, draining everything whenever it says so. Returns the interval
/// after `polls` polls.
[[nodiscard]] std::uint64_t drive_constant(AdaptiveDrainPacer& pacer,
                                           PollState& state,
                                           std::uint64_t rate,
                                           std::size_t polls) {
  for (std::size_t i = 0; i < polls; ++i) {
    state.issued += rate;
    if (pacer.should_drain(state.issued, state.issued - state.drained)) {
      pacer.on_drain();
      state.drained = state.issued;
    }
  }
  return pacer.interval();
}

TEST(AdaptiveDrainPacer, IntervalConvergesToTargetPollsTimesRate) {
  Options options;
  options.min_interval = 16;
  options.max_interval = 8192;
  options.max_pending = 16384;
  options.target_polls = 4;
  AdaptiveDrainPacer pacer(options);

  PollState state;
  const std::uint64_t rate = 50;
  const std::uint64_t interval = drive_constant(pacer, state, rate, 200);
  // EWMA of per-poll ingest -> rate; threshold -> target_polls * rate.
  EXPECT_NEAR(static_cast<double>(interval),
              static_cast<double>(options.target_polls * rate),
              static_cast<double>(rate) / 2);

  // And it STAYS there: another 100 polls at the same rate move nothing.
  const std::uint64_t again = drive_constant(pacer, state, rate, 100);
  EXPECT_EQ(interval, again);
}

TEST(AdaptiveDrainPacer, BurstsRaiseTheIntervalQuietShrinksIt) {
  Options options;
  options.min_interval = 16;
  options.max_interval = 8192;
  options.max_pending = 16384;
  AdaptiveDrainPacer pacer(options);

  PollState state;
  const std::uint64_t burst = drive_constant(pacer, state, 2000, 100);
  EXPECT_GE(burst, 4000u) << "a sustained burst should raise the threshold";
  EXPECT_LE(burst, options.max_interval);

  const std::uint64_t quiet = drive_constant(pacer, state, 2, 400);
  EXPECT_LE(quiet, 64u) << "a quiet stream should shrink it back down";
  EXPECT_GE(quiet, options.min_interval);
}

TEST(AdaptiveDrainPacer, IntervalNeverExceedsTheLatencyBound) {
  Options options;
  options.min_interval = 16;
  options.max_interval = 8192;
  options.max_pending = 300;  // the latency bound dominates max_interval
  AdaptiveDrainPacer pacer(options);
  PollState state;
  const std::uint64_t interval = drive_constant(pacer, state, 5000, 100);
  EXPECT_LE(interval, options.max_pending);
}

TEST(AdaptiveDrainPacer, IdlePollsFlushPendingTail) {
  Options options;
  options.min_interval = 64;
  options.idle_polls = 3;
  AdaptiveDrainPacer pacer(options);

  // A few events arrive (below every threshold), then the lanes go quiet.
  ASSERT_FALSE(pacer.should_drain(5, 5));
  std::uint32_t polls_until_flush = 0;
  bool flushed = false;
  for (; polls_until_flush < 10; ++polls_until_flush) {
    if (pacer.should_drain(5, 5)) {
      flushed = true;
      break;
    }
  }
  EXPECT_TRUE(flushed);
  EXPECT_LE(polls_until_flush, options.idle_polls);

  // Nothing pending -> never drain, however long it stays quiet.
  pacer.on_drain();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(pacer.should_drain(5, 0));
  }
}

// ---------------------------------------------------------------------------
// End-to-end: recorder -> paced drain -> monitor, violation latency
// ---------------------------------------------------------------------------

/// Push one committed write transaction (inv, ret, tryC, C = 5 stamps).
void push_writer(Recorder& rec, VarId var, core::Value value) {
  const core::TxId tx = rec.begin_tx();
  rec.on_inv(0, tx, var, core::OpCode::kWrite, value);
  rec.on_ret(0, tx, var, core::OpCode::kWrite, value, core::kOk);
  rec.on_try_commit(0, tx);
  rec.on_commit(0, tx);
}

/// Push a transaction whose read returns a value nobody ever wrote — the
/// certificate flags it (kUnwrittenValue) the moment it is ingested.
void push_poisoned_reader(Recorder& rec, VarId var) {
  const core::TxId tx = rec.begin_tx();
  rec.on_inv(0, tx, var, core::OpCode::kRead, 0);
  rec.on_ret(0, tx, var, core::OpCode::kRead, 0, core::Value{987654321});
}

TEST(AdaptiveDrainPipeline, ViolationDetectionLatencyStaysUnderBound) {
  Recorder recorder(8);
  core::OnlineCertificateMonitor monitor(recorder.model());

  Options options;
  options.min_interval = 16;
  options.max_interval = 2048;
  options.max_pending = 512;  // the configured verdict-latency bound
  options.idle_polls = 3;
  AdaptiveDrainPacer pacer(options);
  EventBatch batch;

  constexpr std::size_t kTxsPerPoll = 3;  // 15 stamps between polls
  constexpr std::size_t kStampsPerPoll = kTxsPerPoll * 5;

  std::uint64_t violation_stamp = 0;
  std::uint64_t detected_at = 0;
  core::Value next = 1;
  for (std::size_t poll = 0; poll < 400 && detected_at == 0; ++poll) {
    for (std::size_t t = 0; t < kTxsPerPoll; ++t) {
      push_writer(recorder, static_cast<VarId>(t % 8), next++);
    }
    if (poll == 250) {
      push_poisoned_reader(recorder, 0);
      violation_stamp = recorder.stamps_issued();
    }
    if (pacer.should_drain(recorder.stamps_issued(),
                           recorder.approx_pending())) {
      batch.clear();
      if (recorder.drain(batch) > 0) {
        pacer.on_drain();
        (void)monitor.ingest(batch.span());
        if (!monitor.ok() && detected_at == 0) {
          detected_at = recorder.stamps_issued();
        }
      }
    }
  }
  // Quiescent tail: the idle flush must deliver the violation even if the
  // loop above never crossed the threshold again.
  for (int i = 0; i < 20 && detected_at == 0; ++i) {
    if (pacer.should_drain(recorder.stamps_issued(),
                           recorder.approx_pending())) {
      batch.clear();
      if (recorder.drain(batch) > 0) {
        pacer.on_drain();
        (void)monitor.ingest(batch.span());
        if (!monitor.ok()) detected_at = recorder.stamps_issued();
      }
    }
  }

  ASSERT_FALSE(monitor.ok()) << "the poisoned read was never flagged";
  EXPECT_EQ(monitor.violation()->kind, core::CertFlagKind::kUnwrittenValue);
  ASSERT_NE(violation_stamp, 0u);
  ASSERT_NE(detected_at, 0u);
  // Verdict latency in events: everything issued after the violation
  // until the drain that delivered it. Bounded by the configured
  // max_pending plus one poll's worth of slack.
  EXPECT_LE(detected_at - violation_stamp,
            options.max_pending + kStampsPerPoll)
      << "verdict latency exceeded the configured bound";
}

TEST(AdaptiveDrainPipeline, BoundedDrainLeavesTheRestPending) {
  // drain(out, max_events) takes the oldest max_events of the backlog and
  // leaves the rest pending for the next poll, so a pump that fell behind
  // never builds a batch larger than its latency bound.
  Recorder recorder(4);
  core::Value next = 1;
  for (int t = 0; t < 100; ++t) {
    push_writer(recorder, static_cast<VarId>(t % 4), next++);
  }
  const std::vector<core::Event> expected = recorder.history().events();
  ASSERT_EQ(expected.size(), 400u);

  EventBatch batch;
  std::vector<core::Event> drained;
  for (std::size_t round = 0; round < 4; ++round) {
    batch.clear();
    ASSERT_EQ(recorder.drain(batch, 128), std::min<std::size_t>(128, 400 - 128 * round));
    EXPECT_EQ(recorder.approx_pending(), 400 - drained.size() - batch.size());
    drained.insert(drained.end(), batch.begin(), batch.end());
  }
  batch.clear();
  EXPECT_EQ(recorder.drain(batch, 128), 0u);
  EXPECT_EQ(drained, expected);

  // A bounded pacer-driven loop certifies the same stream: the monitor
  // sees every event once, in order.
  Recorder live(4);
  core::OnlineCertificateMonitor monitor(live.model());
  Options options;
  options.max_pending = 64;
  AdaptiveDrainPacer pacer(options);
  for (int t = 0; t < 500; ++t) {
    push_writer(live, static_cast<VarId>(t % 4), next++);
    if (pacer.should_drain(live.stamps_issued(), live.approx_pending())) {
      batch.clear();
      EXPECT_LE(live.drain(batch, options.max_pending), options.max_pending);
      pacer.on_drain();
      (void)monitor.ingest(batch.span());
    }
  }
  while (live.approx_pending() > 0) {
    batch.clear();
    EXPECT_LE(live.drain(batch, options.max_pending), options.max_pending);
    (void)monitor.ingest(batch.span());
  }
  EXPECT_TRUE(monitor.ok());
  EXPECT_EQ(monitor.events_fed(), live.num_events());
}

TEST(AdaptiveDrainPipeline, BatchCapacityStabilizesAcrossDrains) {
  Recorder recorder(4);
  EventBatch batch;
  core::Value next = 1;
  std::size_t high_water = 0;
  for (int round = 0; round < 50; ++round) {
    for (int t = 0; t < 40; ++t) {
      push_writer(recorder, static_cast<VarId>(t % 4), next++);
    }
    batch.clear();
    (void)recorder.drain(batch);
    if (round == 25) high_water = batch.capacity();
  }
  // Steady state: the reusable buffer stopped growing long ago.
  EXPECT_EQ(batch.capacity(), high_water);
}

}  // namespace
}  // namespace optm::stm
