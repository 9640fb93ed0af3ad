// Failure semantics of the sink layer: TeeSink tracks status PER SINK
// (one dead leg must not stop the others, and every sink keeps seeing
// every batch so transient failures can recover), and DrainPump reports
// how much of the recording the sink chain never saw when a total sink
// failure aborts the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "core/event.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"

namespace optm::stm {
namespace {

/// Counts what it sees; optionally fails accept() from a given batch
/// ordinal on, and/or fails finish().
class ScriptedSink final : public EventSink {
 public:
  std::size_t fail_from_batch = static_cast<std::size_t>(-1);
  bool fail_finish = false;

  std::size_t batches_seen = 0;
  std::size_t events_seen = 0;
  std::size_t largest_batch = 0;
  std::vector<core::Event> events;
  bool finished = false;

  bool accept(std::span<const core::Event> batch) override {
    const bool ok = batches_seen < fail_from_batch;
    ++batches_seen;
    events_seen += batch.size();
    largest_batch = std::max(largest_batch, batch.size());
    events.insert(events.end(), batch.begin(), batch.end());
    return ok;
  }
  bool finish() override {
    finished = true;
    return !fail_finish;
  }
};

[[nodiscard]] std::vector<core::Event> some_events(std::size_t n) {
  std::vector<core::Event> events;
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(core::ev::inv(1, 0, core::OpCode::kWrite, 7));
  }
  return events;
}

/// Push one committed write transaction (4 stamps) on lane 0.
void push_writer(Recorder& rec, core::Value value) {
  const core::TxId tx = rec.begin_tx();
  rec.on_inv(0, tx, 0, core::OpCode::kWrite, value);
  rec.on_ret(0, tx, 0, core::OpCode::kWrite, value, core::kOk);
  rec.on_try_commit(0, tx);
  rec.on_commit(0, tx);
}

TEST(TeeSink, TracksStatusPerSinkAndKeepsFeedingFailedLegs) {
  ScriptedSink healthy;
  ScriptedSink flaky;
  flaky.fail_from_batch = 1;  // first batch ok, everything after fails
  TeeSink tee{&healthy, &flaky};

  const auto events = some_events(4);
  for (int i = 0; i < 3; ++i) {
    // One leg still consumes, so the tee reports the batch consumed.
    EXPECT_TRUE(tee.accept(events));
  }

  // Every sink saw every batch, the failed leg included.
  EXPECT_EQ(healthy.batches_seen, 3u);
  EXPECT_EQ(flaky.batches_seen, 3u);
  EXPECT_EQ(flaky.events_seen, 12u);

  EXPECT_FALSE(tee.ok());
  EXPECT_TRUE(tee.status(0).ok);
  EXPECT_FALSE(tee.status(1).ok);
  EXPECT_EQ(tee.status(1).first_failed_batch, 1u);
  ASSERT_TRUE(tee.first_failure().has_value());
  EXPECT_EQ(*tee.first_failure(), 1u);

  // finish() reaches every sink and reports the conjunction.
  EXPECT_FALSE(tee.finish());
  EXPECT_TRUE(healthy.finished);
  EXPECT_TRUE(flaky.finished);
}

TEST(TeeSink, EarliestFailureWins) {
  ScriptedSink late;
  late.fail_from_batch = 2;
  ScriptedSink early;
  early.fail_from_batch = 0;
  TeeSink tee{&late, &early};

  const auto events = some_events(2);
  for (int i = 0; i < 3; ++i) (void)tee.accept(events);

  ASSERT_TRUE(tee.first_failure().has_value());
  EXPECT_EQ(*tee.first_failure(), 1u);  // `early` failed at batch 0
  EXPECT_EQ(tee.status(0).first_failed_batch, 2u);
  EXPECT_EQ(tee.status(1).first_failed_batch, 0u);
}

TEST(TeeSink, AcceptFailsOnlyWhenEveryLegIsLost) {
  ScriptedSink a;
  a.fail_from_batch = 0;
  ScriptedSink b;
  b.fail_from_batch = 1;
  TeeSink tee{&a, &b};

  const auto events = some_events(1);
  EXPECT_TRUE(tee.accept(events));   // b still consumed batch 0
  EXPECT_FALSE(tee.accept(events));  // both legs down
  EXPECT_FALSE(tee.ok());
}

TEST(TeeSink, FinishOnlyFailureFallsBackToAddOrder) {
  ScriptedSink a;
  ScriptedSink b;
  b.fail_finish = true;
  TeeSink tee{&a, &b};

  const auto events = some_events(2);
  EXPECT_TRUE(tee.accept(events));
  EXPECT_FALSE(tee.finish());
  EXPECT_FALSE(tee.ok());
  ASSERT_TRUE(tee.first_failure().has_value());
  EXPECT_EQ(*tee.first_failure(), 1u);
  // No accept() ever failed, so no batch ordinal was latched.
  EXPECT_EQ(tee.status(1).first_failed_batch, static_cast<std::size_t>(-1));
}

/// Fails every accept, and models a producer racing the teardown: each
/// rejected batch is followed by more events arriving in the recorder, so
/// the pump aborts with work still pending.
class FailAndRefillSink final : public EventSink {
 public:
  explicit FailAndRefillSink(Recorder& rec) : rec_(&rec) {}
  bool accept(std::span<const core::Event>) override {
    push_writer(*rec_, 42);  // arrives after the drain the pump just fed us
    return false;
  }

 private:
  Recorder* rec_;
};

TEST(DrainPump, ReportsUndrainedEventsWhenSinkAborts) {
  Recorder recorder(4);
  for (int i = 0; i < 8; ++i) push_writer(recorder, i);

  FailAndRefillSink sink(recorder);
  DrainPump pump(recorder, sink);
  std::atomic<bool> done{true};
  const auto stats = pump.run(done);

  EXPECT_FALSE(stats.sink_ok);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.events, 32u);          // 8 txs * 4 stamps, all in batch 0
  EXPECT_EQ(stats.events_undrained, 4u); // the refill the sink never saw
}

TEST(DrainPump, CleanRunReportsNothingUndrained) {
  Recorder recorder(4);
  for (int i = 0; i < 8; ++i) push_writer(recorder, i);

  ScriptedSink sink;
  DrainPump pump(recorder, sink);
  std::atomic<bool> done{true};
  const auto stats = pump.run(done);

  EXPECT_TRUE(stats.sink_ok);
  EXPECT_EQ(stats.events, 32u);
  EXPECT_EQ(stats.events_undrained, 0u);
  EXPECT_TRUE(sink.finished);
}

TEST(DrainPump, BatchesAreBoundedByMaxPending) {
  // A backlog larger than the latency bound is handed out in
  // max_pending-sized batches, in order, not as one batch.
  Recorder recorder(4);
  for (int i = 0; i < 8; ++i) push_writer(recorder, i);
  const std::vector<core::Event> expected = recorder.history().events();

  ScriptedSink sink;
  AdaptiveDrainPacer::Options pacing;
  pacing.max_pending = 5;
  DrainPump pump(recorder, sink, pacing);
  std::atomic<bool> done{true};
  const auto stats = pump.run(done);

  EXPECT_TRUE(stats.sink_ok);
  EXPECT_EQ(stats.events, 32u);
  EXPECT_EQ(stats.batches, 7u);  // ceil(32 / 5)
  EXPECT_EQ(sink.largest_batch, 5u);
  EXPECT_EQ(sink.events, expected);
  EXPECT_EQ(recorder.approx_pending(), 0u);
}

TEST(DrainPump, TeeWithOneHealthyLegRunsToCompletion) {
  Recorder recorder(4);
  for (int i = 0; i < 8; ++i) push_writer(recorder, i);

  ScriptedSink healthy;
  ScriptedSink broken;
  broken.fail_from_batch = 0;
  TeeSink tee{&healthy, &broken};
  DrainPump pump(recorder, tee);
  std::atomic<bool> done{true};
  const auto stats = pump.run(done);

  // The run completes on the healthy leg; the failure still surfaces
  // through sink_ok (the finish() conjunction) and the per-sink status.
  EXPECT_FALSE(stats.sink_ok);
  EXPECT_EQ(stats.events_undrained, 0u);
  EXPECT_EQ(healthy.events_seen, 32u);
  EXPECT_EQ(broken.events_seen, 32u);
  EXPECT_TRUE(tee.status(0).ok);
  EXPECT_FALSE(tee.status(1).ok);
}

}  // namespace
}  // namespace optm::stm
