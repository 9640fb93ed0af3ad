// The recorder must reconstruct exactly what a runtime did: on a
// deterministic schedule every runtime's recording equals a hand-built
// event list, stamps included, with the expected certificate ≪; on
// concurrent schedules the stamp-merged linearization must be well formed
// and certify, and drain() must hand out exactly what history() rebuilds.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "core/opacity_graph.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace optm::stm {
namespace {

/// Drive the same deterministic two-process interleaving against `stm`
/// (T1 reads x, T2 commits x:=1 y:=2, T1 reads y, T1 tries to commit).
void drive_interleaved(Stm& stm) {
  sim::ThreadCtx p1(0);
  sim::ThreadCtx p2(1);
  stm.begin(p1);
  std::uint64_t x = 0;
  const bool r1 = stm.read(p1, 0, x);
  stm.begin(p2);
  (void)(stm.write(p2, 0, 1) && stm.write(p2, 1, 2) && stm.commit(p2));
  if (r1) {
    std::uint64_t y = 0;
    if (stm.read(p1, 1, y)) (void)stm.commit(p1);
  }
}

/// What each runtime must record for drive_interleaved, written out from
/// the algorithms. T1 reads x = 0 from snapshot 0, so a stamping runtime
/// stamps the response 2·0+1 (version 0; NOrec validates by value and
/// names no version). T2 commits x:=1 y:=2 at the first clock tick, 2·wv:
/// wv = 1, except NOrec's sequence lock, which advances by 2 per commit.
/// T1's read of y then finds its snapshot stale and aborts, the A carrying
/// the snapshot stamp 2·0+1 — except mv, which serves y = 0 from the
/// snapshot and commits T1 read-only at 2·0+1. visible stamps nothing.
[[nodiscard]] std::vector<core::Event> expected_recording(const std::string& stm) {
  using core::OpCode;
  namespace ev = core::ev;
  const std::uint64_t snapshot = stm == "visible" ? 0 : 1;
  const std::uint64_t x_ver = stm == "norec" ? core::kNoReadVersion : 0;
  const std::uint64_t t2_commit = stm == "visible" ? 0 : stm == "norec" ? 4 : 2;
  std::vector<core::Event> events = {
      ev::inv(1, 0, OpCode::kRead),
      ev::ret(1, 0, OpCode::kRead, 0, 0, snapshot, x_ver),
      ev::inv(2, 0, OpCode::kWrite, 1),
      ev::ret(2, 0, OpCode::kWrite, 1, core::kOk),
      ev::inv(2, 1, OpCode::kWrite, 2),
      ev::ret(2, 1, OpCode::kWrite, 2, core::kOk),
      ev::try_commit(2),
      ev::commit(2, t2_commit),
      ev::inv(1, 1, OpCode::kRead),
  };
  if (stm == "mv") {
    events.push_back(ev::ret(1, 1, OpCode::kRead, 0, 0, snapshot, 0));
    events.push_back(ev::try_commit(1));
    events.push_back(ev::commit(1, snapshot));
  } else {
    events.push_back(ev::abort(1, snapshot));
  }
  return events;
}

class RecorderEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(RecorderEquivalence, DeterministicScheduleSameLinearization) {
  const auto stm = make_stm(GetParam(), 4);
  Recorder recorder(4);
  stm->set_recorder(&recorder);
  drive_interleaved(*stm);

  const std::vector<core::Event> expected = expected_recording(GetParam());
  const core::History h = recorder.history();
  ASSERT_EQ(h.size(), expected.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(h[i], expected[i]) << "event " << i << ": " << core::to_string(h[i])
                                 << " vs " << core::to_string(expected[i]);
    // Event::operator== already covers these, but the stamp fields are
    // what the window-free certificate lives on — compare them explicitly
    // so a regression names the field, not just the event.
    EXPECT_EQ(h[i].stamp, expected[i].stamp) << "event " << i;
    EXPECT_EQ(h[i].ver, expected[i].ver) << "event " << i;
  }
  // T1 serializes first: at its snapshot stamp 1 < T2's commit stamp, or,
  // unstamped, at its last read response, which precedes C2.
  EXPECT_EQ(recorder.certificate_order(), (std::vector<core::TxId>{1, 2}));
  EXPECT_EQ(recorder.num_events(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(Stms, RecorderEquivalence,
                         ::testing::Values("tl2", "tiny", "norec", "dstm",
                                           "astm", "visible", "mv"));

// Window-free recording, fuzzed over seeds: with no window taken at all,
// drain() must hand out exactly what history() reconstructs — stamp fields
// included (the regression guard for Event gaining fields the drain path
// might forget) — every read stamp must be a snapshot (2·rv+1), and the
// drained stream must certify under the stamped policy.
class WindowFreeRecorderFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowFreeRecorderFuzz, DrainMatchesHistoryAndCertifiesStamped) {
  std::size_t stamped_reads = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto stm = make_stm(GetParam(), 6);
    ASSERT_TRUE(stm->set_window_free(true));
    Recorder recorder(6);
    stm->set_recorder(&recorder);

    // One logical process, seeded op mix.
    sim::ThreadCtx ctx(0);
    util::Xoshiro256 rng(seed);
    for (int t = 0; t < 6; ++t) {
      stm->begin(ctx);
      bool doomed = false;
      const auto ops = 1 + rng.below(3);
      for (std::uint64_t op = 0; op < ops && !doomed; ++op) {
        const auto var = static_cast<VarId>(rng.below(6));
        if (rng.chance(0.5)) {
          doomed = !stm->write(ctx, var, (seed << 20) | (t << 8) | (op + 1));
        } else {
          std::uint64_t v = 0;
          doomed = !stm->read(ctx, var, v);
        }
      }
      if (!doomed) (void)stm->commit(ctx);
    }

    // Drain path (what live verification consumes) against history(): the
    // stamp fields must survive the lane encoding and the k-way merge.
    const core::History h = recorder.history();
    EventBatch drained;
    while (recorder.drain(drained) > 0) {
    }
    ASSERT_EQ(h.size(), drained.size()) << "seed " << seed;
    for (std::size_t i = 0; i < h.size(); ++i) {
      ASSERT_EQ(h[i], drained[i]) << "seed " << seed << " event " << i;
      EXPECT_EQ(h[i].stamp, drained[i].stamp) << "seed " << seed << " event " << i;
      EXPECT_EQ(h[i].ver, drained[i].ver) << "seed " << seed << " event " << i;
      if (h[i].kind == core::EventKind::kResponse &&
          h[i].op == core::OpCode::kRead && h[i].stamp != 0) {
        ++stamped_reads;
        EXPECT_EQ(h[i].stamp % 2, 1u) << "read stamps are snapshots (2rv+1)";
      }
    }
    core::OnlineCertificateMonitor monitor(
        recorder.model(), core::VersionOrderPolicy::kStampedRead);
    EXPECT_TRUE(monitor.ingest(drained)) << "seed " << seed << ": "
                                         << monitor.violation()->reason;
  }
  // The fuzzed schedules must actually exercise stamped reads for the
  // field comparison to mean anything.
  EXPECT_GT(stamped_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(Stms, WindowFreeRecorderFuzz,
                         ::testing::Values("tl2", "tiny", "norec", "dstm",
                                           "astm", "mv"));

class ShardedRecorderConcurrent : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedRecorderConcurrent, StampMergeIsALegalLinearization) {
  const auto stm = make_stm(GetParam(), 8);
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 4;
  params.vars = 8;
  params.txs_per_thread = 100;
  params.seed = 99;
  (void)wl::run_random_mix(*stm, params);

  const core::History h = recorder.history();
  ASSERT_EQ(h.size(), recorder.num_events());
  std::string why;
  EXPECT_TRUE(h.well_formed(&why)) << why;

  // The merged linearization must stream cleanly through the certificate
  // monitor — the Theorem-2 soundness of the window discipline.
  core::OnlineCertificateMonitor monitor(h.model());
  EXPECT_TRUE(monitor.ingest(h.events()));
  EXPECT_FALSE(monitor.violation().has_value())
      << monitor.violation()->reason << " at event "
      << monitor.violation()->pos;

  // ... and the recorded ≪ must verify as an opacity certificate.
  EXPECT_TRUE(core::verify_opacity_certificate(h, recorder.certificate_order(),
                                               {}, &why))
      << why;
}

INSTANTIATE_TEST_SUITE_P(Stms, ShardedRecorderConcurrent,
                         ::testing::Values("tl2", "tiny", "norec", "visible",
                                           "mv"));

TEST(ShardedRecorder, DrainReconstructsHistoryIncrementally) {
  const auto stm = make_stm("tl2", 8);
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = 60;
  params.seed = 7;
  (void)wl::run_random_mix(*stm, params);

  // Quiescent now: repeated drains must hand out the full linearization in
  // order, and agree with history() exactly.
  EventBatch drained;
  while (recorder.drain(drained) > 0) {
  }
  const core::History h = recorder.history();
  ASSERT_EQ(drained.size(), h.size());
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(drained[i], h[i]);
  // Nothing left.
  EXPECT_EQ(recorder.drain(drained), 0u);
}

TEST(ShardedRecorder, DrainWhileRecordingYieldsCompletePrefixes) {
  const auto stm = make_stm("norec", 8);
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = 300;
  params.seed = 21;

  EventBatch drained;
  core::OnlineCertificateMonitor live(recorder.model());
  std::thread worker([&] { (void)wl::run_random_mix(*stm, params); });
  // Live pipeline: drain stamp-contiguous batches while the workload runs
  // and feed them straight into the monitor.
  for (int spin = 0; spin < 10000; ++spin) {
    const std::size_t before = drained.size();
    (void)recorder.drain(drained);
    (void)live.ingest(drained.span().subspan(before));
  }
  worker.join();
  const std::size_t before = drained.size();
  while (recorder.drain(drained) > 0) {
  }
  (void)live.ingest(drained.span().subspan(before));

  const core::History h = recorder.history();
  ASSERT_EQ(drained.size(), h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(drained[i], h[i]) << "drain diverged at event " << i;
  }
  EXPECT_TRUE(live.ok()) << live.violation()->reason;
  EXPECT_EQ(live.events_fed(), h.size());
}

TEST(ShardedRecorder, WindowFreeDrainWhileRecordingCertifiesStamped) {
  // The live pipeline with NO window lock at all: concurrent recording
  // threads, a drainer feeding the kStampedRead monitor mid-run. Records
  // may genuinely drift here; the stamps must carry the certificate.
  const auto stm = make_stm("tl2", 8);
  ASSERT_TRUE(stm->set_window_free(true));
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = 300;
  params.seed = 77;

  EventBatch drained;
  core::OnlineCertificateMonitor live(recorder.model(),
                                      core::VersionOrderPolicy::kStampedRead);
  std::thread worker([&] { (void)wl::run_random_mix(*stm, params); });
  for (int spin = 0; spin < 10000; ++spin) {
    const std::size_t before = drained.size();
    (void)recorder.drain(drained);
    (void)live.ingest(drained.span().subspan(before));
  }
  worker.join();
  const std::size_t before = drained.size();
  while (recorder.drain(drained) > 0) {
  }
  (void)live.ingest(drained.span().subspan(before));

  EXPECT_TRUE(live.ok()) << live.violation()->reason << " at event "
                         << live.violation()->pos;
  EXPECT_EQ(live.events_fed(), recorder.num_events());
}

TEST(ShardedRecorder, BeginTxIdsAreUniqueAcrossThreads) {
  Recorder recorder(1);
  std::vector<std::vector<core::TxId>> ids(4);
  std::vector<std::thread> workers;
  workers.reserve(ids.size());
  for (auto& out : ids) {
    workers.emplace_back([&recorder, &out] {
      for (int i = 0; i < 1000; ++i) out.push_back(recorder.begin_tx());
    });
  }
  for (auto& w : workers) w.join();
  std::vector<core::TxId> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.front(), 1u);  // 0 is the §5.4 initializer
}

}  // namespace
}  // namespace optm::stm
