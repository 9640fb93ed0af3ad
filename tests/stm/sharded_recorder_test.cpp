// The sharded recorder must be observationally identical to the original
// single-mutex recorder: on a deterministic schedule both engines
// reconstruct the same core::History and the same certificate ≪, and on
// concurrent schedules the sharded engine's stamp-merged linearization
// must pass the same checks the mutex engine's histories always passed.
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

class RecorderEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(RecorderEquivalence, DeterministicScheduleSameLinearization) {
  const auto mutex_stm = make_stm(GetParam(), 4);
  MutexRecorder mutex_recorder(4);
  mutex_stm->set_recorder(&mutex_recorder);
  drive_interleaved(*mutex_stm);

  const auto sharded_stm = make_stm(GetParam(), 4);
  Recorder sharded_recorder(4);
  sharded_stm->set_recorder(&sharded_recorder);
  drive_interleaved(*sharded_stm);

  const core::History a = mutex_recorder.history();
  const core::History b = sharded_recorder.history();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "event " << i << ": " << core::to_string(a[i])
                          << " vs " << core::to_string(b[i]);
    // Event::operator== already covers these, but the stamp fields are
    // what the window-free certificate lives on — compare them explicitly
    // so a regression names the field, not just the event.
    EXPECT_EQ(a[i].stamp, b[i].stamp) << "event " << i;
    EXPECT_EQ(a[i].ver, b[i].ver) << "event " << i;
  }
  EXPECT_EQ(mutex_recorder.certificate_order(),
            sharded_recorder.certificate_order());
  EXPECT_EQ(mutex_recorder.num_events(), sharded_recorder.num_events());
}

INSTANTIATE_TEST_SUITE_P(Stms, RecorderEquivalence,
                         ::testing::Values("tl2", "tiny", "norec", "dstm",
                                           "astm", "visible", "mv"));

// Window-free mutex-vs-sharded equivalence, fuzzed over seeds: with no
// window taken at all, both engines must still record the same events with
// the same read-stamp pairs on a deterministic schedule — and the sharded
// drain() must carry the stamp fields through unchanged (the regression
// guard for Event gaining fields the drain path might forget).
class WindowFreeRecorderFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowFreeRecorderFuzz, MutexAndShardedAgreeIncludingStamps) {
  std::size_t stamped_reads = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto mutex_stm = make_stm(GetParam(), 6);
    ASSERT_TRUE(mutex_stm->set_window_free(true));
    MutexRecorder mutex_recorder(6);
    mutex_stm->set_recorder(&mutex_recorder);

    const auto sharded_stm = make_stm(GetParam(), 6);
    ASSERT_TRUE(sharded_stm->set_window_free(true));
    Recorder sharded_recorder(6);
    sharded_stm->set_recorder(&sharded_recorder);

    // One logical process, seeded op mix — deterministic, so both engines
    // see the identical schedule.
    for (auto* stm : {static_cast<Stm*>(mutex_stm.get()),
                      static_cast<Stm*>(sharded_stm.get())}) {
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
    }

    const core::History a = mutex_recorder.history();

    // Drain path (what live verification consumes), not history(): the
    // stamp fields must survive the chunked-lane copy and the k-way merge.
    EventBatch drained;
    while (sharded_recorder.drain(drained) > 0) {
    }
    ASSERT_EQ(a.size(), drained.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], drained[i]) << "seed " << seed << " event " << i;
      EXPECT_EQ(a[i].stamp, drained[i].stamp) << "seed " << seed << " event " << i;
      EXPECT_EQ(a[i].ver, drained[i].ver) << "seed " << seed << " event " << i;
      if (a[i].kind == core::EventKind::kResponse &&
          a[i].op == core::OpCode::kRead && a[i].stamp != 0) {
        ++stamped_reads;
        EXPECT_EQ(a[i].stamp % 2, 1u) << "read stamps are snapshots (2rv+1)";
      }
    }
    // The window-free drained stream certifies under the stamped policy.
    core::OnlineCertificateMonitor monitor(
        sharded_recorder.model(), core::VersionOrderPolicy::kStampedRead);
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
