// Batch ingestion and the sharded offline driver must agree with the
// single-event streaming certificate monitor — same verdict, same first
// condemned position — on fuzzed histories, clean recorded runs, and the
// paper's own counterexamples.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/online.hpp"
#include "core/paper.hpp"
#include "core/parallel_verify.hpp"
#include "core/random_history.hpp"
#include "core/stream_verify.hpp"
#include "util/pool.hpp"

namespace optm::core {
namespace {

[[nodiscard]] std::optional<OnlineViolation> stream_one_by_one(
    const History& h) {
  OnlineCertificateMonitor m(h.model());
  for (const Event& e : h.events()) (void)m.feed(e);
  return m.violation();
}

class BatchEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchEquivalence, IngestMatchesFeedForEveryBatchSize) {
  for (const ValueModel model :
       {ValueModel::kCoherent, ValueModel::kAdversarial}) {
    RandomHistoryParams params;
    params.seed = GetParam();
    params.num_txs = 8;
    params.num_objects = 4;
    params.value_model = model;
    const History h = random_history(params);
    const auto reference = stream_one_by_one(h);

    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{16}, h.size() + 1}) {
      OnlineCertificateMonitor m(h.model());
      const std::span<const Event> events(h.events());
      for (std::size_t i = 0; i < events.size(); i += batch) {
        (void)m.ingest(events.subspan(i, std::min(batch, events.size() - i)));
      }
      EXPECT_EQ(m.ok(), !reference.has_value()) << h.str();
      EXPECT_EQ(m.events_fed(), h.size());
      if (reference.has_value()) {
        ASSERT_TRUE(m.violation().has_value());
        EXPECT_EQ(m.violation()->pos, reference->pos) << h.str();
        EXPECT_EQ(m.violation()->reason, reference->reason);
      }
    }
  }
}

TEST_P(BatchEquivalence, ShardedDriverMatchesStreamingMonitor) {
  util::ThreadPool pool(2);
  for (const ValueModel model :
       {ValueModel::kCoherent, ValueModel::kAdversarial}) {
    RandomHistoryParams params;
    params.seed = GetParam() + 5000;
    params.num_txs = 8;
    params.num_objects = 4;
    params.max_ops_per_tx = 5;
    params.value_model = model;
    const History h = random_history(params);
    const auto reference = stream_one_by_one(h);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}}) {
      ShardVerifyOptions options;
      options.num_shards = shards;
      const ParallelVerifyResult result =
          verify_history_sharded(h, pool, options);
      EXPECT_EQ(result.certified, !reference.has_value())
          << "shards=" << shards << "\n"
          << h.str()
          << (result.violation ? "\ndriver: " + result.violation->reason : "")
          << (reference ? "\nmonitor: " + reference->reason : "");
      if (reference.has_value() && result.violation.has_value()) {
        EXPECT_EQ(result.violation->pos, reference->pos)
            << "shards=" << shards << "\ndriver: " << result.violation->reason
            << "\nmonitor: " << reference->reason << "\n"
            << h.str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalence,
                         ::testing::Range<std::uint64_t>(1, 61));

TEST(StreamVerify, OversizedWindowIsNotAnUpFrontAllocation) {
  // The phase-1 buffer reserves at most the default window, so a window
  // no machine could hold still verifies a short stream instead of
  // failing to allocate before the first event.
  const History h = HistoryBuilder::registers(2)
                        .write(1, 0, 5)
                        .commit_now(1)
                        .read(2, 0, 5)
                        .read(2, 1, 0)
                        .commit_now(2)
                        .build();
  for (const std::size_t window :
       {std::size_t{2}, std::size_t{1} << 50,
        std::numeric_limits<std::size_t>::max()}) {
    bool pulled = false;
    const EventPull pull = [&]() -> std::span<const Event> {
      if (pulled) return {};
      pulled = true;
      return h.events();
    };
    StreamVerifyOptions options;
    options.window_events = window;
    StreamVerifyResult r;
    ASSERT_NO_THROW(r = verify_event_stream(h.model(), pull, options))
        << window;
    EXPECT_TRUE(r.certified) << window;
    EXPECT_EQ(r.events, h.size());
    EXPECT_EQ(r.used_sharded_driver, window > h.size()) << window;
  }
}

TEST(ShardedDriver, CertifiesTheOpaquePaperHistory) {
  const History h5 = paper::fig2_h5();
  const ParallelVerifyResult result = verify_history_sharded(h5);
  EXPECT_TRUE(result.certified) << (result.violation ? result.violation->reason
                                                     : "");
}

TEST(ShardedDriver, FlagsAndAdjudicatesTheNonOpaquePaperHistory) {
  const History h1 = paper::fig1_h1();
  ShardVerifyOptions options;
  options.num_shards = 1;
  options.definitional_fallback = true;
  const ParallelVerifyResult result = verify_history_sharded(h1, options);
  ASSERT_FALSE(result.certified);
  ASSERT_FALSE(result.flags.empty());
  // The streaming monitor condemns the same position.
  const auto reference = stream_one_by_one(h1);
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(result.violation->pos, reference->pos);
  // H1 is genuinely non-opaque, so the exact adjudicator must agree that
  // the flagged shard's sub-history (here: the whole history) is bad.
  EXPECT_EQ(result.flags.front().adjudication, Verdict::kNo)
      << result.flags.front().adjudication_reason;
}

TEST(ShardedDriver, ProjectionKeepsLifecycleOfTouchingTransactions) {
  const History h1 = paper::fig1_h1();
  std::vector<ObjId> all_regs;
  for (ObjId r = 0; r < h1.model().size(); ++r) all_regs.push_back(r);
  const History full = project_registers(h1, all_regs);
  ASSERT_EQ(full.size(), h1.size());
  const History none = project_registers(h1, {});
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace optm::core
