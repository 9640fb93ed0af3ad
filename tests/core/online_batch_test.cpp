// Batch ingestion and the pull-based stream front-end must agree with the
// single-event streaming certificate monitor — same verdict, same first
// condemned position — on fuzzed histories; the definitional adjudicator
// settles the paper's own counterexamples.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/adjudicate.hpp"
#include "core/online.hpp"
#include "core/paper.hpp"
#include "core/random_history.hpp"
#include "core/stream_verify.hpp"

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

TEST_P(BatchEquivalence, StreamVerifyMatchesFeedForEveryPullSize) {
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

    for (const std::size_t pull : {std::size_t{1}, std::size_t{2},
                                   std::size_t{7}, h.size() + 1}) {
      const std::span<const Event> events(h.events());
      std::size_t off = 0;
      const EventPull next = [&]() -> std::span<const Event> {
        const std::span<const Event> span =
            events.subspan(off, std::min(pull, events.size() - off));
        off += span.size();
        return span;
      };
      const StreamVerifyResult r = verify_event_stream(h.model(), next);
      EXPECT_EQ(r.certified, !reference.has_value())
          << "pull=" << pull << "\n" << h.str();
      EXPECT_EQ(r.events, h.size());
      ASSERT_EQ(r.violation.has_value(), reference.has_value());
      if (reference.has_value()) {
        EXPECT_EQ(r.violation->pos, reference->pos) << "pull=" << pull;
        EXPECT_EQ(r.violation->kind, reference->kind);
        EXPECT_EQ(r.violation->tx, reference->tx);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalence,
                         ::testing::Range<std::uint64_t>(1, 61));

TEST(PaperHistory, TheOpaqueH5Certifies) {
  const History h5 = paper::fig2_h5();
  EXPECT_FALSE(stream_one_by_one(h5).has_value());
}

TEST(PaperHistory, TheNonOpaqueH1FlagsAndAdjudicatesNo) {
  const History h1 = paper::fig1_h1();
  const auto flag = stream_one_by_one(h1);
  ASSERT_TRUE(flag.has_value());
  EXPECT_EQ(flag->tx, h1[flag->pos].tx);
  // H1 is genuinely non-opaque, so the exact adjudicator must agree.
  const Adjudication a = adjudicate(h1, flag->kind);
  EXPECT_EQ(a.verdict, Verdict::kNo) << a.reason;
}

TEST(Adjudicate, ProjectionKeepsLifecycleOfTouchingTransactions) {
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
