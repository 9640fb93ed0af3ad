// The pluggable version-order layer: §3.6 blind-write histories that the
// commit-order certificate falsely flags but the BlindWriteSmart policy
// certifies (cross-checked against the exact definitional monitor),
// structured reason codes on certificate flags and their definitional
// adjudication, and policy plumbing through the certificate monitor.
#include <gtest/gtest.h>

#include <string>

#include "core/adjudicate.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/paper.hpp"
#include "core/random_history.hpp"
#include "core/version_order.hpp"

namespace optm::core {
namespace {

[[nodiscard]] OnlineCertificateMonitor feed_all(
    const History& h, VersionOrderPolicy policy) {
  OnlineCertificateMonitor m(h.model(), policy);
  for (const Event& e : h.events()) (void)m.feed(e);
  return m;
}

/// §3.6's smart-TM shape: T2 reads the initial x, T1 blind-writes x and
/// commits FIRST, then T2 blind-writes y and commits. The commit order
/// cannot serialize T2 (its read of x=0 is no longer current at its commit
/// rank), but T2 ≪ T1 is a legal version order: T1's write is blind and
/// the two transactions overlap in real time.
[[nodiscard]] History smart_blind_history() {
  History h(ObjectModel::registers(2, 0));
  h.append(ev::inv(2, 0, OpCode::kRead)).append(ev::ret(2, 0, OpCode::kRead, 0, 0));
  h.append(ev::inv(1, 0, OpCode::kWrite, 1))
      .append(ev::ret(1, 0, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(1)).append(ev::commit(1));
  h.append(ev::inv(2, 1, OpCode::kWrite, 1))
      .append(ev::ret(2, 1, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(2)).append(ev::commit(2));
  return h;
}

/// The same shape but T1 wholly precedes T2, so the real-time order ≺_H
/// forbids the reordering — genuinely non-opaque.
[[nodiscard]] History stale_blind_history() {
  History h(ObjectModel::registers(2, 0));
  h.append(ev::inv(1, 0, OpCode::kWrite, 1))
      .append(ev::ret(1, 0, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(1)).append(ev::commit(1));
  h.append(ev::inv(2, 0, OpCode::kRead)).append(ev::ret(2, 0, OpCode::kRead, 0, 0));
  h.append(ev::inv(2, 1, OpCode::kWrite, 2))
      .append(ev::ret(2, 1, OpCode::kWrite, 2, kOk));
  h.append(ev::try_commit(2)).append(ev::commit(2));
  return h;
}

TEST(BlindWriteSmart, CertifiesWhatCommitOrderFalselyFlags) {
  const History h = smart_blind_history();

  // Commit order: flagged at T2's C, with the structured kind.
  const auto commit_order = feed_all(h, VersionOrderPolicy::kCommitOrder);
  ASSERT_FALSE(commit_order.ok());
  EXPECT_EQ(commit_order.violation()->kind, CertFlagKind::kNotCurrentAtCommit);
  EXPECT_EQ(commit_order.violation()->pos, h.size() - 1);

  // BlindWriteSmart: the §3.6 reordering certifies the prefix and the
  // monitor keeps streaming (retro-ordered).
  const auto smart = feed_all(h, VersionOrderPolicy::kBlindWriteSmart);
  EXPECT_TRUE(smart.ok()) << smart.violation()->reason;
  EXPECT_TRUE(smart.retro_ordered());

  // The exact definitional monitor agrees the history is opaque.
  OnlineDefinitionalMonitor exact(h.model());
  for (const Event& e : h.events()) (void)exact.feed(e);
  EXPECT_TRUE(exact.ok()) << exact.violation()->reason;
}

TEST(BlindWriteSmart, MonitorYieldsWitnessOrder) {
  const History h = smart_blind_history();

  const auto flagged = feed_all(h, VersionOrderPolicy::kCommitOrder);
  ASSERT_FALSE(flagged.ok());
  EXPECT_EQ(flagged.violation()->kind, CertFlagKind::kNotCurrentAtCommit);
  EXPECT_EQ(flagged.violation()->tx, 2u);
  EXPECT_TRUE(flagged.witness().empty());

  const auto repaired = feed_all(h, VersionOrderPolicy::kBlindWriteSmart);
  EXPECT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired.violation().has_value());
  // The witness order serializes the blind-written version of T2 first.
  ASSERT_EQ(repaired.witness().size(), 2u);
  EXPECT_EQ(repaired.witness()[0], 2u);
  EXPECT_EQ(repaired.witness()[1], 1u);
}

TEST(BlindWriteSmart, RealTimeOrderStillBlocksTheReordering) {
  const History h = stale_blind_history();

  // The per-read stale flag fires for every policy — no §3.6 reordering
  // can move T2 before a transaction that wholly preceded it, so the
  // repair attempt fails and the ORIGINAL flag (kind included) is latched.
  for (const VersionOrderPolicy policy :
       {VersionOrderPolicy::kCommitOrder, VersionOrderPolicy::kBlindWriteSmart}) {
    const auto m = feed_all(h, policy);
    ASSERT_FALSE(m.ok()) << to_string(policy);
    EXPECT_EQ(m.violation()->kind, CertFlagKind::kStaleRead) << to_string(policy);
  }

  // And rightly so: the history is genuinely non-opaque.
  const OpacityResult exact = check_opacity(h);
  EXPECT_EQ(exact.verdict, Verdict::kNo);

  const auto smart = feed_all(h, VersionOrderPolicy::kBlindWriteSmart);
  EXPECT_FALSE(smart.ok());
  EXPECT_TRUE(smart.witness().empty());
  const Adjudication a = adjudicate(h, smart.violation()->kind);
  EXPECT_EQ(a.verdict, Verdict::kNo) << a.reason;
}

TEST(BlindWriteSmart, PaperBlindOverlappingWritesCertifiesUnderEveryPolicy) {
  const History h = paper::blind_overlapping_writes(4);
  for (const VersionOrderPolicy policy :
       {VersionOrderPolicy::kCommitOrder, VersionOrderPolicy::kBlindWriteSmart,
        VersionOrderPolicy::kSnapshotRank}) {
    const auto m = feed_all(h, policy);
    EXPECT_TRUE(m.ok()) << to_string(policy) << ": " << m.violation()->reason;
  }
}

TEST(ReasonCodes, ReadFromCommitPendingWriterIsStructured) {
  // H4's shape: T2's writes are commit-pending when T3 reads one of them.
  // The certificate flags conservatively — and the flag must carry the
  // kReadFromNonCommitted kind so adjudication can dispatch on it without
  // string matching.
  const History h4 = paper::h4();
  const auto m = feed_all(h4, VersionOrderPolicy::kCommitOrder);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kReadFromNonCommitted);

  // H4 is opaque (the V-set optimization): the conservative flag is
  // adjudicated kYes by the exact checker.
  const Adjudication a = adjudicate(h4, m.violation()->kind);
  EXPECT_EQ(a.verdict, Verdict::kYes) << a.reason;
}

TEST(ReasonCodes, ConsistencyViolationsAdjudicateWithoutTheSearch) {
  // A read of a never-written value proves non-opacity outright
  // (Theorem 2 makes §5.4 consistency necessary): the fallback dispatches
  // on the kind and skips the exponential checker.
  History h(ObjectModel::registers(1, 0));
  h.append(ev::inv(1, 0, OpCode::kRead))
      .append(ev::ret(1, 0, OpCode::kRead, 0, 42));
  h.append(ev::try_commit(1)).append(ev::commit(1));

  const auto m = feed_all(h, VersionOrderPolicy::kCommitOrder);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kUnwrittenValue);
  EXPECT_TRUE(proves_non_opaque(m.violation()->kind));

  const Adjudication a = adjudicate(h, m.violation()->kind);
  EXPECT_EQ(a.verdict, Verdict::kNo);
  EXPECT_NE(a.reason.find("no search needed"), std::string::npos);
}

TEST(ReasonCodes, DefinitionalMonitorTagsItsViolations) {
  const History zombie = paper::section2_zombie();
  OnlineDefinitionalMonitor m(zombie.model());
  for (const Event& e : zombie.events()) (void)m.feed(e);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kNotOpaque);
}

TEST(SnapshotRank, DegeneratesToCommitOrderOnUnstampedHistories) {
  // Unstamped C events synthesize ranks in record order, so the
  // SnapshotRank policy must agree with kCommitOrder verdict-and-position
  // on every stamp-free history.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const ValueModel model :
         {ValueModel::kCoherent, ValueModel::kAdversarial}) {
      RandomHistoryParams params;
      params.seed = seed;
      params.num_txs = 8;
      params.num_objects = 4;
      params.value_model = model;
      const History h = random_history(params);
      const auto commit_order = feed_all(h, VersionOrderPolicy::kCommitOrder);
      const auto snapshot = feed_all(h, VersionOrderPolicy::kSnapshotRank);
      ASSERT_EQ(commit_order.ok(), snapshot.ok()) << h.str();
      if (!commit_order.ok()) {
        EXPECT_EQ(commit_order.violation()->pos, snapshot.violation()->pos)
            << h.str();
        EXPECT_EQ(commit_order.violation()->kind, snapshot.violation()->kind);
      }
    }
  }
}

TEST(SnapshotRank, ReadlessUpdateCommitBelowTheBirthFloorFlags) {
  // T1 commits an update stamped 2·10 (floor 20); T2 then begins and
  // blind-writes with a stamp BELOW the floor — serializing before a
  // transaction that wholly preceded it. The monitor fires the rank check
  // at T2's C even though T2 has no reads.
  History h(ObjectModel::registers(2, 0));
  h.append(ev::inv(1, 0, OpCode::kWrite, 1))
      .append(ev::ret(1, 0, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(1)).append(ev::commit(1, 20));
  h.append(ev::inv(2, 1, OpCode::kWrite, 2))
      .append(ev::ret(2, 1, OpCode::kWrite, 2, kOk));
  h.append(ev::try_commit(2)).append(ev::commit(2, 4));

  const auto m = feed_all(h, VersionOrderPolicy::kSnapshotRank);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kNotCurrentAtCommit);
  EXPECT_EQ(m.violation()->pos, h.size() - 1);
  EXPECT_EQ(m.violation()->tx, 2u);
}

TEST(AnchorOrder, MatchesRecorderAnchors) {
  const History h = smart_blind_history();
  const std::vector<TxId> order = anchor_order(h);
  ASSERT_EQ(order.size(), 2u);
  // Both committed: anchored at their C events, T1 first.
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
}

// Regression for the shared version-identity helper (it used to be
// duplicated, guard included, in both certificate engines): genuine
// claims match, mismatches fail, and the 2·ver wrap attack — where
// ver = 2^63 + true_ver multiplies back to the true open rank modulo
// 2^64 — is rejected by the magnitude guard, not by luck of the product.
TEST(StampedRead, SharedVersionIdentityHelperGuardsTheWrap) {
  EXPECT_TRUE(read_stamp_names_version(0, 0));     // the initializer
  EXPECT_TRUE(read_stamp_names_version(21, 42));
  EXPECT_FALSE(read_stamp_names_version(21, 44));  // names the wrong version
  EXPECT_FALSE(read_stamp_names_version(22, 42));

  const std::uint64_t wrap = (std::uint64_t{1} << 63) + 21;
  ASSERT_EQ(2 * wrap, 42u);  // the attack really aliases without the guard
  EXPECT_FALSE(read_stamp_names_version(wrap, 42));
  // The guard's boundary: the largest non-wrapping ver still validates.
  const std::uint64_t max_ver = ~std::uint64_t{0} >> 1;
  EXPECT_TRUE(read_stamp_names_version(
      max_ver, static_cast<std::size_t>(2 * max_ver)));
  EXPECT_FALSE(read_stamp_names_version(max_ver + 1, 0));
}

}  // namespace
}  // namespace optm::core
