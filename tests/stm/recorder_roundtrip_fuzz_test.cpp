// Round trip of the Recorder's lane records: whatever events the hooks
// are handed — extreme ids, kEmpty and negative values, stamps and
// versions past 48 bits, every combination of present payload fields,
// records that close a chunk with a pad or fill it exactly — history()
// and the concatenated drain() batches (at any batch bound) must
// reproduce exactly the recorded calls, in call order, and
// certificate_order() must be the stamped anchor order of those calls.
// A second group pins the encoded size on the soak mix.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/event.hpp"
#include "core/version_order.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace optm::stm {
namespace {

struct Call {
  std::uint32_t lane = 0;
  core::Event event;
};

/// Replay one event through the hook that records its kind.
void record(Recorder& rec, const Call& c) {
  const core::Event& e = c.event;
  switch (e.kind) {
    case core::EventKind::kInvoke:
      rec.on_inv(c.lane, e.tx, e.obj, e.op, e.arg);
      break;
    case core::EventKind::kResponse:
      rec.on_ret(c.lane, e.tx, e.obj, e.op, e.arg, e.ret, e.stamp, e.ver);
      break;
    case core::EventKind::kTryCommit:
      rec.on_try_commit(c.lane, e.tx);
      break;
    case core::EventKind::kCommit:
      rec.on_commit(c.lane, e.tx, e.stamp);
      break;
    case core::EventKind::kTryAbort:
      rec.on_try_abort(c.lane, e.tx);
      break;
    case core::EventKind::kAbort:
      rec.on_abort(c.lane, e.tx, e.stamp);
      break;
  }
}

class CallGen {
 public:
  explicit CallGen(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] Call next() {
    // Lanes 0..3 plus the last one, so the top lane index is covered.
    const std::uint32_t lanes[] = {0, 1, 2, 3, sim::kMaxThreads - 1};
    Call c;
    c.lane = lanes[rng_.below(5)];
    const core::TxId tx = tx_id();
    switch (rng_.below(6)) {
      case 0:
        c.event = core::ev::inv(tx, obj_id(), op(), value());
        break;
      case 1:
        c.event = core::ev::ret(tx, obj_id(), op(), maybe(value()), maybe(value()),
                                maybe(word()), maybe(word()));
        break;
      case 2:
        c.event = core::ev::try_commit(tx);
        break;
      case 3:
        c.event = core::ev::commit(tx, maybe(word()));
        break;
      case 4:
        c.event = core::ev::try_abort(tx);
        break;
      default:
        c.event = core::ev::abort(tx, maybe(word()));
        break;
    }
    return c;
  }

 private:
  template <class T>
  [[nodiscard]] T maybe(T v) {
    return rng_.chance(0.5) ? v : T{0};
  }
  [[nodiscard]] core::TxId tx_id() {
    const core::TxId pool[] = {0, 1, core::kNoTx, core::kNoTx - 1};
    return rng_.chance(0.5) ? pool[rng_.below(4)]
                            : static_cast<core::TxId>(rng_.next());
  }
  [[nodiscard]] VarId obj_id() {
    const VarId pool[] = {0, 1, core::kNoObj, core::kNoObj - 1};
    return rng_.chance(0.5) ? pool[rng_.below(4)] : static_cast<VarId>(rng_.next());
  }
  [[nodiscard]] core::OpCode op() {
    return static_cast<core::OpCode>(
        rng_.below(static_cast<std::uint64_t>(core::OpCode::kContains) + 1));
  }
  [[nodiscard]] core::Value value() {
    const core::Value pool[] = {0, 1, -1, core::kEmpty,
                                std::numeric_limits<core::Value>::max(), -42};
    return rng_.chance(0.5) ? pool[rng_.below(6)]
                            : static_cast<core::Value>(rng_.next());
  }
  [[nodiscard]] std::uint64_t word() {
    const std::uint64_t pool[] = {1, 2, core::kNoReadVersion, std::uint64_t{1} << 48,
                                  (std::uint64_t{1} << 48) - 1};
    return rng_.chance(0.5) ? pool[rng_.below(5)] : rng_.next();
  }

  util::Xoshiro256 rng_;
};

/// Every drain of `rec` bounded by `max_events`, concatenated; each batch
/// must respect the bound.
[[nodiscard]] std::vector<core::Event> drain_all(Recorder& rec, std::size_t max_events) {
  std::vector<core::Event> all;
  EventBatch batch;
  for (;;) {
    batch.clear();
    const std::size_t n = rec.drain(batch, max_events);
    EXPECT_EQ(n, batch.size());
    EXPECT_LE(n, max_events);
    if (n == 0) break;
    all.insert(all.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(rec.approx_pending(), 0u);
  return all;
}

/// Record `calls` into a fresh Recorder and check every read-back path
/// against the calls themselves.
void expect_round_trip(const std::vector<Call>& calls) {
  std::vector<core::Event> expected;
  expected.reserve(calls.size());
  for (const Call& c : calls) expected.push_back(c.event);
  const std::vector<core::TxId> expected_order =
      core::stamped_anchor_order(expected);

  for (const std::size_t max_events :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096},
        std::numeric_limits<std::size_t>::max()}) {
    Recorder rec(4);
    for (const Call& c : calls) record(rec, c);
    ASSERT_EQ(rec.num_events(), calls.size());
    const core::History h = rec.history();
    ASSERT_EQ(h.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(h[i], expected[i]) << "history event " << i << ": "
                                   << core::to_string(h[i]) << " vs "
                                   << core::to_string(expected[i]);
    }
    EXPECT_EQ(rec.certificate_order(), expected_order);
    const std::vector<core::Event> drained = drain_all(rec, max_events);
    ASSERT_EQ(drained.size(), expected.size()) << "max_events " << max_events;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(drained[i], expected[i])
          << "max_events " << max_events << " drained event " << i;
    }
    // Draining consumed nothing that history() reads.
    EXPECT_EQ(rec.history().events(), expected);
  }
}

TEST(RecorderRoundTrip, RandomEventsWithExtremeFields) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    CallGen gen(seed);
    std::vector<Call> calls;
    // ~2.5 chunks' worth on each of the 5 lanes: chunk ends closed by pads
    // of the widths the random record sizes leave.
    constexpr std::size_t kCalls = 5 * 5 * Recorder::kChunkBytes / 2 / 29;
    for (std::size_t i = 0; i < kCalls; ++i) calls.push_back(gen.next());
    expect_round_trip(calls);
  }
}

TEST(RecorderRoundTrip, EveryPresenceCombination) {
  std::vector<Call> calls;
  const core::Value values[] = {7, core::kEmpty};
  const std::uint64_t words[] = {3, core::kNoReadVersion};
  for (unsigned present = 0; present < 16; ++present) {
    for (int v = 0; v < 2; ++v) {
      Call c;
      c.lane = present % 3;
      c.event = core::ev::ret(
          present, present, core::OpCode::kRead, (present & 1) != 0 ? values[v] : 0,
          (present & 2) != 0 ? values[1 - v] : 0, (present & 4) != 0 ? words[v] : 0,
          (present & 8) != 0 ? words[1 - v] : 0);
      calls.push_back(c);
    }
  }
  expect_round_trip(calls);
}

TEST(RecorderRoundTrip, ChunkEndsClosedByEveryPadWidth) {
  constexpr std::size_t kChunkWords = Recorder::kChunkBytes / 8;
  const core::Event two = core::ev::try_commit(5);                       // 16 B
  const core::Event three = core::ev::commit(5, 9);                      // 24 B
  const core::Event six = core::ev::ret(6, 1, core::OpCode::kRead, -1,  // 48 B
                                        core::kEmpty, 11, core::kNoReadVersion);
  ASSERT_EQ(Recorder::record_bytes(two), 16u);
  ASSERT_EQ(Recorder::record_bytes(three), 24u);
  ASSERT_EQ(Recorder::record_bytes(six), 48u);
  // Leave `left` words free at the end of the first chunk, then record a
  // 6-word record: it fits when left >= 6, else a pad closes the chunk
  // (left == 0: the chunk is exactly full, no pad).
  for (std::size_t left = 0; left <= 7; ++left) {
    std::vector<Call> calls;
    std::size_t fill = kChunkWords - left;
    if (fill % 2 == 1) {
      calls.push_back({0, three});
      fill -= 3;
    }
    for (; fill > 0; fill -= 2) calls.push_back({0, two});
    calls.push_back({0, six});
    for (int i = 0; i < 5; ++i) calls.push_back({0, i % 2 == 0 ? six : three});

    Recorder rec(4);
    for (std::size_t i = 0; i + 6 < calls.size(); ++i) record(rec, calls[i]);
    ASSERT_EQ(rec.bytes_used(), Recorder::kChunkBytes - 8 * left) << left;
    record(rec, calls[calls.size() - 6]);
    const std::size_t expected_bytes =
        left >= 6 ? Recorder::kChunkBytes - 8 * left + 48 : Recorder::kChunkBytes + 48;
    EXPECT_EQ(rec.bytes_used(), expected_bytes) << "left " << left;
    expect_round_trip(calls);
  }
}

TEST(RecorderRoundTrip, BoundedDrainInterleavedWithRecording) {
  // A drain bound that cuts runs mid-lane while more records (and chunk
  // ends) keep arriving between drains.
  CallGen gen(11);
  Recorder rec(4);
  std::vector<core::Event> expected;
  std::vector<core::Event> drained;
  EventBatch batch;
  // ~1.5 chunks on each of the 5 lanes.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 200; ++i) {
      const Call c = gen.next();
      record(rec, c);
      expected.push_back(c.event);
    }
    batch.clear();
    const std::size_t n = rec.drain(batch, 150);
    EXPECT_EQ(n, 150u);
    drained.insert(drained.end(), batch.begin(), batch.end());
    EXPECT_EQ(rec.approx_pending(), rec.stamps_issued() - drained.size());
  }
  while (true) {
    batch.clear();
    if (rec.drain(batch, 150) == 0) break;
    drained.insert(drained.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(drained, expected);
  EXPECT_EQ(rec.certificate_order(), core::stamped_anchor_order(expected));
}

TEST(RecorderEncoding, RecordSizesOfTheCommonEvents) {
  using core::OpCode;
  EXPECT_EQ(Recorder::record_bytes(core::ev::inv(1, 2, OpCode::kRead)), 16u);
  EXPECT_EQ(Recorder::record_bytes(core::ev::try_commit(1)), 16u);
  EXPECT_EQ(Recorder::record_bytes(core::ev::inv(1, 2, OpCode::kWrite, 5)), 24u);
  EXPECT_EQ(Recorder::record_bytes(core::ev::ret(1, 2, OpCode::kWrite, 5, core::kOk)),
            24u);
  EXPECT_EQ(Recorder::record_bytes(core::ev::commit(1, 8)), 24u);
  EXPECT_EQ(Recorder::record_bytes(core::ev::abort(1, 9)), 24u);
  EXPECT_EQ(Recorder::record_bytes(core::ev::ret(1, 2, OpCode::kRead, 0, 5, 9, 4)), 40u);
}

/// The soak / live-certify mix (tl2, 64 registers, 4 ops a transaction,
/// half writes, 5% voluntary aborts), windowed and window-free: the mean
/// lane bytes per event, chunk-closing pads included, stay at or below 28
/// and no record exceeds 48 bytes.
TEST(RecorderEncoding, SoakMixStaysCompact) {
  for (const bool window_free : {false, true}) {
    const auto stm = make_stm("tl2", 64);
    ASSERT_TRUE(stm->set_window_free(window_free));
    Recorder rec(64);
    stm->set_recorder(&rec);
    wl::MixParams mix;
    mix.threads = 3;
    mix.vars = 64;
    mix.ops_per_tx = 4;
    mix.txs_per_thread = 8000;  // ~200k events: a few chunks per lane
    mix.seed = 5;
    (void)wl::run_random_mix(*stm, mix);

    const core::History h = rec.history();
    ASSERT_EQ(h.size(), rec.num_events());
    std::size_t record_total = 0;
    for (const core::Event& e : h.events()) {
      const std::size_t b = Recorder::record_bytes(e);
      EXPECT_LE(b, 48u) << core::to_string(e);
      record_total += b;
    }
    const double mean = static_cast<double>(rec.bytes_used()) /
                        static_cast<double>(rec.num_events());
    EXPECT_LE(mean, 28.0) << "window_free " << window_free;
    // Pads are the only bytes a lane holds beyond its records.
    EXPECT_GE(rec.bytes_used(), record_total);
    EXPECT_LE(rec.bytes_used() - record_total, record_total / 100)
        << "pads waste more than 1%";
  }
}

}  // namespace
}  // namespace optm::stm
