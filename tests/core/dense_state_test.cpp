// The dense hot-path containers (core/dense_state.hpp) — including the
// regression for the overflow/dense shadowing bug: an id first judged
// sparse (parked in the overflow map) must stay authoritative after the
// dense frontier later grows past it (growth migrates the entry), or a
// transaction's lifecycle state would silently reset mid-stream.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

#include "core/dense_state.hpp"

namespace optm::core {
namespace {

TEST(TxSlab, DenseIdsRoundTrip) {
  TxSlab<int> slab;
  for (TxId tx = 1; tx <= 100; ++tx) slab.get(tx) = static_cast<int>(tx);
  for (TxId tx = 1; tx <= 100; ++tx) {
    ASSERT_NE(slab.find(tx), nullptr);
    EXPECT_EQ(*slab.find(tx), static_cast<int>(tx));
  }
}

TEST(TxSlab, SparseIdsGoToOverflowAndSurviveFrontierGrowth) {
  TxSlab<int> slab;
  // Far past the grow slack from an empty slab: judged sparse.
  const TxId sparse = TxSlab<int>::kGrowSlack + 70'000;
  slab.get(sparse) = 42;
  ASSERT_NE(slab.find(sparse), nullptr);
  EXPECT_EQ(*slab.find(sparse), 42);

  // Now grow the dense frontier PAST the sparse id (within slack of the
  // current frontier each step). The overflow entry must migrate, not be
  // shadowed by a default-constructed dense slot.
  TxId frontier = 0;
  while (frontier < sparse + 10) {
    frontier += TxSlab<int>::kGrowSlack - 1;
    slab.get(frontier) = -1;
  }
  ASSERT_NE(slab.find(sparse), nullptr);
  EXPECT_EQ(*slab.find(sparse), 42) << "overflow entry shadowed by growth";
  EXPECT_EQ(slab.get(sparse), 42);

  // And it visits exactly once with its value.
  int seen = 0;
  slab.for_each([&](TxId tx, const int& v) {
    if (tx == sparse) {
      ++seen;
      EXPECT_EQ(v, 42);
    }
  });
  EXPECT_EQ(seen, 1);
}

TEST(TxSlab, ReserveIsNeverOvershotByGeometricGrowth) {
  TxSlab<int> slab;
  slab.reserve(1000);
  // Touch ids densely: growth doubles but clips to the reserved capacity.
  for (TxId tx = 0; tx < 1000; ++tx) slab.get(tx) = 1;
  ASSERT_NE(slab.find(999), nullptr);
}

TEST(VersionTable, FindAndInsertAcrossRehashes) {
  VersionTable<int> table(2);  // force several rehashes
  for (ObjId obj = 0; obj < 8; ++obj) {
    for (Value v = 0; v < 64; ++v) {
      bool inserted = false;
      table.slot(obj, v, &inserted) = static_cast<int>(obj * 1000 + v);
      EXPECT_TRUE(inserted);
    }
  }
  EXPECT_EQ(table.size(), 8u * 64u);
  for (ObjId obj = 0; obj < 8; ++obj) {
    for (Value v = 0; v < 64; ++v) {
      const int* rec = table.find(obj, v);
      ASSERT_NE(rec, nullptr) << obj << "," << v;
      EXPECT_EQ(*rec, static_cast<int>(obj * 1000 + v));
    }
  }
  EXPECT_EQ(table.find(9, 0), nullptr);
  EXPECT_EQ(table.find(0, 64), nullptr);
  // Re-slot of an existing key reports !inserted and keeps the record.
  bool inserted = true;
  EXPECT_EQ(table.slot(3, 7, &inserted), 3007);
  EXPECT_FALSE(inserted);
}

// A probe slot is {value, register, record index} whatever the record
// type: rehash moves 16 bytes per slot.
static_assert(sizeof(VersionTable<int>::Slot) == 16);
static_assert(sizeof(VersionTable<std::array<char, 40>>::Slot) == 16);

TEST(VersionTable, GrowthAcrossSixteenRehashesKeepsEveryRecord) {
  VersionTable<std::uint64_t> table(1);
  constexpr std::uint64_t kEntries = 600'000;
  std::size_t rehashes = 0;
  std::size_t buckets = table.bucket_count();
  for (std::uint64_t k = 0; k < kEntries; ++k) {
    const auto obj = static_cast<ObjId>(k % 7);
    table.slot(obj, static_cast<Value>(k)) = k * 3 + 1;
    if (table.bucket_count() != buckets) {
      ++rehashes;
      buckets = table.bucket_count();
    }
  }
  EXPECT_GE(rehashes, 16u);
  EXPECT_EQ(table.size(), kEntries);
  for (std::uint64_t k = 0; k < kEntries; ++k) {
    const std::uint64_t* rec =
        table.find(static_cast<ObjId>(k % 7), static_cast<Value>(k));
    ASSERT_NE(rec, nullptr) << k;
    ASSERT_EQ(*rec, k * 3 + 1) << k;
  }
  EXPECT_EQ(table.find(1, 0), nullptr);  // key (0, 0) exists, (1, 0) not
}

TEST(VersionTable, MoveKeepsEveryRecord) {
  VersionTable<int> table;
  for (Value v = 0; v < 1000; ++v) table.slot(2, v) = static_cast<int>(v) + 7;
  VersionTable<int> moved(std::move(table));
  EXPECT_EQ(moved.size(), 1000u);
  VersionTable<int> assigned;
  assigned.slot(5, 5) = 5;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 1000u);
  EXPECT_EQ(assigned.find(5, 5), nullptr);
  for (Value v = 0; v < 1000; ++v) {
    ASSERT_NE(assigned.find(2, v), nullptr);
    EXPECT_EQ(*assigned.find(2, v), static_cast<int>(v) + 7);
  }
  // Still growable after the move.
  bool inserted = false;
  assigned.slot(3, 3, &inserted) = 33;
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*assigned.find(3, 3), 33);
}

TEST(VersionTable, ReserveSizesWithoutInserting) {
  VersionTable<int> table;
  table.reserve(10'000);
  EXPECT_GE(table.bucket_count(), 20'000u);
  EXPECT_EQ(table.size(), 0u);
  const std::size_t buckets = table.bucket_count();
  for (Value v = 0; v < 10'000; ++v) table.slot(0, v) = 1;
  EXPECT_EQ(table.bucket_count(), buckets) << "reserve() was overshot";
}

TEST(SmallWriteSet, SortedUpsertInlineAndSpilled) {
  SmallWriteSet::SpillPool pool;
  SmallWriteSet ws;
  EXPECT_TRUE(ws.empty());
  // Out-of-order inserts, one overwrite, spill past the inline capacity.
  const ObjId objs[] = {7, 3, 9, 1, 5, 8, 2};
  for (std::size_t i = 0; i < std::size(objs); ++i) {
    ws.set(objs[i], static_cast<Value>(objs[i] * 10), pool);
  }
  ws.set(3, 333, pool);  // overwrite keeps size
  EXPECT_EQ(ws.size(), std::size(objs));
  // Iteration is ascending-register (the std::map order the engines need).
  ObjId prev = 0;
  for (const auto& [obj, val] : ws) {
    EXPECT_GT(obj, prev);
    prev = obj;
    EXPECT_EQ(val, obj == 3 ? 333 : static_cast<Value>(obj * 10));
  }
  ASSERT_NE(ws.find(3), nullptr);
  EXPECT_EQ(*ws.find(3), 333);
  EXPECT_EQ(ws.find(4), nullptr);

  // release() recycles the spill storage through the pool.
  ws.release(pool);
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(pool.size(), 1u);
  SmallWriteSet other;
  for (ObjId obj = 0; obj < 6; ++obj) other.set(obj, 1, pool);
  EXPECT_TRUE(pool.empty()) << "spill should come from the pool";
}

}  // namespace
}  // namespace optm::core
