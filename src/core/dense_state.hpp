// Dense state containers for the certificate engines' hot path.
//
// The streaming certificate monitor touches per-event exactly three pieces
// of state: the acting transaction's entry, the (register, value) version
// record the event resolves against, and — on reads of open versions — the
// register's holder list. These containers keep that state O(1) per access,
// with ZERO heap allocations in steady state, and small enough to stay in
// cache on long streams:
//
//   * TxSlab<T>      — a TxId-indexed slab. Both recorders allocate
//     transaction ids densely from 1 (Recorder::begin_tx is a fetch_add),
//     so the id IS the index; the slab grows geometrically and an access
//     is one bounds check + one vector index. Hand-built histories with
//     genuinely sparse ids (fuzzers, adversarial tests) spill into a small
//     overflow map instead of ballooning the slab: an id more than
//     kGrowSlack past the dense frontier is judged non-dense. The monitor
//     stores a 4-byte code per id here (a completed transaction's outcome,
//     or a live transaction's slot in its pool of full states).
//
//   * VersionTable<R> — an open-addressing, linear-probing flat table over
//     (register, value) keys, the §5.4 value-unique version namespace.
//     A slot is 16 bytes, {value, register, 1-based record index}, and
//     points into an append-only record array, so probing is cache-
//     sequential and a rehash moves 16 bytes per slot whatever the record
//     type. The table only ever grows — the engines never erase a
//     version, so no tombstones exist and a probe chain never has to step
//     over deleted slots (the "tombstone-free epochs" property: a rehash
//     starts a fresh epoch with every surviving slot reinserted). Both
//     arrays live in anonymous zero pages (ZeroPages): a fresh slot array
//     needs no fill pass, and reserve() faults in what it sizes.
//
//   * SmallWriteSet  — a transaction's executed writes, sorted by
//     register: inline storage for the common small write set, spilling
//     into a pooled vector past kInlineCapacity. Spill vectors are
//     RECYCLED through a caller-owned pool (release() at transaction
//     completion), so even write-heavy streams stop allocating once the
//     pool has warmed to the high-water number of concurrently live
//     spilled transactions. Iteration order is ascending register — the
//     same order the std::map it replaces gave the engines, so commit
//     installation order (and therefore every verdict and flag position)
//     is preserved byte for byte.
//
// All three are shared by OnlineCertificateMonitor (core/online.hpp) and
// the sharded offline driver (core/parallel_verify.cpp); the monitor's
// reserve() pre-sizes them so a soak-scale feed performs no allocation at
// all after warm-up (tests/core/monitor_alloc_test.cpp holds it to that
// under a counting operator-new).
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/hash.hpp"

namespace optm::core {

// ---------------------------------------------------------------------------
// TxSlab
// ---------------------------------------------------------------------------

/// TxId-indexed slab with an overflow map for non-dense ids. T must be
/// default-constructible; a default-constructed T is indistinguishable
/// from "never touched" (the monitor's TxCode 0 is "unseen", the sharded
/// driver's TxState encodes absence as !born, both what default
/// construction yields).
template <typename T>
class TxSlab {
 public:
  /// Ids at most this far past the dense frontier still grow the slab;
  /// anything further is treated as sparse and lives in the overflow map
  /// (prevents a single adversarial id from allocating gigabytes).
  static constexpr TxId kGrowSlack = 1u << 16;

  void reserve(std::size_t num_txs) { dense_.reserve(num_txs); }

  /// Mutable access, growing the slab on demand (the "insert" of the map
  /// API this replaces). Hot path: one compare + one index. Geometric
  /// growth, clipped to the reserved capacity so a reserve() sized to the
  /// load is never overshot into a reallocation.
  ///
  /// INVARIANT: overflow_ never holds a key below dense_.size() — growth
  /// migrates any overflow entries the new frontier covers, so a dense
  /// hit can never shadow state parked in the overflow map (an id judged
  /// sparse earlier stays authoritative after the frontier passes it).
  [[nodiscard]] T& get(TxId tx) {
    if (tx < dense_.size()) return dense_[tx];
    if (tx < dense_.size() + kGrowSlack) {
      const std::size_t need = static_cast<std::size_t>(tx) + 1;
      const std::size_t want =
          std::max<std::size_t>(need, dense_.size() * 2);
      dense_.resize(std::max(need, std::min(want, dense_.capacity())));
      migrate_covered_overflow();
      return dense_[tx];
    }
    return overflow_[tx];
  }

  /// Lookup without insertion. A dense id below the frontier always
  /// resolves (possibly to a default-constructed T — see class comment).
  [[nodiscard]] T* find(TxId tx) noexcept {
    if (tx < dense_.size()) return &dense_[tx];
    const auto it = overflow_.find(tx);
    return it == overflow_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const T* find(TxId tx) const noexcept {
    if (tx < dense_.size()) return &dense_[tx];
    const auto it = overflow_.find(tx);
    return it == overflow_.end() ? nullptr : &it->second;
  }

  /// Visit every slot ever materialized, as (TxId, T&). Dense slots that
  /// were never touched visit as default-constructed T — callers filter on
  /// their own "born" marker, exactly as they skipped absent map keys.
  template <typename F>
  void for_each(F&& f) const {
    for (TxId tx = 0; tx < dense_.size(); ++tx) f(tx, dense_[tx]);
    for (const auto& [tx, t] : overflow_) f(tx, t);
  }

 private:
  /// Restore the class invariant after dense growth: entries the new
  /// frontier covers move from the overflow map into their dense slot.
  /// Overflow is adversarial-input-only, so this stays off the hot path.
  void migrate_covered_overflow() {
    if (overflow_.empty()) return;
    for (auto it = overflow_.begin(); it != overflow_.end();) {
      if (it->first < dense_.size()) {
        dense_[it->first] = std::move(it->second);
        it = overflow_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<T> dense_;
  std::unordered_map<TxId, T> overflow_;
};

// ---------------------------------------------------------------------------
// ZeroPages
// ---------------------------------------------------------------------------

/// Anonymous, page-granular, zero-filled memory. Fresh pages read as zero
/// with no fill pass (the kernel maps them on first touch), and mappings of
/// a huge page or more carry MADV_HUGEPAGE advice. `prefault` write-touches
/// the newly mapped pages up front, so a caller that sizes memory ahead of
/// a run takes its page faults there.
class ZeroPages {
 public:
  ZeroPages() = default;
  ZeroPages(std::size_t bytes, bool prefault) { grow(bytes, prefault); }
  ZeroPages(ZeroPages&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  ZeroPages& operator=(ZeroPages&& other) noexcept {
    if (this != &other) {
      unmap();
      data_ = std::exchange(other.data_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;
  ~ZeroPages() { unmap(); }

  [[nodiscard]] void* data() const noexcept { return data_; }

  /// Extend to at least `bytes`: a fresh mapping takes a copy of the
  /// contents, and the new tail reads as zero.
  void grow(std::size_t bytes, bool prefault) {
    const std::size_t page = page_bytes();
    const std::size_t want = (bytes + page - 1) / page * page;
    if (want <= bytes_) return;
    void* p = ::mmap(nullptr, want, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    if (want >= kHugePageBytes) (void)::madvise(p, want, MADV_HUGEPAGE);
    const std::size_t old = bytes_;
    if (data_ != nullptr) {
      std::memcpy(p, data_, old);
      unmap();
    }
    data_ = p;
    bytes_ = want;
    if (prefault) {
      auto* bytes_at = static_cast<unsigned char*>(data_);
      for (std::size_t off = old; off < want; off += page) bytes_at[off] = 0;
    }
  }

 private:
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  [[nodiscard]] static std::size_t page_bytes() noexcept {
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
  }

  void unmap() noexcept {
    if (data_ != nullptr) (void)::munmap(data_, bytes_);
  }

  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// VersionTable
// ---------------------------------------------------------------------------

/// Open-addressing flat hash table over (register, value) keys. Linear
/// probing, power-of-two capacity, load factor <= 1/2. Slots are 16 bytes
/// and index an append-only record array. No erase — the version
/// namespace only grows — hence no tombstones. A reference returned by
/// slot() or find() stays valid until the next insertion.
template <typename Rec>
class VersionTable {
  static_assert(std::is_trivially_copyable_v<Rec> &&
                    std::is_trivially_destructible_v<Rec>,
                "records live in raw pages and move by memcpy");

 public:
  /// One probe slot. `rec` is the 1-based index of the key's record; 0
  /// marks an empty slot, which is what a fresh zero page reads as.
  struct Slot {
    Value val;
    ObjId obj;
    std::uint32_t rec;
  };
  static_assert(sizeof(Slot) == 16, "a probe slot is 16 bytes");

  explicit VersionTable(std::size_t expected_entries = 16) {
    rehash(bucket_count_for(expected_entries), /*prefault=*/true);
  }

  /// Size the table for `entries` and fault its pages in now.
  void reserve(std::size_t entries) {
    const std::size_t want = bucket_count_for(entries);
    if (want > buckets_) rehash(want, /*prefault=*/true);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_; }

  /// Find the record for (obj, val), default-inserting one if absent (the
  /// emplace of the map API this replaces). `inserted` reports which. The
  /// growth check runs only when the probe actually inserts, so a lookup
  /// of an existing key can never rehash — reserve() sized exactly to the
  /// load stays allocation-free, as the monitor's reserve() contract
  /// promises.
  [[nodiscard]] Rec& slot(ObjId obj, Value val, bool* inserted = nullptr) {
    std::size_t i = find_slot(obj, val);
    if (slots()[i].rec != 0) {
      if (inserted != nullptr) *inserted = false;
      return records()[slots()[i].rec - 1];
    }
    if ((size_ + 1) * 2 > buckets_) {
      rehash(buckets_ * 2, /*prefault=*/false);
      i = find_slot(obj, val);  // empty slot in the new epoch
    }
    Rec* rec = ::new (records() + size_) Rec{};
    ++size_;
    slots()[i] = Slot{val, obj, static_cast<std::uint32_t>(size_)};
    if (inserted != nullptr) *inserted = true;
    return *rec;
  }

  /// A record's index is stable for the table's lifetime (records are
  /// append-only), unlike its address: record(index_of(r)) is r again
  /// after any number of insertions.
  [[nodiscard]] std::uint32_t index_of(const Rec& rec) const noexcept {
    return static_cast<std::uint32_t>(&rec - records());
  }
  [[nodiscard]] Rec& record(std::uint32_t index) noexcept {
    return records()[index];
  }

  [[nodiscard]] Rec* find(ObjId obj, Value val) noexcept {
    const Slot& s = slots()[find_slot(obj, val)];
    return s.rec != 0 ? records() + (s.rec - 1) : nullptr;
  }
  [[nodiscard]] const Rec* find(ObjId obj, Value val) const noexcept {
    return const_cast<VersionTable*>(this)->find(obj, val);
  }

 private:
  [[nodiscard]] static std::size_t bucket_count_for(
      std::size_t entries) noexcept {
    std::size_t cap = 16;
    while (cap < entries * 2) cap *= 2;  // keep load factor <= 1/2
    return cap;
  }

  [[nodiscard]] static std::uint64_t hash_of(ObjId obj, Value val) noexcept {
    return util::mix64(
        util::hash_combine(obj, static_cast<std::uint64_t>(val)));
  }

  [[nodiscard]] Slot* slots() const noexcept {
    return static_cast<Slot*>(slots_.data());
  }
  [[nodiscard]] Rec* records() const noexcept {
    return static_cast<Rec*>(records_.data());
  }

  /// Probe to the key's slot or the first empty slot of its chain.
  [[nodiscard]] std::size_t find_slot(ObjId obj, Value val) const noexcept {
    const Slot* s = slots();
    std::size_t i = static_cast<std::size_t>(hash_of(obj, val)) & mask_;
    while (s[i].rec != 0 && (s[i].obj != obj || s[i].val != val)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// Reinsert every slot into a fresh zero-page array of `new_buckets`.
  /// Records keep their indices: their array only grows, to the new load
  /// limit.
  void rehash(std::size_t new_buckets, bool prefault) {
    if (new_buckets / 2 > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("VersionTable: more than 2^32-1 versions");
    }
    records_.grow(new_buckets / 2 * sizeof(Rec), prefault);
    ZeroPages fresh(new_buckets * sizeof(Slot), prefault);
    Slot* to = static_cast<Slot*>(fresh.data());
    const std::size_t new_mask = new_buckets - 1;
    const Slot* from = slots();
    for (std::size_t k = 0; k < buckets_; ++k) {
      if (from[k].rec == 0) continue;
      std::size_t i =
          static_cast<std::size_t>(hash_of(from[k].obj, from[k].val)) &
          new_mask;
      while (to[i].rec != 0) i = (i + 1) & new_mask;
      to[i] = from[k];
    }
    slots_ = std::move(fresh);
    buckets_ = new_buckets;
    mask_ = new_mask;
  }

  ZeroPages slots_;
  ZeroPages records_;
  std::size_t buckets_ = 0;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// SmallWriteSet
// ---------------------------------------------------------------------------

/// A transaction's executed writes (latest value per register), sorted by
/// register. Inline up to kInlineCapacity entries; beyond that the entries
/// move into a vector acquired from a caller-owned pool and returned to it
/// by release() when the transaction completes — the pool is what makes a
/// long stream of write-heavy transactions allocation-free once warm.
class SmallWriteSet {
 public:
  using Entry = std::pair<ObjId, Value>;
  using Spill = std::vector<Entry>;
  using SpillPool = std::vector<Spill>;
  static constexpr std::size_t kInlineCapacity = 4;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] const Entry* begin() const noexcept {
    return spilled_ ? spill_.data() : inline_.data();
  }
  [[nodiscard]] const Entry* end() const noexcept { return begin() + size_; }

  [[nodiscard]] const Value* find(ObjId obj) const noexcept {
    for (const Entry* e = begin(); e != end(); ++e) {
      if (e->first == obj) return &e->second;
      if (e->first > obj) break;  // sorted
    }
    return nullptr;
  }

  /// Insert or overwrite the write to `obj`, keeping entries sorted.
  void set(ObjId obj, Value val, SpillPool& pool) {
    Entry* data = spilled_ ? spill_.data() : inline_.data();
    std::size_t at = 0;
    while (at < size_ && data[at].first < obj) ++at;
    if (at < size_ && data[at].first == obj) {
      data[at].second = val;
      return;
    }
    if (!spilled_ && size_ == kInlineCapacity) {
      if (pool.empty()) {
        spill_ = Spill{};
      } else {
        spill_ = std::move(pool.back());
        pool.pop_back();
        spill_.clear();
      }
      spill_.insert(spill_.end(), inline_.begin(), inline_.end());
      spilled_ = true;
      data = spill_.data();
    }
    if (spilled_) {
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(at),
                    {obj, val});
    } else {
      for (std::size_t i = size_; i > at; --i) inline_[i] = inline_[i - 1];
      inline_[at] = {obj, val};
    }
    ++size_;
  }

  /// Return any spill storage to the pool and forget all entries (the
  /// transaction completed; its writes are installed or discarded).
  void release(SpillPool& pool) noexcept {
    if (spilled_) {
      pool.push_back(std::move(spill_));
      spill_ = Spill{};
      spilled_ = false;
    }
    size_ = 0;
  }

 private:
  std::array<Entry, kInlineCapacity> inline_{};
  Spill spill_;
  std::uint32_t size_ = 0;
  bool spilled_ = false;
};

}  // namespace optm::core
