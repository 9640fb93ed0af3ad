// Shared machinery for the STM runtimes: per-process transaction slots,
// read/write sets, statistics and recorder plumbing.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "stm/api.hpp"
#include "stm/recorder.hpp"
#include "util/cache.hpp"

namespace optm::stm {

struct ReadEntry {
  VarId var;
  std::uint64_t version;
};

struct WriteEntry {
  VarId var;
  std::uint64_t value;
};

/// Write-set with linear lookup — transactions touch few variables, and a
/// flat vector beats a hash map at these sizes by a wide margin.
class WriteSet {
 public:
  void clear() noexcept { entries_.clear(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<WriteEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::vector<WriteEntry>& entries() noexcept { return entries_; }

  [[nodiscard]] const WriteEntry* find(VarId var) const noexcept {
    for (const auto& e : entries_)
      if (e.var == var) return &e;
    return nullptr;
  }

  void upsert(VarId var, std::uint64_t value) {
    for (auto& e : entries_) {
      if (e.var == var) {
        e.value = value;
        return;
      }
    }
    entries_.push_back({var, value});
  }

 private:
  std::vector<WriteEntry> entries_;
};

/// Base class handling recorder hooks and per-slot transaction ids.
///
/// Recording protocol (matching the paper's event model):
///   begin        -> fresh TxId
///   read/write   -> inv before any shared access, ret after the value is
///                   decided, or A instead of ret when the op dooms the tx
///   commit       -> tryC, then C (after the commit point) or A
///   abort (tryA) -> tryA, A
///
/// Lock-based runtimes (2PL, glock) add one contract on top: ACQUIRE, THEN
/// RECORD; RECORD, THEN RELEASE. An operation that takes a lock records its
/// invocation only once the lock is held (on the failure path: inv, then
/// A), and C or A is recorded before any lock is released. Otherwise a
/// waiter's invocation, or a successor's first event, can land in the
/// history while the previous holder is still incomplete there — a
/// recorded overlap the runtime never executed. Delaying an invocation is
/// safe for the §3.6/§5.4 certificates: it only adds real-time edges
/// (≺_H grows, never shrinks), so it can cause a false flag but never a
/// false certificate.
class RuntimeBase : public Stm {
 public:
  explicit RuntimeBase(std::size_t num_vars) noexcept : num_vars_(num_vars) {}

  [[nodiscard]] std::size_t num_vars() const noexcept override { return num_vars_; }

  void set_recorder(RecorderBase* recorder) noexcept override {
    recorder_ = recorder;
    // Cache the engine's window lock (when it has one) so every window on
    // the recorded hot path is two inlined RMWs, not two virtual calls
    // wrapping them. The mutex engine returns nullptr and keeps the
    // virtual path.
    window_lock_ = recorder != nullptr ? recorder->window_lock() : nullptr;
    // Devirtualize the per-event hooks for the sharded engine: Recorder is
    // final and header-defined, so calls through a concrete pointer inline
    // the whole push (stamp draw + slot store) into the runtime's op.
    sharded_ = dynamic_cast<Recorder*>(recorder);
  }

  bool set_window_free(bool on) noexcept override {
    window_free_ = on && window_free_supported_;
    return window_free_ == on;
  }
  [[nodiscard]] bool window_free() const noexcept override {
    return window_free_;
  }

 protected:
  /// An out-of-range VarId is a caller bug; fail loudly instead of indexing
  /// past the metadata vector (a silently corrupted lock word spins forever,
  /// which is how this class of bug actually manifests).
  void bounds_check(VarId var) const {
    if (var >= num_vars_) {
      throw std::out_of_range("optm: VarId " + std::to_string(var) +
                              " out of range (num_vars = " +
                              std::to_string(num_vars_) + ")");
    }
  }

  /// Scoped recorder window (see recorder.hpp): while held, the runtime's
  /// shared-memory action and its recorded event are atomic with respect to
  /// every recorded commit point. Sampling windows (value sampling of a
  /// read, the C record of a read-only transaction) may overlap each other;
  /// commit windows (update commit points, in-place mutation of committed
  /// state) are exclusive against every window. No-op when no recorder is
  /// attached — and in window-free mode, where the stamps the runtime
  /// emits replace the window discipline entirely (the commit "window"
  /// shrinks to the recording instant of the C event itself).
  ///
  /// When the engine exposes its SharedSpinLock (the sharded Recorder),
  /// the window takes it directly — the inlined fast path of the recorded
  /// hot loop; otherwise it falls back to the virtual
  /// window_enter/window_exit pair (the mutex engine).
  class [[nodiscard]] RecWindow {
   public:
    RecWindow() = default;
    RecWindow(RecorderBase* recorder, util::SharedSpinLock* lock,
              RecorderBase::WindowKind kind)
        : recorder_(recorder), lock_(lock), kind_(kind) {
      if (lock_ != nullptr) {
        if (kind_ == RecorderBase::WindowKind::kCommit) {
          lock_->lock();
        } else {
          lock_->lock_shared();
        }
      } else if (recorder_ != nullptr) {
        recorder_->window_enter(kind_);
      }
    }
    RecWindow(RecWindow&& other) noexcept
        : recorder_(other.recorder_), lock_(other.lock_), kind_(other.kind_) {
      other.recorder_ = nullptr;
      other.lock_ = nullptr;
    }
    RecWindow(const RecWindow&) = delete;
    RecWindow& operator=(const RecWindow&) = delete;
    RecWindow& operator=(RecWindow&&) = delete;
    ~RecWindow() {
      if (lock_ != nullptr) {
        if (kind_ == RecorderBase::WindowKind::kCommit) {
          lock_->unlock();
        } else {
          lock_->unlock_shared();
        }
      } else if (recorder_ != nullptr) {
        recorder_->window_exit(kind_);
      }
    }

   private:
    RecorderBase* recorder_ = nullptr;
    util::SharedSpinLock* lock_ = nullptr;
    RecorderBase::WindowKind kind_ = RecorderBase::WindowKind::kSample;
  };

  [[nodiscard]] RecWindow rec_sample_window() const {
    if (window_free_) return RecWindow();
    return RecWindow(recorder_, window_lock_,
                     RecorderBase::WindowKind::kSample);
  }
  [[nodiscard]] RecWindow rec_commit_window() const {
    if (window_free_) return RecWindow();
    return RecWindow(recorder_, window_lock_,
                     RecorderBase::WindowKind::kCommit);
  }

  void rec_begin(sim::ThreadCtx& ctx) {
    if (recorder_ != nullptr) rec_tx_[ctx.id()] = recorder_->begin_tx();
  }
  void rec_inv(sim::ThreadCtx& ctx, VarId var, core::OpCode op,
               std::uint64_t arg) {
    if (sharded_ != nullptr) {
      sharded_->on_inv(ctx.id(), rec_tx_[ctx.id()], var, op,
                       static_cast<core::Value>(arg));
    } else if (recorder_ != nullptr) {
      recorder_->on_inv(ctx.id(), rec_tx_[ctx.id()], var, op,
                        static_cast<core::Value>(arg));
    }
  }
  /// `stamp`/`ver` are the read-stamp pair (2·rv+1, version read) of a
  /// stamping runtime's non-local read; 0/0 records an unstamped response
  /// (local reads, writes, non-stamping runtimes). See Event::stamp/ver.
  void rec_ret(sim::ThreadCtx& ctx, VarId var, core::OpCode op,
               std::uint64_t arg, std::uint64_t ret, std::uint64_t stamp = 0,
               std::uint64_t ver = 0) {
    if (sharded_ != nullptr) {
      sharded_->on_ret(ctx.id(), rec_tx_[ctx.id()], var, op,
                       static_cast<core::Value>(arg),
                       static_cast<core::Value>(ret), stamp, ver);
    } else if (recorder_ != nullptr) {
      recorder_->on_ret(ctx.id(), rec_tx_[ctx.id()], var, op,
                        static_cast<core::Value>(arg),
                        static_cast<core::Value>(ret), stamp, ver);
    }
  }
  // Abort hooks take the aborted transaction's serialization stamp (see
  // RecorderBase::on_abort): clock-based runtimes pass 2·rv+1, record-order
  // runtimes leave the default 0.

  /// A replaces the pending operation response (forceful abort mid-op).
  void rec_abort_mid_op(sim::ThreadCtx& ctx, std::uint64_t stamp = 0) {
    if (recorder_ != nullptr) {
      recorder_->on_abort(ctx.id(), rec_tx_[ctx.id()], stamp);
    }
  }
  void rec_try_commit(sim::ThreadCtx& ctx) {
    if (recorder_ != nullptr) {
      recorder_->on_try_commit(ctx.id(), rec_tx_[ctx.id()]);
    }
  }
  void rec_commit(sim::ThreadCtx& ctx, std::uint64_t stamp = 0) {
    if (recorder_ != nullptr) {
      recorder_->on_commit(ctx.id(), rec_tx_[ctx.id()], stamp);
    }
  }
  /// A answering tryC (commit failed).
  void rec_abort_at_commit(sim::ThreadCtx& ctx, std::uint64_t stamp = 0) {
    if (recorder_ != nullptr) {
      recorder_->on_abort(ctx.id(), rec_tx_[ctx.id()], stamp);
    }
  }
  void rec_voluntary_abort(sim::ThreadCtx& ctx, std::uint64_t stamp = 0) {
    if (recorder_ != nullptr) {
      recorder_->on_try_abort(ctx.id(), rec_tx_[ctx.id()]);
      recorder_->on_abort(ctx.id(), rec_tx_[ctx.id()], stamp);
    }
  }

  std::size_t num_vars_;
  RecorderBase* recorder_ = nullptr;
  /// Cached RecorderBase::window_lock() of the attached engine (nullptr
  /// when the engine keeps the virtual window path).
  util::SharedSpinLock* window_lock_ = nullptr;
  /// recorder_ downcast to the final sharded engine (nullptr otherwise):
  /// the devirtualized fast path of the per-event hooks.
  Recorder* sharded_ = nullptr;
  /// Set (in the constructor) by runtimes that stamp every non-local read
  /// with its (rv, version) pair — clock-validated (tl2/tiny/norec/mv) or
  /// orec-published (dstm/astm) — the precondition for dropping windows.
  bool window_free_supported_ = false;

 private:
  bool window_free_ = false;
  std::array<core::TxId, sim::kMaxThreads> rec_tx_{};
};

}  // namespace optm::stm
