// The common software-TM interface.
//
// Design notes:
//  * One live transaction per process (ThreadCtx), matching the paper's
//    model (§6.1: "each transaction is executed by a single process, and
//    each process executes transactions sequentially"). All transaction
//    state is keyed on ctx.id(), never on thread-local storage, so tests
//    can drive several logical processes from one OS thread and construct
//    exact interleavings deterministically.
//  * Word-based: shared objects are VarIds mapping to 64-bit values. The
//    typed TVar<T> façade and the semantic counter object live in tvar.hpp.
//  * Failure is reported by return value: read/write/commit return false
//    once the transaction is doomed; the transaction is then already
//    aborted and the caller must call begin() again (the atomically()
//    helper wraps this retry loop).
//  * properties() declares the §6 design-space coordinates of each
//    implementation — single-version? invisible reads? progressive? — the
//    exact premises of Theorem 3.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/thread_ctx.hpp"

namespace optm::stm {

using VarId = std::uint32_t;

/// §6's TM design-space coordinates (the premises of Theorem 3).
struct StmProperties {
  std::string_view name;
  bool invisible_reads = false;  // reads write no base shared object
  bool single_version = false;   // only latest committed state stored
  bool progressive = false;      // aborts only on conflict with live tx
  bool opaque = true;            // ensures opacity (WeakStm does not)
};

class Recorder;  // stm/recorder.hpp

class Stm {
 public:
  virtual ~Stm() = default;

  [[nodiscard]] virtual StmProperties properties() const noexcept = 0;
  [[nodiscard]] virtual std::size_t num_vars() const noexcept = 0;

  /// Start a transaction for this process. Any previous transaction of the
  /// same process must be completed.
  virtual void begin(sim::ThreadCtx& ctx) = 0;

  /// Transactional read. Returns false iff the transaction aborted (the
  /// paper's "abort event instead of an operation response").
  [[nodiscard]] virtual bool read(sim::ThreadCtx& ctx, VarId var,
                                  std::uint64_t& out) = 0;

  /// Transactional write (buffered or eager per algorithm). Returns false
  /// iff the transaction aborted.
  [[nodiscard]] virtual bool write(sim::ThreadCtx& ctx, VarId var,
                                   std::uint64_t value) = 0;

  /// tryC: returns true on commit, false on abort.
  [[nodiscard]] virtual bool commit(sim::ThreadCtx& ctx) = 0;

  /// tryA: voluntary abort; always succeeds.
  virtual void abort(sim::ThreadCtx& ctx) = 0;

  /// Attach a history recorder (nullptr to detach): every later event of
  /// this runtime is recorded into it. Not thread-safe; attach before
  /// spawning workers.
  virtual void set_recorder(Recorder* recorder) noexcept = 0;

  /// Request window-free recording: the runtime stops taking the
  /// recorder's sampling/commit windows and instead stamps every non-local
  /// read with its (rv, version) pair, so a stamp-space certificate policy
  /// (core::VersionOrderPolicy::kStampedRead) can verify the recording
  /// without any shared window lock. Honored by the clock runtimes (tl2,
  /// tiny, norec — reads O(1)-validated against a snapshot they can name),
  /// the orec runtimes (dstm, astm — validation snapshots published
  /// through the CAS-acquired ownership records, see stm/dstm.hpp), and
  /// mv (snapshot reads; update commits ticket before validating); the
  /// others stay windowed. Returns whether the requested mode is now
  /// active. Not thread-safe; set before spawning workers.
  virtual bool set_window_free(bool on) noexcept { return !on; }

  /// Is window-free recording currently active?
  [[nodiscard]] virtual bool window_free() const noexcept { return false; }
};

/// Thrown by the TxHandle façade when an operation returns false; caught by
/// atomically() to drive the retry loop.
struct TxAborted {};

/// Convenience façade for writing transaction bodies in direct style.
class TxHandle {
 public:
  TxHandle(Stm& stm, sim::ThreadCtx& ctx) noexcept : stm_(&stm), ctx_(&ctx) {}

  [[nodiscard]] std::uint64_t read(VarId var) {
    std::uint64_t v = 0;
    if (!stm_->read(*ctx_, var, v)) throw TxAborted{};
    return v;
  }
  void write(VarId var, std::uint64_t v) {
    if (!stm_->write(*ctx_, var, v)) throw TxAborted{};
  }
  /// Voluntary abort (tryA): unwinds out of the transaction body.
  [[noreturn]] void retry() {
    stm_->abort(*ctx_);
    throw TxAborted{};
  }

 private:
  Stm* stm_;
  sim::ThreadCtx* ctx_;
};

/// Execute `body` as a transaction, retrying on abort. Returns the number
/// of attempts (>= 1), or 0 if `max_attempts` was exhausted.
template <typename Body>
std::uint64_t atomically(Stm& stm, sim::ThreadCtx& ctx, Body&& body,
                         std::uint64_t max_attempts = 0) {
  for (std::uint64_t attempt = 1; max_attempts == 0 || attempt <= max_attempts;
       ++attempt) {
    stm.begin(ctx);
    try {
      TxHandle tx(stm, ctx);
      body(tx);
    } catch (const TxAborted&) {
      continue;
    }
    if (stm.commit(ctx)) return attempt;
  }
  return 0;
}

}  // namespace optm::stm
