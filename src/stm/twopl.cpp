#include "stm/twopl.hpp"

#include <algorithm>

#include "util/spin.hpp"

namespace optm::stm {

TwoPlStm::TwoPlStm(std::size_t num_vars, WaitPolicy wait)
    : RuntimeBase(num_vars), vars_(num_vars), wait_(wait) {}

void TwoPlStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.ts = ts_source_.advance(ctx);
  slot.read_locked.clear();
  slot.write_locked.clear();
  slot.ws.clear();
  prio_[ctx.id()]->store(ctx, slot.ts);
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool TwoPlStm::holds_read(const Slot& slot, VarId var) const noexcept {
  return std::find(slot.read_locked.begin(), slot.read_locked.end(), var) !=
         slot.read_locked.end();
}

bool TwoPlStm::holds_write(const Slot& slot, VarId var) const noexcept {
  return std::find(slot.write_locked.begin(), slot.write_locked.end(), var) !=
         slot.write_locked.end();
}

bool TwoPlStm::may_wait_for(sim::ThreadCtx& ctx, const Slot& slot,
                            std::uint32_t holder) {
  if (wait_ == WaitPolicy::kNoWait) return false;
  // Wait-die: the older requester waits, the younger dies. The holder's
  // priority read can be stale (holder turnover); a stale comparison can
  // only cause a spurious die or a wait that resolves — see header.
  return slot.ts < prio_[holder]->load(ctx);
}

bool TwoPlStm::lock_read(sim::ThreadCtx& ctx, Slot& slot, VarId var) {
  VarMeta& meta = *vars_[var];
  const std::uint64_t me = bit_of(ctx.id());
  util::Backoff backoff;
  for (;;) {
    (void)meta.readers.fetch_or(ctx, me);  // announce intent (visible read)
    const std::uint64_t w = meta.writer.load(ctx);
    if (w == 0 || w == ctx.id() + 1) {
      slot.read_locked.push_back(var);
      return true;  // bit set, no foreign writer: shared lock held
    }
    // Foreign writer: retreat (the bit must not look like a held lock
    // while we wait — the writer's drain loop cannot tell a waiter from a
    // holder) and arbitrate.
    (void)meta.readers.fetch_and(ctx, ~me);
    if (!may_wait_for(ctx, slot, static_cast<std::uint32_t>(w - 1))) {
      return false;  // die
    }
    backoff.pause();
  }
}

bool TwoPlStm::lock_write(sim::ThreadCtx& ctx, Slot& slot, VarId var) {
  VarMeta& meta = *vars_[var];
  const std::uint64_t me_word = ctx.id() + 1;
  util::Backoff backoff;

  // Phase 1: claim the writer word.
  for (;;) {
    std::uint64_t w = meta.writer.load(ctx);
    if (w == me_word) break;  // already ours
    if (w == 0) {
      if (meta.writer.cas(ctx, w, me_word)) break;
      continue;
    }
    if (!may_wait_for(ctx, slot, static_cast<std::uint32_t>(w - 1))) {
      return false;  // die against a live rival writer
    }
    backoff.pause();
  }

  // Phase 2: drain foreign readers (our own shared lock upgrades in place).
  const std::uint64_t own_bit = bit_of(ctx.id());
  for (;;) {
    const std::uint64_t readers = meta.readers.load(ctx) & ~own_bit;
    if (readers == 0) break;
    // Arbitrate against the oldest visible holder; if we may not wait for
    // it, release the claim and die. (A transient waiter's bit clears by
    // itself; a genuine holder's bit clears at its completion.)
    bool wait_ok = true;
    for (std::uint32_t s = 0; s < sim::kMaxThreads; ++s) {
      if ((readers & bit_of(s)) != 0 && !may_wait_for(ctx, slot, s)) {
        wait_ok = false;
        break;
      }
    }
    if (!wait_ok) {
      std::uint64_t expect = me_word;
      (void)meta.writer.cas(ctx, expect, 0);
      return false;
    }
    backoff.pause();
  }

  slot.write_locked.push_back(var);
  return true;
}

void TwoPlStm::release_all(sim::ThreadCtx& ctx, Slot& slot) {
  for (const VarId var : slot.write_locked) {
    std::uint64_t expect = ctx.id() + 1;
    (void)vars_[var]->writer.cas(ctx, expect, 0);
  }
  const std::uint64_t me = bit_of(ctx.id());
  for (const VarId var : slot.read_locked) {
    (void)vars_[var]->readers.fetch_and(ctx, ~me);
  }
  slot.read_locked.clear();
  slot.write_locked.clear();
}

bool TwoPlStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  // Record, then release: A must precede every event a later lock holder
  // records (see the recording contract in runtime.hpp).
  rec_abort_mid_op(ctx);
  release_all(ctx, slot);
  slot.ws.clear();
  slot.active = false;
  ++ctx.stats.aborts;
  return false;
}

bool TwoPlStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;

  if (const WriteEntry* own = slot.ws.find(var)) {
    rec_inv(ctx, var, core::OpCode::kRead, 0);
    out = own->value;
    rec_ret(ctx, var, core::OpCode::kRead, 0, out);
    return true;
  }

  if (!holds_read(slot, var) && !holds_write(slot, var)) {
    // Lock acquisition spins OUTSIDE any recorder window: a holder must be
    // able to reach its own window to complete and release.
    if (!lock_read(ctx, slot, var)) {
      rec_inv(ctx, var, core::OpCode::kRead, 0);
      return fail_op(ctx);
    }
  }
  // Acquire, then record: the invocation lands after the lock is held.
  rec_inv(ctx, var, core::OpCode::kRead, 0);

  const RecWindow window = rec_sample_window();
  out = vars_[var]->value.load(ctx);  // stable: shared lock held
  rec_ret(ctx, var, core::OpCode::kRead, 0, out);
  return true;
}

bool TwoPlStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;

  if (!holds_write(slot, var) && !lock_write(ctx, slot, var)) {
    rec_inv(ctx, var, core::OpCode::kWrite, value);
    return fail_op(ctx);
  }
  // Acquire, then record: the invocation lands after the lock is held.
  rec_inv(ctx, var, core::OpCode::kWrite, value);
  slot.ws.upsert(var, value);
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool TwoPlStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  // Strict 2PL commits cannot fail: every touched variable is locked, so
  // no validation exists to fail. Install the buffered writes and release.
  {
    const RecWindow window = rec_commit_window();
    for (const WriteEntry& e : slot.ws.entries()) {
      vars_[e.var]->value.store(ctx, e.value);
    }
    rec_commit(ctx);
  }
  release_all(ctx, slot);
  slot.ws.clear();
  slot.active = false;
  ++ctx.stats.commits;
  return true;
}

void TwoPlStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  rec_voluntary_abort(ctx);  // record, then release
  release_all(ctx, slot);
  slot.ws.clear();
  slot.active = false;
  ++ctx.stats.aborts;
}

}  // namespace optm::stm
