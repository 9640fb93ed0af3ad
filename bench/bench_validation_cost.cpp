// EXPERIMENT E10 — Theorem 3 tightness (§6.2): whole-transaction cost.
//
//   "DSTM and ASTM ... require, in the worst case, Θ(k) steps to complete
//    a single operation (or, in other words, Θ(k²) steps to execute a
//    transaction that accesses k objects)."
//
// A single transaction reads k variables (uncontended). Reported: total
// steps for the whole transaction. DSTM's incremental validation makes it
// quadratic in k; TL2/visible/weak stay linear (O(1) per read); NOrec is
// linear here because the clock never moves (its Θ(k²) needs concurrent
// commits — bench_lower_bound covers that); MV pays the ring scan.
#include "bench_common.hpp"

#include "stm/recorder.hpp"

namespace optm::bench {
namespace {

void BM_ScanTransaction(benchmark::State& state, const char* name) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::uint64_t total_steps = 0;
  for (auto _ : state) {
    const auto stm = stm::make_stm(name, k);
    sim::ThreadCtx ctx(0);
    stm->begin(ctx);
    for (std::size_t v = 0; v < k; ++v) {
      std::uint64_t out = 0;
      if (!stm->read(ctx, static_cast<stm::VarId>(v), out)) break;
      benchmark::DoNotOptimize(out);
    }
    benchmark::DoNotOptimize(stm->commit(ctx));
    total_steps = ctx.steps.total();
  }
  state.counters["tx_steps"] = static_cast<double>(total_steps);
  state.counters["steps_per_k2"] =
      static_cast<double>(total_steps) / (static_cast<double>(k) * static_cast<double>(k));
  state.counters["steps_per_k"] =
      static_cast<double>(total_steps) / static_cast<double>(k);
}

// Same scan with a recorder attached: the per-read price of verification
// mode (stamping + the sampling window) on top of the Theorem 3 quantity.
// The goal is that this overhead stays flat in k and per event — compare
// time/op against the unrecorded BM_ScanTransaction rows.
void BM_ScanTransactionRecorded(benchmark::State& state, const char* name) {
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto stm = stm::make_stm(name, k);
    stm::Recorder recorder(k);
    stm->set_recorder(&recorder);
    sim::ThreadCtx ctx(0);
    stm->begin(ctx);
    for (std::size_t v = 0; v < k; ++v) {
      std::uint64_t out = 0;
      if (!stm->read(ctx, static_cast<stm::VarId>(v), out)) break;
      benchmark::DoNotOptimize(out);
    }
    benchmark::DoNotOptimize(stm->commit(ctx));
    benchmark::DoNotOptimize(recorder.num_events());
  }
  state.counters["events_per_tx"] = static_cast<double>(2 * k + 2);
}

void BM_ScanRecordedSharded(benchmark::State& state) {
  BM_ScanTransactionRecorded(state, "tl2");
}

}  // namespace
}  // namespace optm::bench

namespace optm::bench {

#define SCAN_BENCH(name)                                                  \
  BENCHMARK_CAPTURE(BM_ScanTransaction, name, #name)         \
      ->RangeMultiplier(2)                                                \
      ->Range(32, 1024)                                                   \
      ->Unit(benchmark::kMicrosecond)

SCAN_BENCH(dstm);
SCAN_BENCH(astm);
SCAN_BENCH(tiny);
SCAN_BENCH(tl2);
SCAN_BENCH(visible);
SCAN_BENCH(mv);
SCAN_BENCH(norec);
SCAN_BENCH(weak);

#undef SCAN_BENCH

BENCHMARK(BM_ScanRecordedSharded)
    ->RangeMultiplier(2)
    ->Range(32, 1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace optm::bench

BENCHMARK_MAIN();
