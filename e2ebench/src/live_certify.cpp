// live-certify: three tl2 producers record into the sharded Recorder while
// one DrainPump thread feeds a MonitorSink — record, drain and certify at
// once, with the log and the network idle.
#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/parallel_verify.hpp"
#include "stm/factory.hpp"

namespace e2e {

namespace {

/// A few million events (~3M recorded), as the soak driver records.
constexpr std::uint64_t kLiveEvents = 2'400'000;
/// Rounds between two reference verdicts (round 0, which also runs the
/// planted check, is always one).
constexpr std::uint32_t kReferenceEvery = 4;

}  // namespace

RoundResult live_certify_round(const RoundCtx& ctx, PlantedResult* planted) {
  namespace stm = optm::stm;
  namespace core = optm::core;
  Tracer& tracer = *ctx.tracer;
  RoundResult r;
  r.streams = 1;
  r.threads_busy = kProducers + 1;  // the producers and the pump

  const double s0 = now_s();
  const std::size_t round_span = tracer.open("round", s0, kNoSpan, ctx.index);
  auto runtime = stm::make_stm(kRuntime, kVars);
  stm::Recorder recorder(kVars);
  runtime->set_recorder(&recorder);
  const auto mix = mix_params(ctx.seed, kLiveEvents);
  core::OnlineCertificateMonitor monitor(recorder.model());
  // The soak driver's pre-sizing: versions are ~a quarter of the events.
  monitor.reserve(mix.txs_per_thread * kProducers + 16, kLiveEvents / 3 + kVars + 16);
  stm::MonitorSink monitor_sink(monitor);
  TimedSink sink(monitor_sink, recorder, tracer, ctx.index, kNoSpan);
  stm::DrainPump pump(recorder, sink);
  std::atomic<bool> done{false};
  r.setup_s = now_s() - s0;
  tracer.add("setup", {s0, s0 + r.setup_s}, round_span, ctx.index);

  const double c0 = cpu_s();
  const double t0 = now_s();
  const std::size_t pump_span = tracer.open("drain.pump", t0, round_span, ctx.index);
  sink.set_parent(pump_span);
  stm::DrainPump::Stats stats;
  double pump_end = 0.0;
  std::thread pump_thread([&] {
    stats = pump.run(done);
    pump_end = now_s();
  });
  const auto run = optm::wl::run_random_mix(*runtime, mix);
  const double t_joined = now_s();
  const std::uint64_t recorded = recorder.stamps_issued();
  done.store(true, std::memory_order_release);
  pump_thread.join();
  const bool certified = monitor.ok();
  const double t_verdict = now_s();
  const double c1 = cpu_s();
  tracer.add("runtime.mix", {t0, t_joined}, round_span, ctx.index);
  tracer.close(pump_span, pump_end);
  tracer.close(round_span, t_verdict);
  r.peak_rss_mb = peak_rss_mb();

  r.events = recorder.num_events();
  r.events_per_s = static_cast<double>(r.events) / (t_verdict - t0);
  r.final_verdict_ms = (t_verdict - t_joined) * 1e3;
  // Events entered when stamped: the pump's samples, bracketed by the
  // start (nothing stamped) and the producers' join (everything stamped).
  std::vector<CountSample> entries{{t0, 0}};
  entries.insert(entries.end(), sink.issued().begin(), sink.issued().end());
  entries.push_back({t_joined, recorded});
  std::sort(entries.begin(), entries.end(),
            [](const CountSample& a, const CountSample& b) { return a.t < b.t; });
  fill_lag(r, stream_lags(entries, sink.judged(), r.events));

  // Checks, outside the timed region: the full count, and the sharded
  // offline driver's verdict over the complete recording as reference.
  if (!stats.sink_ok) r.fail("live-certify: drain sink failed");
  if (stats.events != r.events || monitor.events_fed() != r.events) {
    r.fail("live-certify: event counts differ (recorded " + std::to_string(r.events) +
           ", drained " + std::to_string(stats.events) + ", certified " +
           std::to_string(monitor.events_fed()) + ")");
  }
  if (!certified) {
    r.fail("live-certify: not certified: " + monitor.violation()->reason);
  }
  // recorder.history() costs twice the timed region, so the reference runs
  // on every kReferenceEvery-th round (and on the planted copy every run).
  core::ShardVerifyOptions sharded;
  sharded.num_threads = ctx.nproc;
  std::optional<core::History> h;
  if (ctx.index % kReferenceEvery == 0) {
    h.emplace(recorder.history());
    const auto reference = core::verify_history_sharded(*h, sharded);
    if (reference.events != r.events || reference.certified != certified) {
      r.fail("live-certify: the sharded driver's verdict over recorder.history() (" +
             std::string(reference.certified ? "certified " : "flagged ") +
             std::to_string(reference.events) + " events) differs from the live one");
    }
  }

  if (tracer.enabled()) {
    const double busy = sink.busy_s();
    std::vector<double> sizes(sink.batch_sizes().begin(), sink.batch_sizes().end());
    r.layer["runtime.mix_s"] = run.seconds;
    r.layer["runtime.abort_ratio"] = run.abort_ratio();
    r.layer["recorder.overhead_x"] = run.seconds / unrecorded_mix_s(ctx.seed, kLiveEvents);
    r.layer["drain.batches"] = static_cast<double>(stats.batches);
    r.layer["drain.batch_events_p50"] = percentile(sizes, 50.0);
    r.layer["drain.batch_events_max"] = percentile(sizes, 100.0);
    r.layer["drain.backlog_events_p99"] = percentile(sink.backlog(), 99.0);
    r.layer["drain.tail_ms"] = (pump_end - t_joined) * 1e3;
    r.layer["drain.self_s"] = tracer.self(pump_span);
    r.layer["certify.busy_s"] = busy;
    r.layer["certify.events_per_busy_s"] = static_cast<double>(r.events) / busy;
    r.layer["certify.threads_used"] = 1;  // the monitor runs on the pump thread
    r.layer["proc.cpu_s"] = c1 - c0;
    r.layer["proc.cores_busy"] = (c1 - c0) / (t_verdict - t0);
  }

  if (planted != nullptr) {
    // The live certify path is the MonitorSink; replay the planted copy
    // into it in the batch sizes this round's drain produced.
    const auto bad = plant_violation(*h, planted->planted_at);
    const auto ref = core::verify_history_sharded(
        core::History::from_batch(h->model(), bad), sharded);
    if (ref.violation) planted->reference_pos = ref.violation->pos;
    core::OnlineCertificateMonitor replay(h->model());
    stm::MonitorSink replay_sink(replay);
    std::span<const core::Event> rest(bad);
    for (const std::size_t n : sink.batch_sizes()) {
      const std::size_t take = std::min(n, rest.size());
      (void)replay_sink.accept(rest.first(take));
      rest = rest.subspan(take);
    }
    if (!rest.empty()) (void)replay_sink.accept(rest);
    if (replay.violation()) planted->flagged_pos = replay.violation()->pos;
  }
  return r;
}

}  // namespace e2e
