// EXPERIMENT E18 — online monitoring cost (§5.2's prefix discipline).
//
// The definitional prefix checker re-solves an NP-hard problem per
// response; the streaming certificate monitor is amortized O(1) per event.
// This bench makes the gap concrete: events/second for each backend as the
// recorded history grows, plus the certificate monitor alone on long runs
// the definitional backend could never touch.
//
// It also measures the RECORDING side of the pipeline: events/second of a
// live multi-threaded recorded mix, windowed and window-free, and the
// batch-ingestion path fed by the recorder's drain().
#include "bench_common.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <span>
#include <thread>

#include "core/online.hpp"
#include "log/log_sink.hpp"
#include "log/writer.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"

namespace optm::bench {
namespace {

/// Record a mix run of the given size on an opaque STM.
core::History recorded_mix(std::uint64_t txs_per_thread) {
  const auto stm = stm::make_stm("tl2", 8);
  stm::Recorder recorder(8);
  stm->set_recorder(&recorder);
  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = txs_per_thread;
  params.seed = 4242;
  (void)wl::run_random_mix(*stm, params);
  return recorder.history();
}

void BM_CertificateMonitor(benchmark::State& state) {
  const core::History h = recorded_mix(static_cast<std::uint64_t>(state.range(0)));
  bool clean = true;
  for (auto _ : state) {
    core::OnlineCertificateMonitor monitor(h.model());
    for (const core::Event& e : h.events()) (void)monitor.feed(e);
    clean = monitor.ok();
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("certificate violation on an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_DefinitionalMonitor(benchmark::State& state) {
  // The exact backend re-runs Definition 1 per response: only small
  // prefixes are feasible (it subsumes view-serializability).
  const core::History h = recorded_mix(static_cast<std::uint64_t>(state.range(0)));
  bool clean = true;
  for (auto _ : state) {
    core::OnlineDefinitionalMonitor monitor(h.model());
    for (const core::Event& e : h.events()) (void)monitor.feed(e);
    clean = monitor.ok();
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("definitional violation on an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- recorded-mode throughput -------------------------------------------------

/// Run the same mix with `Threads` workers and a fresh recorder; report
/// recorded events/second. The per-thread transaction count is held
/// constant, so the threads axis scales offered load with parallelism.
/// At ~90k events (~2.2 MiB of lane records) per thread, every lane fills
/// several 512 KiB chunks, so an iteration times recording rather than
/// mapping one fresh chunk per lane.
/// `window_free` drops the recorder windows entirely (stamped recording);
/// the delta against the windowed run is the price of the window lock.
/// `stm_name` picks the stamp source (tl2's clock vs dstm's orec story).
void BM_RecordedMix(benchmark::State& state, bool window_free = false,
                    const char* stm_name = "tl2") {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  wl::MixParams params;
  params.threads = threads;
  params.vars = 64;
  params.txs_per_thread = 5000;
  params.ops_per_tx = 8;
  params.write_ratio = 0.25;
  params.seed = 4242;

  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto stm = stm::make_stm(stm_name, params.vars);
    (void)stm->set_window_free(window_free);
    stm::Recorder recorder(params.vars);
    stm->set_recorder(&recorder);
    (void)wl::run_random_mix(*stm, params);
    events = recorder.num_events();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- recorded-mode live verification -----------------------------------------
//
// §5.2 demands a verdict on every prefix: the monitor must run WHILE the
// mix records. The recorder's drain() hands the monitor each
// stamp-contiguous batch exactly once. The consumer is the production
// shape: reusable EventBatch, pre-sized monitor, and the self-pacing
// AdaptiveDrainPacer. `policy` lets the window-free variant feed the
// kStampedRead monitor (windowed feeds the default).

void live_verified_mix(benchmark::State& state, bool window_free,
                       core::VersionOrderPolicy policy) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  wl::MixParams params;
  params.threads = threads;
  params.vars = 64;
  params.txs_per_thread = 12000 / threads;
  params.ops_per_tx = 8;
  params.write_ratio = 0.25;
  params.seed = 4242;

  std::uint64_t events = 0;
  bool clean = true;
  for (auto _ : state) {
    const auto stm = stm::make_stm("tl2", params.vars);
    (void)stm->set_window_free(window_free);
    stm::Recorder recorder(params.vars);
    stm->set_recorder(&recorder);
    core::OnlineCertificateMonitor monitor(recorder.model(), policy);
    monitor.reserve(params.threads * params.txs_per_thread + 16,
                    params.txs_per_thread * params.threads *
                            params.ops_per_tx / 2 +
                        params.vars + 16);
    std::atomic<bool> done{false};
    std::thread verifier([&] {
      stm::EventBatch batch;
      stm::AdaptiveDrainPacer pacer;
      for (;;) {
        const bool finished = done.load(std::memory_order_acquire);
        if (finished || pacer.should_drain(recorder.stamps_issued(),
                                           recorder.approx_pending())) {
          batch.clear();
          if (recorder.drain(batch) > 0) {
            pacer.on_drain();
            (void)monitor.ingest(batch.span());
            continue;
          }
          if (finished) return;
        }
        std::this_thread::yield();
      }
    });
    (void)wl::run_random_mix(*stm, params);
    done.store(true, std::memory_order_release);
    verifier.join();
    events = monitor.events_fed();
    clean = monitor.ok();
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("live monitor flagged an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- batch ingestion fed by the recorder --------------------------------------

/// Batch ingestion at batch size range(0). range(1) = 1 pre-sizes the
/// monitor with reserve() from the recorded load, as the live pipeline and
/// the network server do; range(1) = 0 gives no hints, so the state grows
/// as it must when a durable log is replayed. Construction and reserve()
/// are set-up, outside the timing.
void BM_BatchCertificateMonitor(benchmark::State& state) {
  const core::History h = recorded_mix(2048);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const bool reserve = state.range(1) != 0;
  core::TxId max_tx = 0;
  std::size_t writes = 0;
  for (const core::Event& e : h.events()) {
    max_tx = std::max(max_tx, e.tx);
    if (e.kind == core::EventKind::kResponse && e.op == core::OpCode::kWrite) {
      ++writes;
    }
  }
  bool clean = true;
  for (auto _ : state) {
    state.PauseTiming();
    std::optional<core::OnlineCertificateMonitor> monitor(std::in_place,
                                                          h.model());
    if (reserve) {
      monitor->reserve(std::size_t{max_tx} + 1, writes + h.model().size());
    }
    state.ResumeTiming();
    const std::span<const core::Event> events(h.events());
    for (std::size_t i = 0; i < events.size(); i += batch) {
      (void)monitor->ingest(
          events.subspan(i, std::min(batch, events.size() - i)));
    }
    clean = monitor->ok();
    benchmark::DoNotOptimize(clean);
    state.PauseTiming();
    monitor.reset();  // teardown is not ingestion either
    state.ResumeTiming();
  }
  if (!clean) {
    state.SkipWithError("certificate violation on an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(BM_CertificateMonitor)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DefinitionalMonitor)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);

void BM_RecordedMixSharded(benchmark::State& state) { BM_RecordedMix(state); }
void BM_RecordedMixTl2WindowFree(benchmark::State& state) {
  BM_RecordedMix(state, /*window_free=*/true);
}
void BM_RecordedMixDstmWindowFree(benchmark::State& state) {
  // The orec stamp source: per-read whole-read-set validation draws the
  // snapshot, commits ticket through kCommitting. The delta against
  // BM_RecordedMixTl2WindowFree is the Θ(k) validation, not the recorder.
  BM_RecordedMix(state, /*window_free=*/true, "dstm");
}
void BM_LiveVerifiedMixSharded(benchmark::State& state) {
  live_verified_mix(state, /*window_free=*/false,
                    core::VersionOrderPolicy::kCommitOrder);
}
void BM_LiveVerifiedMixTl2WindowFree(benchmark::State& state) {
  live_verified_mix(state, /*window_free=*/true,
                    core::VersionOrderPolicy::kStampedRead);
}

BENCHMARK(BM_RecordedMixSharded)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_RecordedMixTl2WindowFree)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_RecordedMixDstmWindowFree)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_LiveVerifiedMixSharded)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_LiveVerifiedMixTl2WindowFree)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_BatchCertificateMonitor)
    ->ArgsProduct({benchmark::CreateRange(1, 4096, 8), {0, 1}})
    ->ArgNames({"batch", "reserve"})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sink overhead: the durable segment-log sink vs the in-RAM append baseline
// ---------------------------------------------------------------------------

namespace {

/// Push a pre-recorded history through a sink in drain-sized chunks —
/// the consumption side of the pipeline isolated from recording noise.
void sink_append_chunks(const core::History& h, stm::EventSink& sink,
                        std::size_t chunk) {
  std::span<const core::Event> rest(h.events());
  while (!rest.empty()) {
    const std::size_t take = std::min(rest.size(), chunk);
    if (!sink.accept(rest.first(take))) break;
    rest = rest.subspan(take);
  }
  (void)sink.finish();
}

constexpr std::size_t kSinkChunkEvents = 8192;

/// Baseline: the same chunks appended to an in-RAM History
/// (History::append_batch via HistoryAppendSink).
void BM_RamAppendDrain(benchmark::State& state) {
  const core::History h = recorded_mix(4096);
  for (auto _ : state) {
    core::History out(h.model());
    stm::HistoryAppendSink sink(out);
    sink_append_chunks(h, sink, kSinkChunkEvents);
    benchmark::DoNotOptimize(out.size());
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// The durable leg: identical chunks through log::LogWriterSink into a
/// fresh multi-segment log per iteration (CRC framing, pwrite, rotation
/// with its fdatasync and the final seal included). The delta against
/// BM_RamAppendDrain is the cost of durability in the drain loop. Timed
/// in wall-clock time: the syncs block in the kernel, off the CPU clock.
void BM_LogAppendDrain(benchmark::State& state) {
  const core::History h = recorded_mix(4096);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("optm_bench_log_" + std::to_string(::getpid()));
  std::uint64_t segments = 0;
  for (auto _ : state) {
    log::WriterOptions options;
    options.directory = dir.string();
    options.segment_bytes = std::size_t{2} << 20;  // force rotation
    options.metadata.runtime = "tl2";
    options.metadata.policy = "record-only";
    options.metadata.window_mode = "windowed";
    options.metadata.num_vars = 8;
    log::LogWriter writer(options);
    log::LogWriterSink sink(writer);
    sink_append_chunks(h, sink, kSinkChunkEvents);
    if (!writer.ok()) {
      state.SkipWithError(writer.error().c_str());
      return;
    }
    segments = writer.segments_written();
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["segments"] = static_cast<double>(segments);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// The checksum kernel alone (util::crc32c as dispatched — hardware
/// where the CPU has it), at a block-header-ish size, the drain-chunk
/// payload scale, and a streaming megabyte. The label records which
/// backend actually ran so archived numbers are comparable across hosts.
void BM_Crc32c(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> buf(bytes);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = util::crc32c(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetLabel(util::crc32c_backend_name());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["events"] = static_cast<double>(bytes);  // bytes per iter
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(bytes),
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(BM_RamAppendDrain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LogAppendDrain)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// --json=FILE: the machine-readable perf artifact (BENCH_5.json schema)
// ---------------------------------------------------------------------------
//
// CI's bench-smoke job archives this next to the google-benchmark JSON so
// the repository accumulates an events/sec trajectory per
// runtime x policy x window mode instead of free-form console logs.

namespace {

/// Static metadata keyed by benchmark-name prefix (longest match wins).
/// "record-only" marks pure recording benches (no monitor in the loop).
struct BenchMeta {
  const char* prefix;
  const char* runtime;
  const char* policy;
  const char* window_mode;
};
constexpr BenchMeta kBenchMeta[] = {
    {"BM_CertificateMonitor", "tl2", "commit-order", "windowed"},
    {"BM_DefinitionalMonitor", "tl2", "definitional", "windowed"},
    // Both reserve legs: BM_BatchCertificateMonitor/batch:<n>/reserve:<0|1>.
    {"BM_BatchCertificateMonitor", "tl2", "commit-order", "windowed"},
    {"BM_RecordedMixSharded", "tl2", "record-only", "windowed"},
    {"BM_RecordedMixTl2WindowFree", "tl2", "record-only", "window-free"},
    {"BM_RecordedMixDstmWindowFree", "dstm", "record-only", "window-free"},
    {"BM_LiveVerifiedMixSharded", "tl2", "commit-order", "windowed"},
    {"BM_LiveVerifiedMixTl2WindowFree", "tl2", "stamped-read", "window-free"},
    {"BM_RamAppendDrain", "tl2", "record-only", "windowed"},
    {"BM_LogAppendDrain", "tl2", "record-only", "windowed"},
    {"BM_Crc32c", "tl2", "record-only", "windowed"},
};

[[nodiscard]] const BenchMeta* meta_of(const std::string& name) {
  const BenchMeta* best = nullptr;
  std::size_t best_len = 0;
  for (const BenchMeta& m : kBenchMeta) {
    const std::size_t len = std::char_traits<char>::length(m.prefix);
    if (name.compare(0, len, m.prefix) == 0 && len > best_len) {
      best = &m;
      best_len = len;
    }
  }
  return best;
}

struct CapturedRun {
  std::string name;
  double events = 0;
  double events_per_sec = 0;
  double real_time_sec = 0;
  std::int64_t iterations = 0;
};

/// Console output as usual, plus a side capture of every run for --json.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Runs that errored/skipped never set their counters — keying on the
      // events counter also keeps this portable across google-benchmark
      // versions (Run::error_occurred became Run::skipped in 1.8).
      const auto ev = run.counters.find("events");
      if (ev == run.counters.end()) continue;
      CapturedRun c;
      c.name = run.benchmark_name();
      c.iterations = run.iterations;
      c.real_time_sec =
          run.iterations > 0 ? run.real_accumulated_time / run.iterations : 0;
      c.events = ev->second.value;
      if (c.real_time_sec > 0) c.events_per_sec = c.events / c.real_time_sec;
      captured_.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<CapturedRun>& captured() const noexcept {
    return captured_;
  }

 private:
  std::vector<CapturedRun> captured_;
};

[[nodiscard]] bool write_bench_json(const std::string& path,
                                    const std::vector<CapturedRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"optm-bench-v1\",\n"
               "  \"tool\": \"bench_online_checker\",\n"
               "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CapturedRun& r = runs[i];
    const BenchMeta* m = meta_of(r.name);
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"runtime\": \"%s\", \"policy\": \"%s\", "
        "\"window_mode\": \"%s\", \"events\": %.0f, "
        "\"events_per_sec\": %.0f, \"real_time_sec\": %.9f, "
        "\"iterations\": %lld}%s\n",
        r.name.c_str(), m != nullptr ? m->runtime : "?",
        m != nullptr ? m->policy : "?", m != nullptr ? m->window_mode : "?",
        r.events, r.events_per_sec, r.real_time_sec,
        static_cast<long long>(r.iterations), i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

}  // namespace optm::bench

int main(int argc, char** argv) {
  // Strip our --json=FILE flag before google-benchmark sees (and rejects)
  // it.
  const std::string json_path =
      optm::util::extract_flag(argc, argv, "json").value_or("");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  optm::bench::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !optm::bench::write_bench_json(json_path, reporter.captured())) {
    std::fprintf(stderr, "cannot write --json=%s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
