#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

#include "stm/factory.hpp"

namespace e2e {

namespace {
const auto kOrigin = std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kOrigin)
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

optm::wl::MixParams mix_params(std::uint64_t seed, std::uint64_t target_events) {
  optm::wl::MixParams mix;
  mix.threads = kProducers;
  mix.vars = kVars;
  mix.ops_per_tx = 4;
  mix.seed = seed;
  // Sized as the soak driver sizes it: ~2 events per operation.
  const std::uint64_t events_per_tx = 2ull * mix.ops_per_tx;
  mix.txs_per_thread = target_events / (std::uint64_t{kProducers} * events_per_tx) + 1;
  return mix;
}

std::size_t drain_batch_events() {
  return static_cast<std::size_t>(optm::stm::AdaptiveDrainPacer::Options{}.max_pending);
}

Recording record_history(std::uint64_t seed, std::uint64_t target_events) {
  auto stm = optm::stm::make_stm(kRuntime, kVars);
  optm::stm::Recorder recorder(kVars);
  stm->set_recorder(&recorder);
  const auto run = optm::wl::run_random_mix(*stm, mix_params(seed, target_events));
  // At quiescence one drain() returns the whole recording in stamp order —
  // history()'s result, several times faster.
  optm::stm::EventBatch all;
  all.reserve(recorder.num_events());
  if (recorder.drain(all) != recorder.num_events()) {
    throw std::runtime_error("set-up: the recorder drained short of its recording");
  }
  return Recording{optm::core::History::from_batch(recorder.model(), all.span()),
                   run.seconds, run.abort_ratio()};
}

double unrecorded_mix_s(std::uint64_t seed, std::uint64_t target_events) {
  auto stm = optm::stm::make_stm(kRuntime, kVars);
  return optm::wl::run_random_mix(*stm, mix_params(seed, target_events)).seconds;
}

Verdict monitor_verdict(const optm::core::ObjectModel& model,
                        std::span<const optm::core::Event> events) {
  optm::core::OnlineCertificateMonitor monitor(model);
  (void)monitor.ingest(events);
  Verdict v;
  v.certified = monitor.ok();
  v.events = monitor.events_fed();
  if (monitor.violation()) v.flag_pos = monitor.violation()->pos;
  return v;
}

std::vector<optm::core::Event> plant_violation(const optm::core::History& h,
                                               std::size_t& planted_at) {
  std::vector<optm::core::Event> events = h.events();
  optm::core::Value unused = 0;
  for (const auto& e : events) unused = std::max({unused, e.arg, e.ret});
  ++unused;  // larger than every value written or read
  planted_at = events.size();
  for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
    auto& e = events[i];
    if (e.kind == optm::core::EventKind::kResponse &&
        e.op == optm::core::OpCode::kRead) {
      e.ret = unused;
      planted_at = i;
      break;
    }
  }
  return events;
}

bool TimedSink::accept(std::span<const optm::core::Event> batch) {
  const double t0 = now_s();
  issued_.push_back({t0, recorder_->stamps_issued()});
  backlog_.push_back(static_cast<double>(recorder_->approx_pending()));
  const bool ok = inner_->accept(batch);
  const double t1 = now_s();
  accepted_ += batch.size();
  judged_.push_back({t1, accepted_});
  sizes_.push_back(batch.size());
  busy_s_ += t1 - t0;
  tracer_->add("certify.accept", {t0, t1}, parent_, stream_);
  return ok;
}

std::vector<double> stream_lags(std::span<const CountSample> entries,
                                std::span<const CountSample> marks,
                                std::uint64_t events) {
  // At most ~64k samples a stream: enough for p99 to leave hundreds beyond.
  const std::uint64_t stride = std::max<std::uint64_t>(1, events >> 16);
  return lag_samples(entries, marks, events, stride);
}

void fill_lag(RoundResult& r, const std::vector<double>& lags) {
  r.lag_count = lags.size();
  r.lag_p50_ms = percentile(lags, 50.0) * 1e3;
  r.lag_p99_ms = percentile(lags, 99.0) * 1e3;
}

}  // namespace e2e
