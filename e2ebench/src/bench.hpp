// Shared pieces of the end-to-end certification benchmark: the clock, the
// per-round result every workload fills in, the sink decorator that times
// DrainPump's calls into its sink, and the helpers that record a history,
// plant a violation and compute reference verdicts.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/online.hpp"
#include "metrics.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "workload/workloads.hpp"

namespace e2e {

/// Seconds since the process started (the one time base of every span,
/// sample and mark).
[[nodiscard]] double now_s();

/// CPU seconds this process has used, all threads.
[[nodiscard]] double cpu_s();

/// Peak resident set of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Everything one workload needs to know to run one round.
struct RoundCtx {
  std::uint64_t seed = 0;   // this round's input seed
  std::uint32_t index = 0;  // round number, the span stream id
  Tracer* tracer = nullptr;  // enabled in traced rounds
  std::string work_dir;  // where the round may write files (logs, spans)
  unsigned nproc = 1;
};

/// What one round measured. `layer` is filled in traced rounds only.
struct RoundResult {
  double setup_s = 0.0;
  double events_per_s = 0.0;
  double final_verdict_ms = 0.0;
  double lag_p50_ms = 0.0;
  double lag_p99_ms = 0.0;
  std::size_t lag_count = 0;
  double peak_rss_mb = 0.0;
  std::uint64_t events = 0;
  std::size_t streams = 0;
  std::size_t streams_failed = 0;
  std::vector<std::string> errors;  // why a stream failed
  std::map<std::string, double> layer;
  /// Threads (and connections) the timed region kept busy at once.
  std::size_t threads_busy = 0;
  std::size_t connections = 0;

  void fail(std::string why) {
    ++streams_failed;
    errors.push_back(std::move(why));
  }
};

/// The planted-violation check: a copy of a recorded history with one read
/// rewritten to a value no write produced, run through the workload's
/// certify path and compared with the reference first-flag position.
struct PlantedResult {
  std::size_t planted_at = 0;
  std::optional<std::size_t> reference_pos;
  std::optional<std::size_t> flagged_pos;
};

/// The tl2 random mix at the soak driver's defaults: 64 registers, 4
/// operations per transaction, half writes, 5% voluntary aborts.
inline constexpr std::uint32_t kVars = 64;
inline constexpr std::uint32_t kProducers = 3;
inline constexpr const char* kRuntime = "tl2";
[[nodiscard]] optm::wl::MixParams mix_params(std::uint64_t seed,
                                             std::uint64_t target_events);

/// The drain batch bound DrainPump's pacer enforces by default: the batch
/// size every replay (log appends, socket sends) uses.
[[nodiscard]] std::size_t drain_batch_events();

/// A recorded tl2 history plus what the mix and the recorder reported.
struct Recording {
  optm::core::History history;
  double mix_s = 0.0;
  double abort_ratio = 0.0;
};
[[nodiscard]] Recording record_history(std::uint64_t seed,
                                       std::uint64_t target_events);

/// Seconds the same mix takes with no recorder attached (the base of
/// recorder.overhead_x).
[[nodiscard]] double unrecorded_mix_s(std::uint64_t seed,
                                      std::uint64_t target_events);

/// The in-RAM monitor's verdict over `events` (the reference for the
/// durable and networked paths).
struct Verdict {
  bool certified = false;
  std::size_t events = 0;
  std::optional<std::size_t> flag_pos;
};
[[nodiscard]] Verdict monitor_verdict(const optm::core::ObjectModel& model,
                                      std::span<const optm::core::Event> events);

/// Copy of `h` with the first read response at or after its midpoint
/// rewritten to a value no write in `h` produced; `planted_at` gets the
/// rewritten event's index.
[[nodiscard]] std::vector<optm::core::Event> plant_violation(
    const optm::core::History& h, std::size_t& planted_at);

/// Sink decorator owned by the benchmark: on the pump thread, samples the
/// time and the recorder's stamps_issued()/approx_pending() before each
/// accept, and the time after it, then forwards to the real sink.
class TimedSink final : public optm::stm::EventSink {
 public:
  TimedSink(optm::stm::EventSink& inner, const optm::stm::Recorder& recorder,
            Tracer& tracer, std::uint32_t stream, std::size_t parent)
      : inner_(&inner), recorder_(&recorder), tracer_(&tracer),
        stream_(stream), parent_(parent) {}

  bool accept(std::span<const optm::core::Event> batch) override;
  bool finish() override { return inner_->finish(); }

  /// (time before accept, stamps_issued) — when events entered.
  [[nodiscard]] const std::vector<CountSample>& issued() const noexcept {
    return issued_;
  }
  /// (time after accept, events accepted so far) — when they were judged.
  [[nodiscard]] const std::vector<CountSample>& judged() const noexcept {
    return judged_;
  }
  [[nodiscard]] const std::vector<double>& backlog() const noexcept {
    return backlog_;
  }
  [[nodiscard]] const std::vector<std::size_t>& batch_sizes() const noexcept {
    return sizes_;
  }
  [[nodiscard]] double busy_s() const noexcept { return busy_s_; }
  void set_parent(std::size_t parent) noexcept { parent_ = parent; }

 private:
  optm::stm::EventSink* inner_;
  const optm::stm::Recorder* recorder_;
  Tracer* tracer_;
  std::uint32_t stream_;
  std::size_t parent_;
  std::uint64_t accepted_ = 0;
  double busy_s_ = 0.0;
  std::vector<CountSample> issued_;
  std::vector<CountSample> judged_;
  std::vector<double> backlog_;
  std::vector<std::size_t> sizes_;
};

/// Sampled per-event verdict lags of one stream, from when its events
/// entered the pipeline and when verdicts covering them came out.
[[nodiscard]] std::vector<double> stream_lags(std::span<const CountSample> entries,
                                              std::span<const CountSample> marks,
                                              std::uint64_t events);
/// The lag percentiles of `lags`, in ms, filled into `r`.
void fill_lag(RoundResult& r, const std::vector<double>& lags);

// The three workloads. Each runs one round (set-up, timed region, checks)
// and, once per run, the planted-violation check.
RoundResult live_certify_round(const RoundCtx& ctx, PlantedResult* planted);
RoundResult durable_audit_round(const RoundCtx& ctx, PlantedResult* planted);
RoundResult net_tenants_round(const RoundCtx& ctx, PlantedResult* planted);

}  // namespace e2e
