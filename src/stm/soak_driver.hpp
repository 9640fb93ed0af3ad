// SoakDriver: the record → drain → verify pipeline as a library.
//
// One call runs the full recorded-mode pipeline that examples/recorded_soak
// used to hand-roll: a multi-threaded random mix recording into the
// sharded Recorder, a verifier thread pumping stamp-contiguous drained
// batches through an EventSink chain (live certificate monitor, and
// optionally any extra sink — e.g. log::LogWriterSink for a durable
// audit trail), then an offline certificate monitor re-verifying the
// complete history the recorder retained, independently of the drain.
// Options in, structured results out; the example binaries are thin CLI
// wrappers over this class.
#pragma once

#include <optional>
#include <string>

#include "core/online.hpp"
#include "stm/cli_flags.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"

namespace optm::stm {

struct SoakOptions {
  /// Runtime / policy / window mode (the shared CLI vocabulary).
  RunFlags run;
  std::size_t target_events = 1'200'000;
  std::uint32_t threads = 4;
  std::uint32_t vars = 64;
  std::uint32_t ops_per_tx = 4;
  std::uint64_t seed = 20260730;
  /// Certify live with an OnlineCertificateMonitor on the drain thread.
  bool live_monitor = true;
  /// Re-verify recorder.history() after the run (false skips the stage).
  bool offline_verify = true;
  /// Tee'd into the drain pipeline next to the live monitor (not owned).
  EventSink* extra_sink = nullptr;
  AdaptiveDrainPacer::Options pacing{};
};

struct SoakResult {
  // Echoed run descriptors (the optm-soak-v1 vocabulary).
  std::string stm;
  std::string window_mode;
  core::VersionOrderPolicy policy = core::VersionOrderPolicy::kCommitOrder;

  std::size_t recorded_events = 0;
  std::size_t live_batches = 0;
  double live_events_per_sec = 0.0;
  bool live_ok = true;
  std::optional<core::OnlineViolation> live_violation;

  /// False if the extra sink reported a failure (e.g. a log write error).
  bool sink_ok = true;

  bool offline_ran = false;
  bool offline_ok = true;
  std::optional<core::OnlineViolation> offline_violation;
  double offline_events_per_sec = 0.0;

  [[nodiscard]] bool ok() const noexcept {
    return live_ok && sink_ok && offline_ok;
  }
};

class SoakDriver {
 public:
  /// Throws std::invalid_argument for an unknown runtime or a runtime
  /// that cannot record window-free when options.run asks for it.
  explicit SoakDriver(SoakOptions options);

  [[nodiscard]] SoakResult run();

 private:
  SoakOptions options_;
};

}  // namespace optm::stm
