// durable-audit: a tl2 history recorded in set-up is appended to a fresh
// segmented log in drain-sized batches, sealed, then replayed through
// LogReader into the bounded-memory streaming certifier. The recorder is
// idle; log writes, log reads and the certifier do the work.
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/stream_verify.hpp"
#include "log/reader.hpp"
#include "log/writer.hpp"

namespace e2e {

namespace {

/// Longer than verify_event_stream's default window (2^20 events), so the
/// streaming engines run rather than the materialize-and-shard path.
constexpr std::uint64_t kAuditEvents = 1'500'000;
/// Small segments (~87k events each) so the writer rotates many times.
constexpr std::size_t kSegmentBytes = std::size_t{4} << 20;
/// Certifier thread budget: 2 shards + the pass-0 worker + the ingesting
/// caller = 4 threads.
constexpr std::size_t kVerifyThreads = 2;

optm::log::WriterOptions writer_options(const std::string& dir) {
  optm::log::WriterOptions w;
  w.directory = dir;
  w.segment_bytes = kSegmentBytes;
  w.metadata.runtime = kRuntime;
  w.metadata.policy = to_string(optm::core::VersionOrderPolicy::kCommitOrder);
  w.metadata.window_mode = "windowed";
  w.metadata.num_vars = kVars;
  w.metadata.threads = kProducers;
  return w;
}

/// One audit: `events` appended to `writer` (which writes `dir`) in
/// drain-sized batches, the log sealed, then certified back from disk.
struct Audit {
  std::vector<CountSample> entries;  // (append returned, events appended)
  bool wrote = true;
  bool sealed = false;
  bool opened = false;
  double t_sealed = 0.0;
  double read_s = 0.0;
  std::size_t verify_span = kNoSpan;
  optm::core::StreamVerifyResult result;
  optm::log::LogReader reader;
};

void audit(optm::log::LogWriter& writer, const std::string& dir,
           const optm::core::ObjectModel& model, std::span<const optm::core::Event> events,
           Tracer& tracer, std::size_t parent, std::uint32_t stream, Audit& a) {
  a.entries.assign(1, {now_s(), 0});
  for (std::size_t off = 0; off < events.size() && a.wrote; off += drain_batch_events()) {
    const auto batch = events.subspan(off, std::min(drain_batch_events(), events.size() - off));
    const double a0 = now_s();
    a.wrote = writer.append(batch);
    const double a1 = now_s();
    tracer.add("log.append", {a0, a1}, parent, stream);
    a.entries.push_back({a1, off + batch.size()});
  }
  a.sealed = writer.close();
  a.t_sealed = now_s();
  tracer.add("log.close", {a.entries.back().t, a.t_sealed}, parent, stream);

  a.verify_span = tracer.open("certify.verify", a.t_sealed, parent, stream);
  a.opened = a.reader.open(dir);
  optm::core::StreamVerifyOptions options;
  options.num_shards = kVerifyThreads;
  options.num_threads = kVerifyThreads;
  a.result = optm::core::verify_event_stream(
      model,
      [&] {
        const double q0 = now_s();
        const auto span = a.reader.next();
        const double q1 = now_s();
        a.read_s += q1 - q0;
        tracer.add("log.read", {q0, q1}, a.verify_span, stream);
        return span;
      },
      options);
  tracer.close(a.verify_span, now_s());
}

}  // namespace

RoundResult durable_audit_round(const RoundCtx& ctx, PlantedResult* planted) {
  namespace core = optm::core;
  Tracer& tracer = *ctx.tracer;
  RoundResult r;
  r.streams = 1;

  const double s0 = now_s();
  const std::size_t round_span = tracer.open("round", s0, kNoSpan, ctx.index);
  const Recording rec = record_history(ctx.seed, kAuditEvents);
  const std::span<const core::Event> events(rec.history.events());
  const core::ObjectModel& model = rec.history.model();
  const std::string dir = ctx.work_dir + "/audit-log";
  std::filesystem::remove_all(dir);
  std::optional<optm::log::LogWriter> writer(std::in_place, writer_options(dir));
  Audit a;
  r.setup_s = now_s() - s0;
  tracer.add("setup", {s0, s0 + r.setup_s}, round_span, ctx.index);

  const double c0 = cpu_s();
  const double t0 = now_s();
  audit(*writer, dir, model, events, tracer, round_span, ctx.index, a);
  const double t_verdict = now_s();
  const double c1 = cpu_s();
  tracer.close(round_span, t_verdict);
  r.peak_rss_mb = peak_rss_mb();

  const double t_appended = a.entries.back().t;
  r.events = events.size();
  r.events_per_s = static_cast<double>(r.events) / (t_verdict - t0);
  r.final_verdict_ms = (t_verdict - t_appended) * 1e3;
  // The audit has one verdict, at the end: every event waits for it.
  const std::vector<CountSample> marks{{t_verdict, r.events}};
  fill_lag(r, stream_lags(a.entries, marks, r.events));
  const auto pipe = writer->pipeline_stats();
  r.threads_busy = std::max<std::size_t>(1 + (pipe.enabled ? 1 : 0),  // append + prep
                                         1 + a.result.threads_used);  // ingest + workers

  // Checks: the log round-trips every event and the streaming verdict
  // equals the in-RAM monitor's over the set-up history.
  const Verdict reference = monitor_verdict(model, events);
  if (!a.wrote || !a.sealed) r.fail("durable-audit: log write failed: " + writer->error());
  if (!a.opened || !a.reader.ok()) r.fail("durable-audit: log read failed: " + a.reader.error());
  if (a.result.events != r.events || a.reader.events_read() != r.events ||
      reference.events != r.events) {
    r.fail("durable-audit: event counts differ (recorded " + std::to_string(r.events) +
           ", read " + std::to_string(a.reader.events_read()) + ", certified " +
           std::to_string(a.result.events) + ")");
  }
  if (!a.result.certified || !reference.certified) {
    r.fail(std::string("durable-audit: not certified (log ") +
           (a.result.certified ? "clean" : a.result.violation->reason) + ", reference " +
           (reference.certified ? "clean" : "flagged") + ")");
  }

  if (tracer.enabled()) {
    const double append_s = tracer.total("log.append");
    const double close_s = a.t_sealed - t_appended;
    const double busy = tracer.self(a.verify_span);
    std::uint64_t read_bytes = 0;
    for (const auto& seg : a.reader.segments()) read_bytes += seg.file_bytes;
    r.layer["runtime.mix_s"] = rec.mix_s;
    r.layer["runtime.abort_ratio"] = rec.abort_ratio;
    r.layer["recorder.overhead_x"] = rec.mix_s / unrecorded_mix_s(ctx.seed, kAuditEvents);
    r.layer["certify.busy_s"] = busy;
    r.layer["certify.events_per_busy_s"] = static_cast<double>(r.events) / busy;
    r.layer["certify.threads_used"] = static_cast<double>(a.result.threads_used);
    r.layer["log.append_s"] = append_s;
    r.layer["log.close_s"] = close_s;
    r.layer["log.write_mb_per_s"] =
        static_cast<double>(writer->bytes_written()) / 1e6 / (append_s + close_s);
    r.layer["log.bytes_per_event"] =
        static_cast<double>(writer->bytes_written()) / static_cast<double>(r.events);
    r.layer["log.segments"] = static_cast<double>(writer->segments_written());
    r.layer["log.prep_stalls"] = static_cast<double>(pipe.prep_stalls);
    r.layer["log.flush_lag_peak"] = static_cast<double>(pipe.flush_lag_peak);
    r.layer["log.read_s"] = a.read_s;
    r.layer["log.read_mb_per_s"] = static_cast<double>(read_bytes) / 1e6 / a.read_s;
    r.layer["proc.cpu_s"] = c1 - c0;
    r.layer["proc.cores_busy"] = (c1 - c0) / (t_verdict - t0);
  }
  writer.reset();
  std::filesystem::remove_all(dir);

  if (planted != nullptr) {
    const auto bad = plant_violation(rec.history, planted->planted_at);
    planted->reference_pos = monitor_verdict(model, bad).flag_pos;
    const std::string bad_dir = ctx.work_dir + "/audit-planted";
    std::filesystem::remove_all(bad_dir);
    optm::log::LogWriter bad_writer(writer_options(bad_dir));
    Tracer off(false);
    Audit b;
    audit(bad_writer, bad_dir, model, bad, off, kNoSpan, 0, b);
    if (b.result.violation) planted->flagged_pos = b.result.violation->pos;
    std::filesystem::remove_all(bad_dir);
  }
  return r;
}

}  // namespace e2e
