// net-tenants: an in-process CertServer on loopback (one epoll loop, the
// serial monitor per stream) certifies two CertClient tenants at once,
// each replaying its own pre-recorded tl2 history in drain-sized batches.
// The recorder and the log are idle; framing, CRC, credit waits and the
// one loop thread do the work.
#include <array>
#include <thread>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

constexpr std::uint64_t kTenantEvents = 1'000'000;
constexpr std::size_t kTenants = 2;

optm::net::HelloFrame hello(const optm::core::History& h) {
  optm::log::LogMetadata meta;
  meta.runtime = kRuntime;
  meta.policy = to_string(optm::core::VersionOrderPolicy::kCommitOrder);
  meta.window_mode = "windowed";
  meta.num_vars = kVars;
  meta.threads = kProducers;
  // Pre-sizing hints, as recorded_soak sends them: the event count bounds
  // both transactions and versions.
  return optm::net::make_hello(meta, h.size(), h.size());
}

/// One tenant's stream: connect in set-up, then send + finish, timed.
struct Tenant {
  optm::net::CertClient client;
  double connect_s = 0.0;
  bool sent = true;
  bool finished = false;
  std::vector<CountSample> entries;
  double t_last_send = 0.0;
  double t_final = 0.0;

  void stream(std::span<const optm::core::Event> events, Tracer& tracer,
              std::uint32_t stream_id, double t0) {
    const std::size_t tenant_span = tracer.open("net.tenant", t0, kNoSpan, stream_id);
    entries.assign(1, {t0, 0});
    for (std::size_t off = 0; off < events.size() && sent; off += drain_batch_events()) {
      const auto batch = events.subspan(off, std::min(drain_batch_events(), events.size() - off));
      const double a0 = now_s();
      sent = client.send_events(batch);
      const double a1 = now_s();
      tracer.add("net.send", {a0, a1}, tenant_span, stream_id);
      entries.push_back({a1, off + batch.size()});
    }
    t_last_send = entries.back().t;
    finished = client.finish();
    t_final = now_s();
    tracer.add("net.finish", {t_last_send, t_final}, tenant_span, stream_id);
    tracer.close(tenant_span, t_final);
  }
};

bool connect(Tenant& t, std::uint16_t port, const optm::core::History& h,
             Tracer& tracer, std::uint32_t stream_id) {
  const double c0 = now_s();
  const bool connected = t.client.connect("127.0.0.1", port, hello(h));
  const double c1 = now_s();
  t.connect_s = c1 - c0;
  tracer.add("net.connect", {c0, c1}, kNoSpan, stream_id);
  return connected;
}

}  // namespace

RoundResult net_tenants_round(const RoundCtx& ctx, PlantedResult* planted) {
  namespace core = optm::core;
  namespace net = optm::net;
  Tracer& tracer = *ctx.tracer;
  RoundResult r;
  r.streams = kTenants;
  r.threads_busy = 1 + kTenants;  // the server loop and one thread per tenant
  r.connections = kTenants;

  const double s0 = now_s();
  std::vector<Recording> recs;
  for (std::size_t i = 0; i < kTenants; ++i) {
    recs.push_back(record_history(optm::util::stream_seed(ctx.seed, i), kTenantEvents));
  }
  net::CertServer server(net::ServerOptions{});
  const bool started = server.start();
  std::array<Tenant, kTenants> tenants;
  // Span stream ids: one per tenant stream, distinct across rounds.
  const auto stream_id = [&](std::size_t i) {
    return static_cast<std::uint32_t>(ctx.index * kTenants + i);
  };
  bool connected = started;
  for (std::size_t i = 0; i < kTenants && connected; ++i) {
    connected = connect(tenants[i], server.port(), recs[i].history, tracer, stream_id(i));
  }
  r.setup_s = now_s() - s0;
  if (!connected) {
    r.streams_failed = kTenants;
    r.errors.push_back("net-tenants: cannot set up: " +
                       (started ? tenants[0].client.error() + tenants[1].client.error()
                                : server.error()));
    return r;
  }

  const double c0 = cpu_s();
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kTenants; ++i) {
    threads.emplace_back([&, i] {
      tenants[i].stream(recs[i].history.events(), tracer, stream_id(i), t0);
    });
  }
  for (auto& t : threads) t.join();
  double t_verdict = 0.0;
  double t_last_send = 0.0;
  for (const Tenant& t : tenants) {
    t_verdict = std::max(t_verdict, t.t_final);
    t_last_send = std::max(t_last_send, t.t_last_send);
  }
  const double c1 = cpu_s();
  r.peak_rss_mb = peak_rss_mb();

  std::vector<double> lags;
  for (std::size_t i = 0; i < kTenants; ++i) {
    r.events += recs[i].history.size();
    // A tenant's verdict arrives with finish(); every event waits for it.
    const std::vector<CountSample> marks{{tenants[i].t_final, recs[i].history.size()}};
    const auto l = stream_lags(tenants[i].entries, marks, recs[i].history.size());
    lags.insert(lags.end(), l.begin(), l.end());
  }
  r.events_per_s = static_cast<double>(r.events) / (t_verdict - t0);
  r.final_verdict_ms = (t_verdict - t_last_send) * 1e3;
  fill_lag(r, lags);

  // Checks: each tenant's remote verdict is certified over its full
  // history and equals the in-RAM monitor's; the server failed nothing.
  const net::ServerStats stats = server.stats();
  for (std::size_t i = 0; i < kTenants; ++i) {
    const Tenant& t = tenants[i];
    const auto& h = recs[i].history;
    const Verdict reference = monitor_verdict(h.model(), h.events());
    const std::string who = "net-tenants: tenant " + std::to_string(i);
    if (!t.sent || !t.finished) {
      r.fail(who + ": stream error: " + t.client.error());
    } else if (t.client.verdict().events != h.size() || reference.events != h.size()) {
      r.fail(who + ": certified " + std::to_string(t.client.verdict().events) +
             " of " + std::to_string(h.size()) + " events");
    } else if (!t.client.verdict().certified || !reference.certified) {
      r.fail(who + ": not certified");
    }
  }
  if (stats.streams_failed != 0 && r.streams_failed == 0) {
    r.fail("net-tenants: server failed " + std::to_string(stats.streams_failed) +
           " streams");
  }

  if (tracer.enabled()) {
    double finish_s = 0.0;
    double connect_s = 0.0;
    double slowest = 0.0;
    double fastest = t_verdict - t0;
    for (const Tenant& t : tenants) {
      connect_s = std::max(connect_s, t.connect_s);
      finish_s = std::max(finish_s, t.t_final - t.t_last_send);
      slowest = std::max(slowest, t.t_final - t0);
      fastest = std::min(fastest, t.t_final - t0);
    }
    const double send_s = tracer.total("net.send");
    double mix_s = 0.0;
    double aborts = 0.0;
    for (const Recording& rec : recs) {
      mix_s += rec.mix_s / kTenants;
      aborts += rec.abort_ratio / kTenants;
    }
    r.layer["runtime.mix_s"] = mix_s;
    r.layer["runtime.abort_ratio"] = aborts;
    r.layer["recorder.overhead_x"] =
        recs[0].mix_s / unrecorded_mix_s(optm::util::stream_seed(ctx.seed, 0), kTenantEvents);
    r.layer["net.connect_ms"] = connect_s * 1e3;
    r.layer["net.send_s"] = send_s;
    r.layer["net.tenant_skew"] = slowest / fastest;
    r.layer["net.finish_ms"] = finish_s * 1e3;
    r.layer["net.server.events_ingested"] = static_cast<double>(stats.events_ingested);
    r.layer["net.server.streams_failed"] = static_cast<double>(stats.streams_failed);
    r.layer["proc.cpu_s"] = c1 - c0;
    r.layer["proc.cores_busy"] = (c1 - c0) / (t_verdict - t0);
  }

  if (planted != nullptr) {
    // The networked certify path: a third tenant streams the planted copy
    // to the same server.
    const auto& h = recs[0].history;
    const auto bad = plant_violation(h, planted->planted_at);
    planted->reference_pos = monitor_verdict(h.model(), bad).flag_pos;
    Tenant t;
    Tracer off(false);
    if (connect(t, server.port(), h, off, 0)) {
      t.stream(bad, off, 0, now_s());
      if (t.finished && t.client.verdict().violation) {
        planted->flagged_pos = t.client.verdict().violation->pos;
      }
    }
  }
  server.stop();
  return r;
}

}  // namespace e2e
