// One round of the end-to-end certification benchmark, run in a fresh
// process as a user's certifier run would be: set-up, the timed region,
// the checks and, with --planted 1, the planted-violation check. Prints the
// round as one JSON line; run.py runs rounds until the run's time is spent
// and reports their medians.
//
//   e2ebench --workload live-certify --seed 1 --round 0 --trace 0
//            --planted 1 --work-dir DIR [--trace-out spans.json]
//
// --trace 1 records spans around the calls into each layer, computes the
// per-layer metrics, and writes the spans to --trace-out. Exits 3 when the
// workload kept more threads or connections busy than there are cores.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/rng.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t round = 0;
  bool trace = false;
  bool planted = false;
  std::string work_dir;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--round") {
      a.round = static_cast<std::uint32_t>(std::stoul(v));
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--planted") {
      a.planted = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.work_dir.empty();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

/// "<fstype> on <mount point>" of the filesystem holding `path`.
std::string filesystem_of(const std::string& path) {
  const std::string target = std::filesystem::canonical(path).string();
  std::ifstream in("/proc/self/mountinfo");
  std::string line;
  std::string best_mount;
  std::string best_type = "unknown";
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string id, parent, dev, root, mount;
    fields >> id >> parent >> dev >> root >> mount;
    const auto dash = line.find(" - ");
    if (dash == std::string::npos) continue;
    std::istringstream tail(line.substr(dash + 3));
    std::string type;
    tail >> type;
    const bool covers = target.rfind(mount, 0) == 0 &&
                        (mount == "/" || target.size() == mount.size() ||
                         target[mount.size()] == '/');
    if (covers && mount.size() >= best_mount.size()) {
      best_mount = mount;
      best_type = type;
    }
  }
  return best_type + " on " + best_mount;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A JSON number with all its digits; null when not finite.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string opt(const std::optional<std::size_t>& v) {
  return v ? std::to_string(*v) : "null";
}

void write_spans(const std::string& path, const std::vector<e2e::Span>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"name\": " << quote(s.name) << ", \"start\": " << num(s.at.start)
        << ", \"end\": " << num(s.at.end) << ", \"parent\": "
        << (s.parent == e2e::kNoSpan ? std::string("null") : std::to_string(s.parent))
        << ", \"stream\": " << s.stream << "}" << (i + 1 < spans.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload live-certify|durable-audit|net-tenants "
                 "--seed N --round I --trace 0|1 --planted 0|1 --work-dir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const std::map<std::string, std::function<e2e::RoundResult(const e2e::RoundCtx&,
                                                             e2e::PlantedResult*)>>
      workloads{{"live-certify", e2e::live_certify_round},
                {"durable-audit", e2e::durable_audit_round},
                {"net-tenants", e2e::net_tenants_round}};
  const auto round_fn = workloads.find(args.workload);
  if (round_fn == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  std::filesystem::create_directories(args.work_dir);

  e2e::Tracer tracer(args.trace);
  const e2e::RoundCtx ctx{optm::util::stream_seed(args.seed, args.round), args.round,
                          &tracer, args.work_dir, nproc};
  e2e::PlantedResult planted;
  const e2e::RoundResult r = round_fn->second(ctx, args.planted ? &planted : nullptr);
  if (r.threads_busy > nproc || r.connections > nproc) {
    std::fprintf(stderr, "%s kept %zu threads and %zu connections busy; nproc is %u\n",
                 args.workload.c_str(), r.threads_busy, r.connections, nproc);
    return 3;
  }
  if (args.trace && !args.trace_out.empty()) write_spans(args.trace_out, tracer.spans());

  std::string errors;
  for (const auto& e : r.errors) errors += (errors.empty() ? "" : ", ") + quote(e);
  std::string layer;
  for (const auto& [name, value] : r.layer) {
    layer += (layer.empty() ? "" : ", ") + quote(name) + ": " + num(value);
  }
  const std::string planted_json =
      args.planted ? "{\"at\": " + std::to_string(planted.planted_at) +
                         ", \"reference_pos\": " + opt(planted.reference_pos) +
                         ", \"flagged_pos\": " + opt(planted.flagged_pos) + "}"
                   : "null";
  std::printf(
      "{\"host\": {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"tmp_fs\": %s}, \"round\": %u, \"traced\": %s, \"setup_s\": %s, "
      "\"events_per_s\": %s, \"final_verdict_ms\": %s, \"verdict_lag_p50_ms\": %s, "
      "\"verdict_lag_p99_ms\": %s, \"lag_samples\": %zu, \"lag_p99_supported\": %s, "
      "\"peak_rss_mb\": %s, "
      "\"events\": %llu, \"streams\": %zu, \"streams_failed\": %zu, \"errors\": [%s], "
      "\"threads_busy\": %zu, \"connections\": %zu, \"layer\": {%s}, \"planted\": %s}\n",
      nproc, quote(cpu_model()).c_str(), quote(compiler()).c_str(),
      quote(E2E_BUILD_TYPE).c_str(), quote(filesystem_of(args.work_dir)).c_str(),
      args.round, args.trace ? "true" : "false", num(r.setup_s).c_str(),
      num(r.events_per_s).c_str(), num(r.final_verdict_ms).c_str(),
      num(r.lag_p50_ms).c_str(), num(r.lag_p99_ms).c_str(), r.lag_count,
      e2e::tail_supported(r.lag_count, 99.0) ? "true" : "false", num(r.peak_rss_mb).c_str(), static_cast<unsigned long long>(r.events), r.streams,
      r.streams_failed, errors.c_str(), r.threads_busy, r.connections, layer.c_str(),
      planted_json.c_str());
  return 0;
}
