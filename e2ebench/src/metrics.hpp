// The benchmark's metric math and its span tracer. Everything here is
// pure (no clocks read, no I/O) except Tracer, so tests/metrics_test.cpp
// checks it on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
/// Sorts a copy, so callers keep their sample order.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// True when `n` samples leave at least ten beyond percentile p, the
/// least a tail percentile needs to be more than one sample's luck.
[[nodiscard]] constexpr bool tail_supported(std::size_t n, double p) noexcept {
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

/// "By time t, `count` events had entered the pipeline." Samples must be
/// ordered by time with non-decreasing counts.
struct CountSample {
  double t = 0.0;
  std::uint64_t count = 0;
};

/// When event k (0-based, in stream order) entered the pipeline: linear
/// interpolation between the last sample that does not yet cover k and the
/// first that does. Events past the last sample's count get its time.
[[nodiscard]] inline double entered_at(std::span<const CountSample> samples,
                                       std::uint64_t k) {
  if (samples.empty()) return 0.0;
  const auto it = std::upper_bound(
      samples.begin(), samples.end(), k,
      [](std::uint64_t key, const CountSample& s) { return key < s.count; });
  if (it == samples.end()) return samples.back().t;
  if (it == samples.begin()) return it->t;
  const CountSample& lo = *(it - 1);
  const CountSample& hi = *it;
  const double frac = static_cast<double>(k + 1 - lo.count) /
                      static_cast<double>(hi.count - lo.count);
  return lo.t + frac * (hi.t - lo.t);
}

/// When event k was judged: the time of the first verdict mark whose
/// count covers it (marks are ordered, counts increasing). Events past the
/// last mark get its time.
[[nodiscard]] inline double judged_at(std::span<const CountSample> marks,
                                      std::uint64_t k) {
  if (marks.empty()) return 0.0;
  const auto it = std::upper_bound(
      marks.begin(), marks.end(), k,
      [](std::uint64_t key, const CountSample& s) { return key < s.count; });
  return it == marks.end() ? marks.back().t : it->t;
}

/// Per-event verdict lag (judged − entered) for every `stride`-th event of
/// a stream of `events` events. The stride bounds the sample count, and
/// with it the memory the lag distribution costs.
[[nodiscard]] inline std::vector<double> lag_samples(
    std::span<const CountSample> entries, std::span<const CountSample> marks,
    std::uint64_t events, std::uint64_t stride) {
  std::vector<double> lags;
  stride = std::max<std::uint64_t>(stride, 1);
  lags.reserve(static_cast<std::size_t>(events / stride + 1));
  for (std::uint64_t k = 0; k < events; k += stride) {
    lags.push_back(judged_at(marks, k) - entered_at(entries, k));
  }
  return lags;
}

/// An interval of the trace, in seconds since the tracer's origin.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of `parent`: its length minus the part of it that the union
/// of `children` covers (children are clipped to the parent and may
/// overlap one another, as spans from several threads do).
[[nodiscard]] inline double self_time(Interval parent,
                                      std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double reach = parent.start;  // covered up to here
  for (const Interval& c : children) {
    const double s = std::max(c.start, reach);
    const double e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return (parent.end - parent.start) - covered;
}

inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// A span recorded around one call into a layer: name, interval, the span
/// that caused it, and the stream (round or tenant) it belongs to.
struct Span {
  const char* name = "";
  Interval at;
  std::size_t parent = kNoSpan;
  std::uint32_t stream = 0;
};

/// In-memory span store. Disabled tracers record nothing and return
/// kNoSpan, so untraced rounds pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span; returns its id.
  std::size_t add(const char* name, Interval at, std::size_t parent,
                  std::uint32_t stream) {
    if (!enabled_) return kNoSpan;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, at, parent, stream});
    return spans_.size() - 1;
  }
  /// Open a span whose end is not known yet (a parent); close() sets it.
  std::size_t open(const char* name, double start, std::size_t parent,
                   std::uint32_t stream) {
    return add(name, Interval{start, start}, parent, stream);
  }
  void close(std::size_t id, double end) {
    if (id == kNoSpan) return;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[id].at.end = end;
  }

  /// Summed length of every span named `name`.
  [[nodiscard]] double total(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) sum += s.at.end - s.at.start;
    }
    return sum;
  }
  /// Self time of span `id` (its length minus its children's coverage).
  [[nodiscard]] double self(std::size_t id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Interval> children;
    for (const Span& s : spans_) {
      if (s.parent == id) children.push_back(s.at);
    }
    return self_time(spans_.at(id).at, std::move(children));
  }
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace e2e
