#include "core/conformance.hpp"

#include <utility>

namespace optm::core {
namespace {

[[nodiscard]] EngineVerdict monitor_verdict(const History& h,
                                            VersionOrderPolicy policy) {
  OnlineCertificateMonitor m(h.model(), policy);
  for (const Event& e : h.events()) (void)m.feed(e);
  EngineVerdict v;
  v.certified = m.ok();
  if (!v.certified) {
    v.pos = m.violation()->pos;
    v.reason = m.violation()->reason;
    v.kind = m.violation()->kind;
  }
  return v;
}

}  // namespace

ConformanceReport check_conformance(const History& h,
                                    const ConformanceOptions& options) {
  ConformanceReport report;

  const auto diverge = [&report](std::string what) {
    if (report.ok) {
      report.ok = false;
      report.divergence = std::move(what);
    }
  };

  for (const VersionOrderPolicy policy : options.policies) {
    report.policies.push_back({policy, monitor_verdict(h, policy)});
  }

  std::string why;
  if (options.exact_max_txs > 0 &&
      h.transactions().size() <= options.exact_max_txs &&
      h.well_formed(&why)) {  // check_opacity's precondition
    OpacityOptions opts;
    opts.max_states = options.exact_max_states;
    const OpacityResult exact = check_opacity(h, opts);
    report.exact = exact.verdict;
    report.exact_reason = exact.reason;

    for (const PolicyConformance& pc : report.policies) {
      if (pc.monitor.certified && exact.verdict == Verdict::kNo) {
        // A certified non-opaque history would be a Theorem-2 soundness
        // bug — the one divergence that must never happen.
        diverge(std::string("SOUNDNESS: ") + to_string(pc.policy) +
                " certified a history the exact checker proves non-opaque (" +
                exact.reason + ")");
      }
      if (!pc.monitor.certified && exact.verdict == Verdict::kYes &&
          pc.monitor.kind == CertFlagKind::kNotWellFormed) {
        // Well-formedness is decided, not certified: the exact checker
        // front-ends the same §4 state machine, so a well-formedness flag
        // on an exactly-opaque history means the engines disagree on §4.
        diverge(std::string("well-formedness flag under ") +
                to_string(pc.policy) +
                " on a history the exact checker accepts: " +
                pc.monitor.reason);
      }
    }
  }

  return report;
}

}  // namespace optm::core
