#include "core/version_order.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/opacity_graph.hpp"

namespace optm::core {

const char* to_string(CertFlagKind k) noexcept {
  switch (k) {
    case CertFlagKind::kNone: return "none";
    case CertFlagKind::kNotWellFormed: return "not-well-formed";
    case CertFlagKind::kValueNotUnique: return "value-not-unique";
    case CertFlagKind::kLocalInconsistency: return "local-inconsistency";
    case CertFlagKind::kUnwrittenValue: return "unwritten-value";
    case CertFlagKind::kSelfRead: return "self-read";
    case CertFlagKind::kReadFromNonCommitted: return "read-from-non-committed";
    case CertFlagKind::kSnapshotEmpty: return "snapshot-empty";
    case CertFlagKind::kStaleRead: return "stale-read";
    case CertFlagKind::kNotCurrentAtCommit: return "not-current-at-commit";
    case CertFlagKind::kNoReadOnlyPoint: return "no-read-only-point";
    case CertFlagKind::kReadStampMismatch: return "read-stamp-mismatch";
    case CertFlagKind::kSmartReorderFailed: return "smart-reorder-failed";
    case CertFlagKind::kNotOpaque: return "not-opaque";
    case CertFlagKind::kBudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

namespace {

/// Sort every transaction of `events` by (stamp of its C/A event, anchor
/// position) — see anchor_order. `stamped` = false leaves every stamp 0.
[[nodiscard]] std::vector<TxId> order_by_anchor(std::span<const Event> events,
                                                bool stamped) {
  struct Anchor {
    std::uint64_t stamp = 0;
    std::size_t pos = 0;
    bool committed = false;
  };
  std::unordered_map<TxId, Anchor> anchors;
  std::set<std::pair<TxId, ObjId>> wrote;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    Anchor& a = anchors.try_emplace(e.tx, Anchor{0, i, false}).first->second;
    if (e.kind == EventKind::kInvoke && e.op == OpCode::kWrite) {
      wrote.insert({e.tx, e.obj});
    } else if (e.kind == EventKind::kResponse && e.op == OpCode::kRead &&
               !a.committed && wrote.count({e.tx, e.obj}) == 0) {
      a.pos = i;  // last non-local read response
    } else if (e.kind == EventKind::kCommit) {
      a.committed = true;
      a.pos = i;
      if (stamped) a.stamp = e.stamp;
    } else if (e.kind == EventKind::kAbort && stamped) {
      a.stamp = e.stamp;
    }
  }
  std::vector<TxId> order;
  order.reserve(anchors.size());
  for (const auto& [tx, a] : anchors) order.push_back(tx);
  std::sort(order.begin(), order.end(), [&](TxId a, TxId b) {
    const Anchor& x = anchors.at(a);
    const Anchor& y = anchors.at(b);
    return std::pair(x.stamp, x.pos) < std::pair(y.stamp, y.pos);
  });
  return order;
}

}  // namespace

std::vector<TxId> anchor_order(const History& h) {
  return order_by_anchor(h.events(), /*stamped=*/false);
}

std::vector<TxId> stamped_anchor_order(std::span<const Event> events) {
  return order_by_anchor(events, /*stamped=*/true);
}

// ---------------------------------------------------------------------------
// StampPruneIndex
// ---------------------------------------------------------------------------

StampPruneIndex::StampPruneIndex(const History& h) {
  // Value resolution mirroring the certificate's view: value-unique
  // writers per (register, value), non-local reads only (a read preceded
  // by the transaction's own write to the register answers from its write
  // buffer and induces no reads-from edge).
  std::map<std::pair<ObjId, Value>, TxId> writer_of;
  std::set<std::pair<TxId, ObjId>> wrote;
  std::unordered_map<TxId, std::uint64_t> commit_stamp;
  // Per register: committed stamped writers as (C stamp, writer).
  std::map<ObjId, std::vector<std::pair<std::uint64_t, TxId>>> stamped_writers;

  struct PendingRead {
    TxId reader;
    ObjId obj;
    Value value;
    std::uint64_t ver;  // Event::ver (kNoReadVersion when unnamed)
    bool stamped;
  };
  std::vector<PendingRead> reads;

  for (const Event& e : h.events()) {
    switch (e.kind) {
      case EventKind::kInvoke:
        if (e.op == OpCode::kWrite) {
          writer_of.emplace(std::make_pair(e.obj, e.arg), e.tx);
        }
        break;
      case EventKind::kResponse:
        if (e.op == OpCode::kWrite) {
          wrote.insert({e.tx, e.obj});
        } else if (e.op == OpCode::kRead && wrote.count({e.tx, e.obj}) == 0) {
          reads.push_back({e.tx, e.obj, e.ret, e.ver,
                           e.stamp != 0 && e.ver != kNoReadVersion});
        }
        break;
      case EventKind::kCommit:
        if (e.stamp != 0 && (e.stamp & 1) == 0) commit_stamp[e.tx] = e.stamp;
        break;
      default:
        break;
    }
  }
  for (const auto& [wtx, obj] : wrote) {
    const auto s = commit_stamp.find(wtx);
    if (s != commit_stamp.end()) {
      stamped_writers[obj].push_back({s->second, wtx});
    }
  }
  for (auto& [obj, writers] : stamped_writers) {
    std::sort(writers.begin(), writers.end());
  }

  for (const PendingRead& r : reads) {
    const auto w = writer_of.find({r.obj, r.value});
    // Unresolvable reads condemn every order at the exact pass already;
    // no constraint needed (and none would be sound to skip on).
    if (w == writer_of.end()) continue;
    const TxId writer = w->second;
    if (writer == r.reader) continue;
    Constraint c;
    c.reader = r.reader;
    c.writer = writer;
    if (r.stamped && r.ver <= (~std::uint64_t{0} >> 1)) {
      // The stamp names the version (open rank 2·ver): its overwriter is
      // the committed writer of the next stamped version of the register.
      const auto sw = stamped_writers.find(r.obj);
      if (sw != stamped_writers.end()) {
        const auto next = std::upper_bound(
            sw->second.begin(), sw->second.end(),
            std::make_pair(2 * r.ver, std::numeric_limits<TxId>::max()));
        if (next != sw->second.end() && next->second != r.reader &&
            next->second != writer && next->second != kInitTx) {
          c.overwriter = next->second;
        }
      }
    }
    if (writer == kInitTx && c.overwriter == kNoTx) continue;  // trivial
    constraints_.push_back(c);
  }
}

bool StampPruneIndex::rejects(const std::vector<TxId>& order) const {
  if (constraints_.empty()) return false;
  ++epoch_;
  std::size_t need = 1;
  for (const TxId tx : order) {
    need = std::max<std::size_t>(need, static_cast<std::size_t>(tx) + 1);
  }
  // Sparse adversarial ids would balloon the dense rank scratch; such
  // histories just forgo pruning (the exact pass still decides them).
  if (need > (std::size_t{1} << 22)) return false;
  if (rank_.size() < need) rank_.resize(need, {0, 0});
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == kInitTx) continue;
    rank_[order[i]] = {epoch_, i + 1};
  }
  const auto rank_of = [&](TxId tx) -> std::size_t {
    // The initializer ranks 0 wherever it appears — exactly how
    // ranks_from_order treats an explicit T0 in a candidate order.
    if (tx == kInitTx) return 0;
    if (static_cast<std::size_t>(tx) >= rank_.size() ||
        rank_[tx].first != epoch_) {
      return kOpenVersionRank;  // not in the order: no claim
    }
    return rank_[tx].second;
  };
  for (const Constraint& c : constraints_) {
    const std::size_t rr = rank_of(c.reader);
    if (rr == kOpenVersionRank) continue;
    const std::size_t rw = rank_of(c.writer);
    if (rw == kOpenVersionRank) continue;
    // Certificate check (b): reads-from must follow ≪.
    if (rw >= rr) return true;
    if (c.overwriter != kNoTx) {
      const std::size_t ro = rank_of(c.overwriter);
      // Certificate check (d): a visible writer of the register must not
      // rank strictly between the reads-from endpoints.
      if (ro != kOpenVersionRank && rw < ro && ro < rr) return true;
    }
  }
  return false;
}

namespace {

[[nodiscard]] bool verify_candidate(const History& h,
                                    const std::vector<TxId>& order) {
  try {
    return verify_opacity_certificate(h, order, {}, nullptr);
  } catch (const std::invalid_argument&) {
    // Not a value-unique register history — nothing to reorder.
    return false;
  }
}

/// Reorder `anchor` so that the transactions present in `hint` keep the
/// hint's RELATIVE order (at the anchor slots hint members occupy), while
/// transactions the hint has never seen stay at their anchor positions —
/// the incremental extension of a previously certified witness. O(T):
/// this runs once per verified response in search mode, so linear scans
/// per element would make the fast path quadratic in the prefix.
[[nodiscard]] std::vector<TxId> extend_hint(const std::vector<TxId>& anchor,
                                            const std::vector<TxId>& hint) {
  std::unordered_set<TxId> in_anchor(anchor.begin(), anchor.end());
  std::vector<TxId> known;
  known.reserve(hint.size());
  for (const TxId tx : hint) {
    if (in_anchor.count(tx) != 0) known.push_back(tx);
  }
  const std::unordered_set<TxId> in_known(known.begin(), known.end());
  std::vector<TxId> out = anchor;
  std::size_t next = 0;
  for (TxId& slot : out) {
    if (in_known.count(slot) != 0) slot = known[next++];
  }
  return out;
}

}  // namespace

SmartReorderResult smart_reorder_search(const History& h,
                                        const SmartReorderOptions& options) {
  SmartReorderResult result;
  std::vector<TxId> base = anchor_order(h);

  // The prune index costs an O(n log n) scan of the whole history, so it
  // is built lazily — only once a candidate actually reaches a prune
  // check (never when stamp_prune is off, and not at all when the hint
  // certifies, the streaming search mode's common case).
  std::optional<StampPruneIndex> pruner;
  const auto prune_rejects = [&](const std::vector<TxId>& candidate) {
    if (!options.stamp_prune) return false;
    if (!pruner.has_value()) pruner.emplace(h);
    return pruner->rejects(candidate);
  };

  const auto try_candidate = [&](std::vector<TxId>&& candidate,
                                 bool prune = true) {
    ++result.candidates_tried;
    if (prune && prune_rejects(candidate)) {
      ++result.candidates_pruned;
      return false;
    }
    if (verify_candidate(h, candidate)) {
      result.certified = true;
      result.order = std::move(candidate);
      return true;
    }
    return false;
  };

  // The hint first: the witness that certified the previous prefix,
  // extended with the transactions that appeared since, usually certifies
  // this one — the incremental fast path of the monitor's search mode. It
  // goes straight to the exact pass (a just-certified order rarely prunes,
  // and skipping the check keeps the fast path free of the index build).
  if (options.hint != nullptr && !options.hint->empty()) {
    std::vector<TxId> hinted = extend_hint(base, *options.hint);
    if (hinted != base && try_candidate(std::move(hinted), /*prune=*/false)) {
      return result;
    }
  }

  if (try_candidate(std::vector<TxId>(base))) return result;

  // The movers: the last max_moves committers (§3.6 reorders only commits),
  // the prioritized transaction first when given.
  std::vector<TxId> movers;
  if (options.prioritize.has_value()) movers.push_back(*options.prioritize);
  std::vector<std::pair<std::size_t, TxId>> committers;  // (C pos, tx)
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i].kind == EventKind::kCommit) committers.push_back({i, h[i].tx});
  }
  for (auto it = committers.rbegin();
       it != committers.rend() && movers.size() < options.max_moves + 1;
       ++it) {
    if (std::find(movers.begin(), movers.end(), it->second) == movers.end()) {
      movers.push_back(it->second);
    }
  }

  for (const TxId mover : movers) {
    const auto at = std::find(base.begin(), base.end(), mover);
    if (at == base.end()) continue;
    const std::size_t from = static_cast<std::size_t>(at - base.begin());
    for (std::size_t k = 1; k <= options.max_moves && k <= from; ++k) {
      std::vector<TxId> candidate = base;
      // Serialize `mover` k positions earlier than its anchor.
      std::rotate(candidate.begin() + static_cast<std::ptrdiff_t>(from - k),
                  candidate.begin() + static_cast<std::ptrdiff_t>(from),
                  candidate.begin() + static_cast<std::ptrdiff_t>(from + 1));
      if (try_candidate(std::move(candidate))) return result;
    }
  }
  return result;
}

}  // namespace optm::core
