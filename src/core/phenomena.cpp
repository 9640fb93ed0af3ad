#include "core/phenomena.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

namespace optm::core {

namespace {

struct WriterTable {
  /// (register, value) -> writing transaction.
  std::map<std::pair<ObjId, Value>, TxId> writer_of;
  /// Commit-event position per committed transaction.
  std::map<TxId, std::size_t> commit_pos;
  /// tryC position per transaction that issued one.
  std::map<TxId, std::size_t> tryc_pos;

  explicit WriterTable(const History& h) {
    for (std::size_t i = 0; i < h.size(); ++i) {
      const Event& e = h[i];
      if (e.kind == EventKind::kInvoke && e.op == OpCode::kWrite) {
        const auto [it, inserted] =
            writer_of.emplace(std::make_pair(e.obj, e.arg), e.tx);
        if (!inserted && it->second != e.tx) {
          throw std::invalid_argument("phenomena: writes must be value-unique");
        }
      } else if (e.kind == EventKind::kCommit) {
        commit_pos[e.tx] = i;
      } else if (e.kind == EventKind::kTryCommit) {
        tryc_pos[e.tx] = i;
      }
    }
  }
};

bool is_register(const History& h, ObjId obj) {
  return h.model().contains(obj) && h.model().spec(obj).name() == "register";
}

}  // namespace

std::optional<DirtyRead> find_dirty_read(const History& h) {
  const WriterTable table(h);
  std::map<std::pair<TxId, ObjId>, Value> own_write;

  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind == EventKind::kInvoke && e.op == OpCode::kWrite) {
      own_write[{e.tx, e.obj}] = e.arg;
      continue;
    }
    if (e.kind != EventKind::kResponse || e.op != OpCode::kRead ||
        !is_register(h, e.obj)) {
      continue;
    }
    const auto own = own_write.find({e.tx, e.obj});
    if (own != own_write.end() && own->second == e.ret) continue;  // local

    const auto w = table.writer_of.find({e.obj, e.ret});
    if (w == table.writer_of.end() || w->second == e.tx) continue;  // initial
    const TxId writer = w->second;

    const auto c = table.commit_pos.find(writer);
    if (c != table.commit_pos.end() && c->second < i) continue;  // clean

    DirtyRead dirty;
    dirty.reader = e.tx;
    dirty.writer = writer;
    dirty.obj = e.obj;
    dirty.value = e.ret;
    dirty.read_pos = i;
    const auto t = table.tryc_pos.find(writer);
    dirty.writer_commit_pending = t != table.tryc_pos.end() && t->second < i;
    return dirty;
  }
  return std::nullopt;
}

std::optional<InconsistentSnapshot> find_inconsistent_snapshot(const History& h) {
  const WriterTable table(h);
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  // For each register: committed writes sorted by commit position. A version
  // written by W is "current" from commit(W) until the next committed write
  // to the same register commits. Initial values are current from position
  // 0 (exclusive lower bound handled by using 0) until the first committed
  // write to that register.
  std::map<ObjId, std::vector<std::pair<std::size_t, TxId>>> commits_per_reg;
  for (const auto& [key, writer] : table.writer_of) {
    const auto c = table.commit_pos.find(writer);
    if (c != table.commit_pos.end())
      commits_per_reg[key.first].emplace_back(c->second, writer);
  }
  for (auto& [obj, v] : commits_per_reg) std::sort(v.begin(), v.end());

  // Validity interval [from, to) of a (register, value) version.
  auto interval = [&](ObjId obj, TxId writer) -> std::pair<std::size_t, std::size_t> {
    const auto& commits = commits_per_reg[obj];
    if (writer == kNoTx) {  // initial value
      const std::size_t to = commits.empty() ? kNever : commits.front().first;
      return {0, to};
    }
    const auto c = table.commit_pos.find(writer);
    if (c == table.commit_pos.end()) {
      // A commit-pending writer may yet commit (H4's situation): its version
      // becomes current after everything committed so far. Aborted or plain
      // live writers produce versions that are never current.
      if (h.is_commit_pending(writer)) return {h.size(), kNever};
      return {kNever, kNever};
    }
    const auto it = std::upper_bound(
        commits.begin(), commits.end(),
        std::make_pair(c->second, std::numeric_limits<TxId>::max()));
    return {c->second, it == commits.end() ? kNever : it->first};
  };

  // Per transaction: intersect the validity intervals of everything it read.
  struct SeenRead {
    ObjId obj;
    Value value;
    std::size_t from, to;
  };
  std::map<TxId, std::vector<SeenRead>> seen;
  std::map<std::pair<TxId, ObjId>, bool> wrote;  // local-read suppression

  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (e.kind == EventKind::kInvoke && e.op == OpCode::kWrite) {
      wrote[{e.tx, e.obj}] = true;
      continue;
    }
    if (e.kind != EventKind::kResponse || e.op != OpCode::kRead ||
        !is_register(h, e.obj)) {
      continue;
    }
    if (wrote.count({e.tx, e.obj})) continue;  // local read

    const auto w = table.writer_of.find({e.obj, e.ret});
    const TxId writer =
        (w == table.writer_of.end() || w->second == e.tx) ? kNoTx : w->second;
    const auto [from, to] = interval(e.obj, writer);

    if (from == kNever && writer != kNoTx) {
      // The observed version was never committed at all: no committed-prefix
      // state ever contained it.
      InconsistentSnapshot out;
      out.tx = e.tx;
      out.obj_a = out.obj_b = e.obj;
      out.value_a = out.value_b = e.ret;
      out.explanation = tx_tag(e.tx) + " read x" +
                        std::to_string(e.obj) + "=" + std::to_string(e.ret) +
                        " from a transaction that never committed";
      return out;
    }

    auto& reads = seen[e.tx];
    for (const SeenRead& prev : reads) {
      // Two reads are compatible iff their validity intervals intersect.
      const std::size_t lo = std::max(prev.from, from);
      const std::size_t hi = std::min(prev.to, to);
      if (lo >= hi) {
        InconsistentSnapshot out;
        out.tx = e.tx;
        out.obj_a = prev.obj;
        out.value_a = prev.value;
        out.obj_b = e.obj;
        out.value_b = e.ret;
        out.explanation =
            tx_tag(e.tx) + " read x" + std::to_string(prev.obj) +
            "=" + std::to_string(prev.value) + " and x" + std::to_string(e.obj) +
            "=" + std::to_string(e.ret) +
            ", versions never simultaneously current";
        return out;
      }
    }
    reads.push_back({e.obj, e.ret, from, to});
  }
  return std::nullopt;
}

std::optional<WriteSkew> find_write_skew(const History& h) {
  const WriterTable table(h);

  // Per committed transaction: registers written, and non-local reads with
  // the transaction that wrote the observed value (kNoTx = initial value).
  struct ReadObs {
    ObjId obj;
    TxId from;
  };
  struct TxFacts {
    std::vector<ObjId> writes;
    std::vector<ReadObs> reads;
  };
  std::map<TxId, TxFacts> facts;
  std::map<std::pair<TxId, ObjId>, bool> wrote;

  for (std::size_t i = 0; i < h.size(); ++i) {
    const Event& e = h[i];
    if (!is_register(h, e.obj)) continue;
    if (e.kind == EventKind::kInvoke && e.op == OpCode::kWrite) {
      wrote[{e.tx, e.obj}] = true;
      continue;
    }
    if (e.kind != EventKind::kResponse) continue;
    if (e.op == OpCode::kWrite) {
      facts[e.tx].writes.push_back(e.obj);
    } else if (e.op == OpCode::kRead && !wrote.count({e.tx, e.obj})) {
      const auto w = table.writer_of.find({e.obj, e.ret});
      const TxId from =
          (w == table.writer_of.end() || w->second == e.tx) ? kNoTx : w->second;
      facts[e.tx].reads.push_back({e.obj, from});
    }
  }

  const auto writes_obj = [](const TxFacts& f, ObjId obj) {
    return std::find(f.writes.begin(), f.writes.end(), obj) != f.writes.end();
  };
  // Did `reader` observe the PRE-state of an object `other` wrote? (A read
  // of obj whose observed version came from neither `other` nor `reader`.)
  const auto missed_update = [&](const TxFacts& reader, const TxFacts& other,
                                 TxId other_id) -> std::optional<ObjId> {
    for (const ReadObs& r : reader.reads) {
      if (writes_obj(other, r.obj) && r.from != other_id) return r.obj;
    }
    return std::nullopt;
  };

  for (auto a = facts.begin(); a != facts.end(); ++a) {
    if (!h.is_committed(a->first)) continue;
    for (auto b = std::next(a); b != facts.end(); ++b) {
      if (!h.is_committed(b->first)) continue;
      if (!h.concurrent(a->first, b->first)) continue;
      // Disjoint write sets — otherwise first-committer-wins style checks
      // would have caught the conflict (that is the lost-update shape).
      bool overlap = false;
      for (const ObjId obj : a->second.writes) {
        if (writes_obj(b->second, obj)) {
          overlap = true;
          break;
        }
      }
      if (overlap) continue;
      const auto ra = missed_update(a->second, b->second, b->first);
      if (!ra) continue;
      const auto rb = missed_update(b->second, a->second, a->first);
      if (!rb) continue;
      WriteSkew skew;
      skew.tx_a = a->first;
      skew.tx_b = b->first;
      skew.read_by_a_written_by_b = *ra;
      skew.read_by_b_written_by_a = *rb;
      skew.explanation =
          "committed T" + std::to_string(a->first) + " and T" +
          std::to_string(b->first) + " are concurrent, wrote disjoint sets, " +
          "and each read the pre-state of an object the other wrote (x" +
          std::to_string(*ra) + ", x" + std::to_string(*rb) + ")";
      return skew;
    }
  }
  return std::nullopt;
}

}  // namespace optm::core
