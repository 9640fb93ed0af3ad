#include "core/opacity_graph.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace optm::core {

namespace {

constexpr std::size_t kInitVertex = 0;

/// Digest of a register history in nonlocal form: per transaction, the
/// non-local reads with their resolved writers, and the non-local writes.
class RegisterHistoryView {
 public:
  struct Read {
    ObjId obj;
    Value value;
    std::size_t writer;  // vertex index (kInitVertex for initial values)
  };
  struct TxNode {
    TxId id{kNoTx};
    TxStatus status{TxStatus::kLive};
    std::vector<Read> reads;
    std::vector<std::pair<ObjId, Value>> writes;
    std::size_t first_pos{0};
    std::size_t last_pos{0};
    bool completed{false};
  };

  explicit RegisterHistoryView(const History& h) : nonlocal_(h.nonlocal()) {
    const auto& model = nonlocal_.model();

    // Real-time positions come from the FULL history: dropping local
    // operations moves a transaction's first/last events inward, which
    // would CREATE ≺ orderings that do not exist in ≺_H (e.g. a
    // transaction whose early writes are all local would appear to start
    // only at its first non-local read). Definition 1's real-time order is
    // ≺_H, so Lrt edges and the certificate's real-time check must use
    // full positions; reads, writes and labels still come from
    // nonlocal(H) per §5.4.
    std::map<TxId, std::pair<std::size_t, std::size_t>> full_span;
    for (std::size_t i = 0; i < h.size(); ++i) {
      const auto [it, inserted] =
          full_span.emplace(h[i].tx, std::make_pair(i, i));
      if (!inserted) it->second.second = i;
    }

    // Vertex 0 is the initializer: the explicit transaction kInitTx if the
    // history has one, else a synthetic committed transaction.
    const auto tx_ids = nonlocal_.transactions();
    const bool explicit_init =
        std::find(tx_ids.begin(), tx_ids.end(), kInitTx) != tx_ids.end();
    synthetic_init_ = !explicit_init;

    TxNode init;
    init.id = kInitTx;
    init.status = TxStatus::kCommitted;
    init.completed = true;
    txs_.push_back(init);

    std::map<TxId, std::size_t> vertex_of;
    vertex_of[kInitTx] = kInitVertex;
    for (TxId id : tx_ids) {
      if (id == kInitTx) continue;
      vertex_of[id] = txs_.size();
      TxNode node;
      node.id = id;
      node.status = nonlocal_.status(id);
      node.completed = node.status == TxStatus::kCommitted ||
                       node.status == TxStatus::kAborted;
      txs_.push_back(node);
    }

    // Writers: (register, value) -> vertex, value-unique per §5.4. The
    // initializer writes the initial value of every register (overridable:
    // an explicit write of the initial value takes precedence would violate
    // uniqueness, so it is rejected).
    std::map<std::pair<ObjId, Value>, std::size_t> writer_of;
    for (ObjId r = 0; r < model.size(); ++r) {
      const auto* reg = dynamic_cast<const RegisterSpec*>(&model.spec(r));
      if (reg == nullptr) {
        throw std::invalid_argument(
            "opacity graph: §5.4 applies to register histories only");
      }
      writer_of[{r, reg->initial_value()}] = kInitVertex;
    }

    for (const auto& [tx, span] : full_span) {
      const auto at = vertex_of.find(tx);
      if (at == vertex_of.end()) continue;  // no retained events
      txs_[at->second].first_pos = span.first;
      txs_[at->second].last_pos = span.second;
    }

    std::map<TxId, Event> pending;
    for (std::size_t i = 0; i < nonlocal_.size(); ++i) {
      const Event& e = nonlocal_[i];
      const std::size_t v = vertex_of.at(e.tx);
      TxNode& node = txs_[v];
      switch (e.kind) {
        case EventKind::kInvoke:
          if (e.op == OpCode::kWrite) {
            const auto key = std::make_pair(e.obj, e.arg);
            const auto [it, inserted] = writer_of.emplace(key, v);
            if (!inserted && it->second != v) {
              throw std::invalid_argument(
                  "opacity graph: two writers of value " + std::to_string(e.arg) +
                  " to register x" + std::to_string(e.obj) +
                  " (value-unique writes required)");
            }
            node.writes.emplace_back(e.obj, e.arg);
          }
          pending[e.tx] = e;
          break;
        case EventKind::kResponse:
          if (e.op == OpCode::kRead) {
            reads_to_resolve_.push_back({v, e.obj, e.ret});
          }
          pending.erase(e.tx);
          break;
        default:
          break;
      }
    }

    // Resolve reads-from now that every writer is known.
    for (const auto& [v, obj, value] : reads_to_resolve_) {
      const auto it = writer_of.find({obj, value});
      if (it == writer_of.end()) {
        consistent_ = false;
        continue;  // detected by History::consistent as well
      }
      txs_[v].reads.push_back(Read{obj, value, it->second});
    }
  }

  [[nodiscard]] const History& nonlocal() const noexcept { return nonlocal_; }
  [[nodiscard]] const std::vector<TxNode>& txs() const noexcept { return txs_; }
  [[nodiscard]] bool synthetic_init() const noexcept { return synthetic_init_; }
  [[nodiscard]] bool reads_resolvable() const noexcept { return consistent_; }

  [[nodiscard]] std::size_t vertex_of(TxId id) const {
    for (std::size_t v = 0; v < txs_.size(); ++v)
      if (txs_[v].id == id) return v;
    throw std::invalid_argument("opacity graph: unknown transaction T" +
                                std::to_string(id));
  }

  /// Real-time order between vertices, on nonlocal(H). The initializer
  /// precedes everything; a synthetic initializer has no other relations.
  [[nodiscard]] bool precedes(std::size_t i, std::size_t k) const noexcept {
    if (i == k) return false;
    if (i == kInitVertex) return true;
    if (k == kInitVertex) return false;
    return txs_[i].completed && txs_[i].last_pos < txs_[k].first_pos;
  }

 private:
  struct PendingRead {
    std::size_t v;
    ObjId obj;
    Value value;
  };

  History nonlocal_;
  std::vector<TxNode> txs_;
  std::vector<PendingRead> reads_to_resolve_;
  bool synthetic_init_ = true;
  bool consistent_ = true;
};

/// Build the graph given a rank function over vertices (rank[init] must be
/// minimal) and visibility flags.
OpacityGraph build_from_view(const RegisterHistoryView& view,
                             const std::vector<std::size_t>& rank,
                             const std::vector<bool>& vis) {
  const auto& txs = view.txs();
  const std::size_t n = txs.size();

  OpacityGraph g;
  g.has_synthetic_init = view.synthetic_init();
  g.vertex_tx.resize(n);
  g.vis = vis;
  g.label.assign(n, std::vector<std::uint8_t>(n, 0));
  for (std::size_t v = 0; v < n; ++v) g.vertex_tx[v] = txs[v].id;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      if (i == k) continue;
      // Rule 1: real-time order.
      if (view.precedes(i, k)) g.label[i][k] |= kLrt;
      // Rule 3: Ti ≪ Tk, Ti reads a register written by Tk.
      if (rank[i] < rank[k]) {
        for (const auto& rd : txs[i].reads) {
          const bool k_writes = std::any_of(
              txs[k].writes.begin(), txs[k].writes.end(),
              [&rd](const auto& w) { return w.first == rd.obj; });
          if (k_writes) {
            g.label[i][k] |= kLrw;
            break;
          }
        }
      }
    }
    // Rule 2: Tk reads from Ti -> edge (Ti, Tk).
    for (const auto& rd : txs[i].reads) {
      if (rd.writer != i) g.label[rd.writer][i] |= kLrf;
    }
  }

  // Rule 4: Ti visible, Ti ≪ Tm, Ti writes r, Tm reads r from Tk
  //         -> edge (Ti, Tk).
  for (std::size_t m = 0; m < n; ++m) {
    for (const auto& rd : txs[m].reads) {
      const std::size_t k = rd.writer;
      for (std::size_t i = 0; i < n; ++i) {
        if (i == k || i == m || !vis[i] || rank[i] >= rank[m]) continue;
        const bool i_writes = std::any_of(
            txs[i].writes.begin(), txs[i].writes.end(),
            [&rd](const auto& w) { return w.first == rd.obj; });
        if (i_writes) g.label[i][k] |= kLww;
      }
    }
  }
  return g;
}

std::vector<bool> visibility(const RegisterHistoryView& view,
                             const std::vector<TxId>& v_set) {
  const auto& txs = view.txs();
  std::vector<bool> vis(txs.size(), false);
  for (std::size_t i = 0; i < txs.size(); ++i)
    vis[i] = txs[i].status == TxStatus::kCommitted;
  vis[kInitVertex] = true;
  for (TxId id : v_set) {
    const std::size_t v = view.vertex_of(id);
    if (view.txs()[v].status != TxStatus::kCommitPending) {
      throw std::invalid_argument(
          "opacity graph: V must contain only commit-pending transactions");
    }
    vis[v] = true;
  }
  return vis;
}

/// Ranks from a caller-supplied ≪ (initializer forced first).
std::vector<std::size_t> ranks_from_order(const RegisterHistoryView& view,
                                          const std::vector<TxId>& order) {
  const std::size_t n = view.txs().size();
  std::vector<std::size_t> rank(n, std::numeric_limits<std::size_t>::max());
  rank[kInitVertex] = 0;
  std::size_t next = 1;
  for (TxId id : order) {
    if (id == kInitTx) continue;  // always first
    const std::size_t v = view.vertex_of(id);
    if (rank[v] != std::numeric_limits<std::size_t>::max()) {
      throw std::invalid_argument("opacity graph: duplicate transaction in ≪");
    }
    rank[v] = next++;
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (rank[v] == std::numeric_limits<std::size_t>::max()) {
      throw std::invalid_argument("opacity graph: ≪ misses transaction T" +
                                  std::to_string(view.txs()[v].id));
    }
  }
  return rank;
}

}  // namespace

std::string edge_labels_to_string(std::uint8_t mask) {
  std::string out;
  auto add = [&](const char* s) {
    if (!out.empty()) out += ",";
    out += s;
  };
  if (mask & kLrt) add("rt");
  if (mask & kLrf) add("rf");
  if (mask & kLrw) add("rw");
  if (mask & kLww) add("ww");
  return out;
}

bool OpacityGraph::well_formed(std::string* why) const {
  for (std::size_t i = 0; i < size(); ++i) {
    if (vis[i]) continue;
    for (std::size_t k = 0; k < size(); ++k) {
      if (label[i][k] & kLrf) {
        if (why != nullptr) {
          *why = "Lloc vertex T" + std::to_string(vertex_tx[i]) +
                 " has an Lrf out-edge to T" + std::to_string(vertex_tx[k]);
        }
        return false;
      }
    }
  }
  return true;
}

bool OpacityGraph::acyclic(std::vector<std::size_t>* cycle) const {
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> color(size(), kWhite);
  std::vector<std::size_t> stack;

  // Iterative DFS with an explicit stack of (vertex, next-neighbour).
  for (std::size_t root = 0; root < size(); ++root) {
    if (color[root] != kWhite) continue;
    std::vector<std::pair<std::size_t, std::size_t>> frames{{root, 0}};
    color[root] = kGrey;
    stack.push_back(root);
    while (!frames.empty()) {
      auto& [v, next] = frames.back();
      bool advanced = false;
      for (; next < size(); ++next) {
        if (label[v][next] == 0) continue;
        const std::size_t w = next;
        if (color[w] == kGrey) {
          if (cycle != nullptr) {
            const auto it = std::find(stack.begin(), stack.end(), w);
            cycle->assign(it, stack.end());
          }
          return false;
        }
        if (color[w] == kWhite) {
          color[w] = kGrey;
          stack.push_back(w);
          ++next;
          frames.emplace_back(w, 0);
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        color[v] = kBlack;
        stack.pop_back();
        frames.pop_back();
      }
    }
  }
  return true;
}

std::string OpacityGraph::dot() const {
  std::ostringstream os;
  os << "digraph OPG {\n  rankdir=LR;\n";
  for (std::size_t i = 0; i < size(); ++i) {
    os << "  n" << i << " [label=\"T" << vertex_tx[i]
       << (vis[i] ? " (vis)" : " (loc)") << "\""
       << (vis[i] ? "" : ", style=dashed") << "];\n";
  }
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t k = 0; k < size(); ++k) {
      if (label[i][k] == 0) continue;
      os << "  n" << i << " -> n" << k << " [label=\""
         << edge_labels_to_string(label[i][k]) << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

OpacityGraph build_opg(const History& h, const std::vector<TxId>& order,
                       const std::vector<TxId>& v) {
  const RegisterHistoryView view(h);
  if (!view.reads_resolvable()) {
    throw std::invalid_argument(
        "opacity graph: history is inconsistent (a read returns a value "
        "never written)");
  }
  return build_from_view(view, ranks_from_order(view, order),
                         visibility(view, v));
}

GraphCheckResult check_opacity_via_graph(const History& h, std::size_t max_txs) {
  GraphCheckResult result;

  std::string why;
  if (!h.consistent(&why)) {  // Theorem 2, condition (1)
    result.verdict = Verdict::kNo;
    result.reason = "not consistent: " + why;
    return result;
  }

  const RegisterHistoryView view(h);
  const auto& txs = view.txs();

  std::vector<TxId> others;     // vertices except the initializer
  std::vector<TxId> commit_pending;
  for (std::size_t i = 1; i < txs.size(); ++i) {
    others.push_back(txs[i].id);
    if (txs[i].status == TxStatus::kCommitPending)
      commit_pending.push_back(txs[i].id);
  }
  if (others.size() > max_txs) {
    result.verdict = Verdict::kUnknown;
    result.reason = "history too large for exhaustive (≪, V) search";
    return result;
  }

  std::sort(others.begin(), others.end());
  const std::uint64_t subsets = 1ULL << commit_pending.size();
  do {
    for (std::uint64_t mask = 0; mask < subsets; ++mask) {
      std::vector<TxId> v_set;
      for (std::size_t b = 0; b < commit_pending.size(); ++b) {
        if ((mask >> b) & 1) v_set.push_back(commit_pending[b]);
      }
      const OpacityGraph g = build_from_view(
          view, ranks_from_order(view, others), visibility(view, v_set));
      ++result.graphs_examined;
      if (g.well_formed() && g.acyclic()) {
        result.verdict = Verdict::kYes;
        result.order = others;
        result.v = v_set;
        return result;
      }
    }
  } while (std::next_permutation(others.begin(), others.end()));

  result.verdict = Verdict::kNo;
  result.reason = "no (≪, V) yields a well-formed acyclic OPG (" +
                  std::to_string(result.graphs_examined) + " graphs examined)";
  return result;
}

bool verify_opacity_certificate(const History& h, const std::vector<TxId>& order,
                                const std::vector<TxId>& v, std::string* why) {
  std::string inner;
  if (!h.consistent(&inner)) {
    if (why != nullptr) *why = "not consistent: " + inner;
    return false;
  }

  const RegisterHistoryView view(h);
  if (!view.reads_resolvable()) {
    if (why != nullptr) *why = "a read returns a value never written";
    return false;
  }
  const auto& txs = view.txs();
  const std::vector<std::size_t> rank = ranks_from_order(view, order);
  const std::vector<bool> vis = visibility(view, v);
  const std::size_t n = txs.size();

  // (a) + (b): every reads-from edge leaves a visible vertex and follows ≪.
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& rd : txs[k].reads) {
      if (!vis[rd.writer]) {
        if (why != nullptr) {
          *why = tx_tag(txs[k].id) + " reads x" +
                 std::to_string(rd.obj) + " from non-visible T" +
                 std::to_string(txs[rd.writer].id);
        }
        return false;
      }
      if (rank[rd.writer] >= rank[k]) {
        if (why != nullptr) {
          *why = "reads-from edge T" + std::to_string(txs[rd.writer].id) +
                 " -> T" + std::to_string(txs[k].id) + " contradicts ≪";
        }
        return false;
      }
    }
  }

  // (c) real-time alignment: Ti ≺ Tk (on nonlocal(H)) must imply
  // rank(Ti) < rank(Tk). Sweep in rank order, tracking the minimum first
  // position among higher-ranked transactions.
  // For each completed Ti, every Tk whose first event follows Ti's last
  // event must have rank(k) > rank(i). Equivalently: among transactions
  // ranked strictly before Ti, none may have a first event after Ti's last
  // event. One prefix-max sweep in rank order decides this in O(n).
  {
    std::vector<std::size_t> by_rank(n);
    for (std::size_t i = 0; i < n; ++i) by_rank[rank[i]] = i;
    std::vector<std::size_t> prefix_max_first(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t vtx = by_rank[r];
      prefix_max_first[r + 1] =
          std::max(prefix_max_first[r],
                   vtx == kInitVertex ? 0 : txs[vtx].first_pos);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i == kInitVertex || !txs[i].completed) continue;
      if (prefix_max_first[rank[i]] > txs[i].last_pos) {
        if (why != nullptr) {
          *why = "real-time order violated around T" + std::to_string(txs[i].id);
        }
        return false;
      }
    }
  }

  // (d) version alignment: for each read of r from Tk by Tm, no visible
  // writer of r may be ranked strictly between Tk and Tm.
  {
    std::map<ObjId, std::vector<std::size_t>> writer_ranks;  // sorted
    for (std::size_t i = 0; i < n; ++i) {
      if (!vis[i]) continue;
      for (const auto& w : txs[i].writes) writer_ranks[w.first].push_back(rank[i]);
    }
    // The initializer writes every register.
    for (auto& [obj, ranks] : writer_ranks) {
      ranks.push_back(rank[kInitVertex]);
      std::sort(ranks.begin(), ranks.end());
    }
    for (std::size_t m = 0; m < n; ++m) {
      for (const auto& rd : txs[m].reads) {
        const auto it = writer_ranks.find(rd.obj);
        if (it == writer_ranks.end()) continue;
        const auto& ranks = it->second;
        auto lo = std::upper_bound(ranks.begin(), ranks.end(), rank[rd.writer]);
        if (lo != ranks.end() && *lo < rank[m]) {
          if (why != nullptr) {
            *why = tx_tag(txs[m].id) + " reads x" +
                   std::to_string(rd.obj) + " from T" +
                   std::to_string(txs[rd.writer].id) +
                   " but a visible writer is ranked in between";
          }
          return false;
        }
      }
    }
  }

  return true;
}

}  // namespace optm::core
