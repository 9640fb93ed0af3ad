#include "core/one_copy.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace optm::core {

namespace {

/// Committed-transaction multiversion digest. Vertex 0 is the initializer.
struct MvView {
  struct Node {
    TxId id;
    std::vector<std::pair<ObjId, std::size_t>> reads;  // (register, writer vertex)
    std::set<ObjId> writes;
  };
  std::vector<Node> nodes;

  explicit MvView(const History& h) {
    const History nl = h.nonlocal();
    const auto& model = nl.model();

    nodes.push_back(Node{kInitTx, {}, {}});
    std::map<TxId, std::size_t> vertex_of{{kInitTx, 0}};
    for (TxId tx : nl.transactions()) {
      if (tx == kInitTx || !nl.is_committed(tx)) continue;
      vertex_of[tx] = nodes.size();
      nodes.push_back(Node{tx, {}, {}});
    }

    std::map<std::pair<ObjId, Value>, std::size_t> writer_of;
    for (ObjId r = 0; r < model.size(); ++r) {
      const auto* reg = dynamic_cast<const RegisterSpec*>(&model.spec(r));
      if (reg == nullptr) {
        throw std::invalid_argument("1-copy SR: register histories only");
      }
      writer_of[{r, reg->initial_value()}] = 0;
    }

    struct PendingRead {
      std::size_t v;
      ObjId obj;
      Value value;
    };
    std::vector<PendingRead> reads;
    for (const Event& e : nl.events()) {
      const auto it = vertex_of.find(e.tx);
      if (it == vertex_of.end()) continue;  // aborted/live: out of scope
      if (e.kind == EventKind::kInvoke && e.op == OpCode::kWrite) {
        const auto [w, inserted] = writer_of.emplace(
            std::make_pair(e.obj, e.arg), it->second);
        if (!inserted && w->second != it->second) {
          throw std::invalid_argument("1-copy SR: writes must be value-unique");
        }
        nodes[it->second].writes.insert(e.obj);
      } else if (e.kind == EventKind::kResponse && e.op == OpCode::kRead) {
        reads.push_back({it->second, e.obj, e.ret});
      }
    }
    for (const auto& rd : reads) {
      const auto w = writer_of.find({rd.obj, rd.value});
      if (w == writer_of.end()) {
        // The read observed a value no committed transaction wrote (an
        // aborted or live writer) — there is no one-copy serial equivalent.
        nodes[rd.v].reads.emplace_back(rd.obj, kMissingWriter);
      } else {
        nodes[rd.v].reads.emplace_back(rd.obj, w->second);
      }
    }
  }

  static constexpr std::size_t kMissingWriter = static_cast<std::size_t>(-1);
};

/// MVSG acyclicity under the version order induced by `rank`.
bool mvsg_acyclic(const MvView& view, const std::vector<std::size_t>& rank,
                  std::string* why) {
  const std::size_t n = view.nodes.size();
  std::vector<std::vector<bool>> edge(n, std::vector<bool>(n, false));

  for (std::size_t m = 0; m < n; ++m) {
    for (const auto& [obj, k] : view.nodes[m].reads) {
      if (k == MvView::kMissingWriter) {
        if (why != nullptr) {
          *why = tx_tag(view.nodes[m].id) +
                 " reads a value not written by any committed transaction";
        }
        return false;
      }
      if (k != m) edge[k][m] = true;  // reads-from
      // For every other committed writer Ti of obj: version-order edge.
      for (std::size_t i = 0; i < n; ++i) {
        if (i == k || i == m || !view.nodes[i].writes.count(obj)) continue;
        if (rank[i] < rank[k]) {
          edge[i][k] = true;  // Ti's version is older than Tk's
        } else {
          edge[m][i] = true;  // the read must precede Ti's newer version
        }
      }
    }
  }

  // DFS cycle detection.
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  auto dfs = [&](auto&& self, std::size_t v) -> bool {
    color[v] = kGrey;
    for (std::size_t w = 0; w < n; ++w) {
      if (!edge[v][w]) continue;
      if (color[w] == kGrey) return false;
      if (color[w] == kWhite && !self(self, w)) return false;
    }
    color[v] = kBlack;
    return true;
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (color[v] == kWhite && !dfs(dfs, v)) {
      if (why != nullptr) *why = "MVSG is cyclic under the given version order";
      return false;
    }
  }
  return true;
}

}  // namespace

OneCopyResult check_one_copy_serializability(const History& h,
                                             std::size_t max_txs) {
  OneCopyResult result;
  const MvView view(h);
  const std::size_t n = view.nodes.size();
  if (n - 1 > max_txs) {
    result.verdict = Verdict::kUnknown;
    result.reason = "too many committed transactions for exhaustive search";
    return result;
  }

  std::vector<std::size_t> perm(n - 1);
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i + 1;

  std::vector<std::size_t> rank(n, 0);
  do {
    for (std::size_t r = 0; r < perm.size(); ++r) rank[perm[r]] = r + 1;
    ++result.orders_examined;
    if (mvsg_acyclic(view, rank, nullptr)) {
      result.verdict = Verdict::kYes;
      std::vector<TxId> order;
      for (std::size_t v : perm) order.push_back(view.nodes[v].id);
      result.order = std::move(order);
      return result;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  result.verdict = Verdict::kNo;
  result.reason = "no version order yields an acyclic MVSG (" +
                  std::to_string(result.orders_examined) + " orders examined)";
  return result;
}

bool verify_one_copy_certificate(const History& h, const std::vector<TxId>& order,
                                 std::string* why) {
  const MvView view(h);
  const std::size_t n = view.nodes.size();
  std::vector<std::size_t> rank(n, static_cast<std::size_t>(-2));
  rank[0] = 0;
  std::size_t next = 1;
  for (TxId id : order) {
    if (id == kInitTx) continue;
    bool found = false;
    for (std::size_t v = 1; v < n; ++v) {
      if (view.nodes[v].id == id) {
        rank[v] = next++;
        found = true;
        break;
      }
    }
    if (!found) continue;  // order may cover non-committed transactions too
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (rank[v] == static_cast<std::size_t>(-2)) {
      if (why != nullptr) {
        *why = "version order misses committed transaction T" +
               std::to_string(view.nodes[v].id);
      }
      return false;
    }
  }
  return mvsg_acyclic(view, rank, why);
}

}  // namespace optm::core
