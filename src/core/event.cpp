#include "core/event.hpp"

#include <sstream>

namespace optm::core {

std::string tx_tag(TxId tx) {
  // Appended rather than "T" + std::to_string(tx): gcc 12's -Wrestrict
  // misreads the inlined prepend as an overlapping memcpy.
  std::string tag(1, 'T');
  tag += std::to_string(tx);
  return tag;
}

std::string to_string(const Event& e) {
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kInvoke:
      os << "inv" << e.tx << "(x" << e.obj << ", " << to_string(e.op);
      if (e.op != OpCode::kRead && e.op != OpCode::kDeq && e.op != OpCode::kPop &&
          e.op != OpCode::kGet && e.op != OpCode::kInc && e.op != OpCode::kDec) {
        os << ", " << e.arg;
      }
      os << ")";
      break;
    case EventKind::kResponse:
      os << "ret" << e.tx << "(x" << e.obj << ", " << to_string(e.op) << " -> "
         << e.ret << ")";
      break;
    case EventKind::kTryCommit:
      os << "tryC" << e.tx;
      break;
    case EventKind::kCommit:
      os << "C" << e.tx;
      break;
    case EventKind::kTryAbort:
      os << "tryA" << e.tx;
      break;
    case EventKind::kAbort:
      os << "A" << e.tx;
      break;
  }
  return os.str();
}

}  // namespace optm::core
