#include "pegasus/node.h"

#include <sstream>

namespace cash {

const char*
vtName(VT vt)
{
    switch (vt) {
      case VT::Word: return "word";
      case VT::Pred: return "pred";
      case VT::Token: return "token";
    }
    return "?";
}

const char*
nodeKindName(NodeKind k)
{
    switch (k) {
      case NodeKind::Const: return "const";
      case NodeKind::Param: return "param";
      case NodeKind::Arith: return "arith";
      case NodeKind::Mux: return "mux";
      case NodeKind::Merge: return "merge";
      case NodeKind::Eta: return "eta";
      case NodeKind::Combine: return "combine";
      case NodeKind::InitialToken: return "init-token";
      case NodeKind::Load: return "load";
      case NodeKind::Store: return "store";
      case NodeKind::Call: return "call";
      case NodeKind::Return: return "return";
      case NodeKind::TokenGen: return "tokengen";
    }
    return "?";
}

int
Node::numOutputs() const
{
    switch (kind) {
      case NodeKind::Load:
      case NodeKind::Call:
        return 2;
      case NodeKind::Return:
        return 0;
      default:
        return 1;
    }
}

VT
Node::outputType(int port) const
{
    switch (kind) {
      case NodeKind::Load:
      case NodeKind::Call:
        return port == 0 ? VT::Word : VT::Token;
      case NodeKind::Store:
      case NodeKind::Combine:
      case NodeKind::InitialToken:
      case NodeKind::TokenGen:
        return VT::Token;
      default:
        return type;
    }
}

int
Node::tokenOutPort() const
{
    switch (kind) {
      case NodeKind::Load:
      case NodeKind::Call:
        return 1;
      case NodeKind::Store:
      case NodeKind::Combine:
      case NodeKind::InitialToken:
      case NodeKind::TokenGen:
        return 0;
      case NodeKind::Merge:
      case NodeKind::Eta:
      case NodeKind::Mux:
        return type == VT::Token ? 0 : -1;
      default:
        return -1;
    }
}

int
Node::tokenInIndex() const
{
    switch (kind) {
      case NodeKind::Load:
      case NodeKind::Store:
      case NodeKind::Call:
      case NodeKind::Return:
      case NodeKind::TokenGen:
        return 1;
      default:
        return -1;
    }
}

int
Node::predInIndex() const
{
    switch (kind) {
      case NodeKind::Load:
      case NodeKind::Store:
      case NodeKind::Call:
      case NodeKind::Return:
      case NodeKind::TokenGen:
        return 0;
      case NodeKind::Eta:
        return 1;
      default:
        return -1;
    }
}

std::string
Node::str() const
{
    std::ostringstream os;
    os << "n" << id << ":" << nodeKindName(kind);
    if (kind == NodeKind::Arith)
        os << "." << opName(op);
    if (kind == NodeKind::Const)
        os << "(" << constValue << ")";
    if (kind == NodeKind::Param)
        os << "(#" << paramIndex << ")";
    if (kind == NodeKind::TokenGen)
        os << "(" << tkCount << ")";
    if (kind == NodeKind::Call && callee)
        os << "(" << callee->name << ")";
    if (isMemoryAccess())
        os << size << " rw" << rwSet.str() << " part" << partition;
    os << " @hb" << hyperblock;
    os << " [";
    for (int i = 0; i < numInputs(); i++) {
        if (i)
            os << ", ";
        const PortRef& in = inputs_[i];
        if (!in.valid()) {
            os << "?";
        } else {
            os << "n" << in.node->id;
            if (in.port)
                os << "." << in.port;
            if (inputIsBackEdge(i))
                os << "^";
        }
    }
    os << "]";
    return os.str();
}

} // namespace cash
