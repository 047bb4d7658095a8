#include "cfg/cfg.h"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.h"

namespace cash {

const char*
opName(Op op)
{
    switch (op) {
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::DivS: return "divs";
      case Op::DivU: return "divu";
      case Op::RemS: return "rems";
      case Op::RemU: return "remu";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Shl: return "shl";
      case Op::ShrS: return "shrs";
      case Op::ShrU: return "shru";
      case Op::LtS: return "lts";
      case Op::LtU: return "ltu";
      case Op::LeS: return "les";
      case Op::LeU: return "leu";
      case Op::Eq: return "eq";
      case Op::Ne: return "ne";
      case Op::Neg: return "neg";
      case Op::NotBool: return "not";
      case Op::BitNot: return "bnot";
      case Op::SextB: return "sextb";
      case Op::ZextB: return "zextb";
      case Op::Copy: return "copy";
    }
    return "?";
}

bool
opIsUnary(Op op)
{
    switch (op) {
      case Op::Neg:
      case Op::NotBool:
      case Op::BitNot:
      case Op::SextB:
      case Op::ZextB:
        return true;
      default:
        return false;
    }
}

bool
opIsCompare(Op op)
{
    switch (op) {
      case Op::LtS: case Op::LtU: case Op::LeS: case Op::LeU:
      case Op::Eq: case Op::Ne:
        return true;
      default:
        return false;
    }
}

std::string
Operand::str() const
{
    switch (kind) {
      case Kind::None: return "_";
      case Kind::Reg: return std::string("r").append(std::to_string(reg));
      case Kind::Const: return std::to_string(cval);
    }
    return "?";
}

std::string
Instr::str() const
{
    std::ostringstream os;
    switch (kind) {
      case InstrKind::Bin:
        os << "r" << dst << " = " << opName(op) << " " << a.str() << ", "
           << b.str();
        break;
      case InstrKind::Un:
        os << "r" << dst << " = " << opName(op) << " " << a.str();
        break;
      case InstrKind::Copy:
        os << "r" << dst << " = " << a.str();
        break;
      case InstrKind::Load:
        os << "r" << dst << " = load" << size << " [" << addr.str() << "]"
           << " rw" << rwSet.str();
        break;
      case InstrKind::Store:
        os << "store" << size << " [" << addr.str() << "] = "
           << value.str() << " rw" << rwSet.str();
        break;
      case InstrKind::Call: {
        if (dst >= 0)
            os << "r" << dst << " = ";
        os << "call " << (callee ? callee->name : "?") << "(";
        for (size_t i = 0; i < args.size(); i++) {
            if (i)
                os << ", ";
            os << args[i].str();
        }
        os << ")";
        break;
      }
    }
    return os.str();
}

std::string
Terminator::str() const
{
    switch (kind) {
      case Kind::None: return "<none>";
      case Kind::Jump: return "jump B" + std::to_string(target0);
      case Kind::CondBranch:
        return "br " + cond.str() + " ? B" + std::to_string(target0) +
               " : B" + std::to_string(target1);
      case Kind::Return:
        return "return " + (retValue.isNone() ? "" : retValue.str());
    }
    return "?";
}

void
CfgFunction::computeEdges()
{
    for (auto& b : blocks) {
        b->succs.clear();
        b->preds.clear();
    }
    for (auto& b : blocks) {
        switch (b->term.kind) {
          case Terminator::Kind::Jump:
            b->succs.push_back(b->term.target0);
            break;
          case Terminator::Kind::CondBranch:
            b->succs.push_back(b->term.target0);
            if (b->term.target1 != b->term.target0)
                b->succs.push_back(b->term.target1);
            break;
          default:
            break;
        }
    }
    for (auto& b : blocks)
        for (int s : b->succs)
            blocks.at(s)->preds.push_back(b->id);
}

std::vector<int>
CfgFunction::reversePostorder() const
{
    std::vector<int> order;
    std::vector<char> state(blocks.size(), 0);  // 0=unseen 1=open 2=done
    // Iterative postorder DFS.
    std::vector<std::pair<int, size_t>> stack;
    stack.push_back({entry, 0});
    state[entry] = 1;
    while (!stack.empty()) {
        auto& [id, next] = stack.back();
        const BasicBlock* b = block(id);
        if (next < b->succs.size()) {
            int s = b->succs[next++];
            if (!state[s]) {
                state[s] = 1;
                stack.push_back({s, 0});
            }
        } else {
            state[id] = 2;
            order.push_back(id);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

void
CfgFunction::pruneUnreachable()
{
    computeEdges();
    std::vector<int> rpo = reversePostorder();
    std::vector<bool> reach(blocks.size(), false);
    for (int id : rpo)
        reach[id] = true;
    bool any = false;
    for (auto& b : blocks) {
        if (!reach[b->id]) {
            // Neutralize: clear contents and detach edges.
            b->instrs.clear();
            b->term = Terminator{};
            any = true;
        }
    }
    if (any)
        computeEdges();
}

std::string
CfgFunction::str() const
{
    std::ostringstream os;
    os << "function " << (decl ? decl->name : "?") << " (" << numParams
       << " params, " << numRegs << " regs)\n";
    for (const auto& b : blocks) {
        os << "B" << b->id << ":";
        if (!b->preds.empty()) {
            os << "  ; preds:";
            for (int p : b->preds)
                os << " B" << p;
        }
        os << "\n";
        for (const Instr& i : b->instrs)
            os << "    " << i.str() << "\n";
        os << "    " << b->term.str() << "\n";
    }
    return os.str();
}

CfgFunction*
CfgProgram::find(const std::string& name) const
{
    for (const auto& f : functions)
        if (f->decl && f->decl->name == name)
            return f.get();
    return nullptr;
}

} // namespace cash
