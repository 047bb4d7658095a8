#include "baseline/interpreter.h"

#include "support/diagnostics.h"

namespace cash {

namespace {

/** Pointer element stride for p+i arithmetic. */
int64_t
pointeeSize(const TypePtr& t)
{
    TypePtr p = t;
    if (p->isArray())
        return p->element->sizeBytes();
    CASH_ASSERT(p->isPointer(), "pointer arithmetic on non-pointer");
    if (p->element->isArray())
        return p->element->sizeBytes();
    return p->element->sizeBytes();
}

bool
typeIsSigned(const TypePtr& t)
{
    return !t->isUnsignedInt() && !t->isPointer();
}

} // namespace

Interpreter::Interpreter(const Program& program, const MemoryLayout& layout)
    : prog_(program), layout_(layout)
{
    reset();
}

void
Interpreter::reset()
{
    mem_.assign(MemoryLayout::kMemorySize, 0);
    const std::vector<uint8_t>& img = layout_.globalImage();
    std::copy(img.begin(), img.end(),
              mem_.begin() + MemoryLayout::kGlobalBase);
    stackPtr_ = MemoryLayout::kStackTop;
    steps_ = loads_ = stores_ = 0;
    callDepth_ = 0;
}

void
Interpreter::step()
{
    if (++steps_ > stepLimit_)
        fatal("interpreter step limit exceeded (infinite loop?)");
}

uint32_t
Interpreter::loadWord(uint32_t addr) const
{
    CASH_ASSERT(MemoryLayout::inBounds(addr, 4), "loadWord out of range");
    return static_cast<uint32_t>(mem_[addr]) |
           (static_cast<uint32_t>(mem_[addr + 1]) << 8) |
           (static_cast<uint32_t>(mem_[addr + 2]) << 16) |
           (static_cast<uint32_t>(mem_[addr + 3]) << 24);
}

void
Interpreter::storeWord(uint32_t addr, uint32_t value)
{
    storeMem(addr, value, 4);
    stores_--;  // test helper: don't count as program activity
}

uint32_t
Interpreter::globalAddress(const std::string& name) const
{
    int id = layout_.findGlobal(name);
    if (id < 0)
        fatal("no such global: " + name);
    return layout_.object(id).address;
}

uint32_t
Interpreter::loadMem(uint32_t addr, int size, bool isSigned)
{
    if (addr == 0 || !MemoryLayout::inBounds(addr, size))
        fatal("load from invalid address " + std::to_string(addr));
    loads_++;
    uint32_t v = 0;
    for (int i = 0; i < size; i++)
        v |= static_cast<uint32_t>(mem_[addr + i]) << (8 * i);
    if (size == 1 && isSigned)
        v = static_cast<uint32_t>(static_cast<int32_t>(
            static_cast<int8_t>(v & 0xff)));
    return v;
}

void
Interpreter::storeMem(uint32_t addr, uint32_t value, int size)
{
    if (addr == 0 || !MemoryLayout::inBounds(addr, size))
        fatal("store to invalid address " + std::to_string(addr));
    stores_++;
    for (int i = 0; i < size; i++)
        mem_[addr + i] = static_cast<uint8_t>((value >> (8 * i)) & 0xff);
}

uint32_t
Interpreter::objectAddress(const VarDecl* d, const Frame& fr) const
{
    CASH_ASSERT(d->objectId >= 0, "variable has no memory object");
    const MemObject& obj = layout_.object(d->objectId);
    return obj.isGlobal ? obj.address : fr.frameBase + obj.address;
}

InterpResult
Interpreter::call(const std::string& name,
                  const std::vector<uint32_t>& args)
{
    const FuncDecl* f = prog_.findFunction(name);
    if (!f || !f->body)
        fatal("no function definition for '" + name + "'");
    int64_t loads0 = loads_, stores0 = stores_, steps0 = steps_;
    InterpResult r;
    r.returnValue = callFunction(f, args);
    r.dynamicLoads = loads_ - loads0;
    r.dynamicStores = stores_ - stores0;
    r.steps = steps_ - steps0;
    return r;
}

uint32_t
Interpreter::callFunction(const FuncDecl* f,
                          const std::vector<uint32_t>& args)
{
    if (++callDepth_ > 512)
        fatal("call depth limit exceeded");
    CASH_ASSERT(args.size() == f->params.size(), "bad argument count");

    Frame fr;
    fr.func = f;
    fr.regs.assign(f->numRegisterVars, 0);
    uint32_t frame = layout_.frameSize(f);
    if (frame) {
        if (stackPtr_ < frame + 0x1000)
            fatal("simulated stack overflow");
        stackPtr_ -= frame;
        fr.frameBase = stackPtr_;
    }

    for (size_t i = 0; i < args.size(); i++)
        fr.regs[f->params[i]->varId] = args[i];

    Flow flow = execStmt(f->body, fr);
    (void)flow;

    if (frame)
        stackPtr_ += frame;
    callDepth_--;
    return fr.returnValue;
}

void
Interpreter::initLocal(const VarDecl* d, Frame& fr)
{
    if (d->init) {
        uint32_t v = evalExpr(d->init, fr);
        if (d->inMemory) {
            storeMem(objectAddress(d, fr), v, d->type->accessSize());
        } else {
            fr.regs[d->varId] = v;
        }
    }
    if (!d->initList.empty()) {
        uint32_t base = objectAddress(d, fr);
        int esize = d->type->element->accessSize();
        for (size_t i = 0; i < d->initList.size(); i++) {
            uint32_t v = evalExpr(d->initList[i], fr);
            storeMem(base + static_cast<uint32_t>(i * esize), v, esize);
        }
    }
}

Interpreter::Flow
Interpreter::execStmt(const Stmt* s, Frame& fr)
{
    step();
    switch (s->kind) {
      case StmtKind::Expr:
        evalExpr(static_cast<const ExprStmt*>(s)->expr, fr);
        return Flow::Normal;
      case StmtKind::Decl:
        for (const VarDecl* d : static_cast<const DeclStmt*>(s)->decls)
            initLocal(d, fr);
        return Flow::Normal;
      case StmtKind::If: {
        auto* i = static_cast<const IfStmt*>(s);
        if (evalExpr(i->cond, fr))
            return execStmt(i->thenStmt, fr);
        if (i->elseStmt)
            return execStmt(i->elseStmt, fr);
        return Flow::Normal;
      }
      case StmtKind::While: {
        auto* w = static_cast<const WhileStmt*>(s);
        while (evalExpr(w->cond, fr)) {
            step();
            Flow fl = execStmt(w->body, fr);
            if (fl == Flow::Break)
                break;
            if (fl == Flow::Return)
                return fl;
        }
        return Flow::Normal;
      }
      case StmtKind::DoWhile: {
        auto* w = static_cast<const DoWhileStmt*>(s);
        do {
            step();
            Flow fl = execStmt(w->body, fr);
            if (fl == Flow::Break)
                break;
            if (fl == Flow::Return)
                return fl;
        } while (evalExpr(w->cond, fr));
        return Flow::Normal;
      }
      case StmtKind::For: {
        auto* f = static_cast<const ForStmt*>(s);
        if (f->init)
            execStmt(f->init, fr);
        while (!f->cond || evalExpr(f->cond, fr)) {
            step();
            Flow fl = execStmt(f->body, fr);
            if (fl == Flow::Break)
                break;
            if (fl == Flow::Return)
                return fl;
            if (f->step)
                evalExpr(f->step, fr);
        }
        return Flow::Normal;
      }
      case StmtKind::Return: {
        auto* r = static_cast<const ReturnStmt*>(s);
        if (r->value)
            fr.returnValue = evalExpr(r->value, fr);
        return Flow::Return;
      }
      case StmtKind::Break:
        return Flow::Break;
      case StmtKind::Continue:
        return Flow::Continue;
      case StmtKind::Block: {
        for (const Stmt* sub : static_cast<const BlockStmt*>(s)->stmts) {
            Flow fl = execStmt(sub, fr);
            if (fl != Flow::Normal)
                return fl;
        }
        return Flow::Normal;
      }
      case StmtKind::Empty:
        return Flow::Normal;
    }
    return Flow::Normal;
}

Interpreter::LValue
Interpreter::evalLValue(const Expr* e, Frame& fr)
{
    switch (e->kind) {
      case ExprKind::VarRef: {
        const VarDecl* d = static_cast<const VarRefExpr*>(e)->decl;
        LValue lv;
        if (d->inMemory) {
            lv.isReg = false;
            lv.addr = objectAddress(d, fr);
            lv.size = d->type->accessSize();
            lv.isSigned = typeIsSigned(d->type);
        } else {
            lv.isReg = true;
            lv.regId = d->varId;
        }
        return lv;
      }
      case ExprKind::Index: {
        auto* i = static_cast<const IndexExpr*>(e);
        uint32_t base = evalExpr(i->base, fr);
        uint32_t idx = evalExpr(i->index, fr);
        int64_t stride = e->type->isArray() ? e->type->sizeBytes()
                                            : e->type->accessSize();
        if (e->type->isArray())
            stride = e->type->sizeBytes();
        else
            stride = e->type->accessSize();
        LValue lv;
        lv.addr = base + static_cast<uint32_t>(
                             static_cast<int32_t>(idx) *
                             static_cast<int32_t>(stride));
        lv.size = e->type->accessSize();
        lv.isSigned = typeIsSigned(e->type);
        return lv;
      }
      case ExprKind::Deref: {
        auto* d = static_cast<const DerefExpr*>(e);
        LValue lv;
        lv.addr = evalExpr(d->pointer, fr);
        lv.size = e->type->accessSize();
        lv.isSigned = typeIsSigned(e->type);
        return lv;
      }
      default:
        fatalAt(e->loc, "expression is not an lvalue");
    }
}

uint32_t
Interpreter::readLValue(const LValue& lv, Frame& fr)
{
    if (lv.isReg)
        return fr.regs[lv.regId];
    return loadMem(lv.addr, lv.size, lv.isSigned);
}

void
Interpreter::writeLValue(const LValue& lv, uint32_t v, Frame& fr)
{
    if (lv.isReg)
        fr.regs[lv.regId] = v;
    else
        storeMem(lv.addr, v, lv.size);
}

uint32_t
Interpreter::evalExpr(const Expr* e, Frame& fr)
{
    step();
    switch (e->kind) {
      case ExprKind::IntLit:
        return static_cast<uint32_t>(
            static_cast<const IntLitExpr*>(e)->value);
      case ExprKind::StrLit: {
        const VarDecl* g = static_cast<const StrLitExpr*>(e)->object;
        return layout_.object(g->objectId).address;
      }
      case ExprKind::VarRef: {
        const VarDecl* d = static_cast<const VarRefExpr*>(e)->decl;
        if (d->type->isArray())
            return objectAddress(d, fr);  // decay to address
        if (d->inMemory)
            return loadMem(objectAddress(d, fr), d->type->accessSize(),
                           typeIsSigned(d->type));
        return fr.regs[d->varId];
      }
      case ExprKind::Unary: {
        auto* u = static_cast<const UnaryExpr*>(e);
        uint32_t v = evalExpr(u->operand, fr);
        switch (u->op) {
          case UnaryOp::Neg: return -v;
          case UnaryOp::Not: return v == 0;
          case UnaryOp::BitNot: return ~v;
          case UnaryOp::Plus: return v;
        }
        return 0;
      }
      case ExprKind::Binary: {
        auto* b = static_cast<const BinaryExpr*>(e);
        // Short-circuit forms first.
        if (b->op == BinaryOp::LogAnd)
            return evalExpr(b->lhs, fr) && evalExpr(b->rhs, fr);
        if (b->op == BinaryOp::LogOr)
            return evalExpr(b->lhs, fr) || evalExpr(b->rhs, fr);

        uint32_t l = evalExpr(b->lhs, fr);
        uint32_t r = evalExpr(b->rhs, fr);

        TypePtr lt = b->lhs->type, rt = b->rhs->type;
        bool ptrL = lt->isPointer() || lt->isArray();
        bool ptrR = rt->isPointer() || rt->isArray();

        if (b->op == BinaryOp::Add && (ptrL || ptrR)) {
            if (ptrL)
                return l + r * static_cast<uint32_t>(pointeeSize(lt));
            return r + l * static_cast<uint32_t>(pointeeSize(rt));
        }
        if (b->op == BinaryOp::Sub && ptrL) {
            if (ptrR) {
                return (l - r) / static_cast<uint32_t>(pointeeSize(lt));
            }
            return l - r * static_cast<uint32_t>(pointeeSize(lt));
        }

        bool sgn = typeIsSigned(e->type);
        bool cmpSigned = !(lt->isUnsignedInt() || rt->isUnsignedInt()) &&
                         !ptrL && !ptrR;
        int32_t ls = static_cast<int32_t>(l);
        int32_t rs = static_cast<int32_t>(r);
        switch (b->op) {
          case BinaryOp::Add: return l + r;
          case BinaryOp::Sub: return l - r;
          case BinaryOp::Mul: return l * r;
          case BinaryOp::Div:
            if (r == 0)
                fatalAt(e->loc, "division by zero");
            if (sgn) {
                if (l == 0x80000000u && r == 0xffffffffu)
                    return l;  // INT_MIN / -1 wraps
                return static_cast<uint32_t>(ls / rs);
            }
            return l / r;
          case BinaryOp::Rem:
            if (r == 0)
                fatalAt(e->loc, "remainder by zero");
            if (sgn) {
                if (l == 0x80000000u && r == 0xffffffffu)
                    return 0;
                return static_cast<uint32_t>(ls % rs);
            }
            return l % r;
          case BinaryOp::And: return l & r;
          case BinaryOp::Or: return l | r;
          case BinaryOp::Xor: return l ^ r;
          case BinaryOp::Shl: return l << (r & 31);
          case BinaryOp::Shr:
            if (b->lhs->type->isUnsignedInt())
                return l >> (r & 31);
            return static_cast<uint32_t>(ls >> (r & 31));
          case BinaryOp::Lt:
            return cmpSigned ? (ls < rs) : (l < r);
          case BinaryOp::Le:
            return cmpSigned ? (ls <= rs) : (l <= r);
          case BinaryOp::Gt:
            return cmpSigned ? (ls > rs) : (l > r);
          case BinaryOp::Ge:
            return cmpSigned ? (ls >= rs) : (l >= r);
          case BinaryOp::Eq: return l == r;
          case BinaryOp::Ne: return l != r;
          default: return 0;
        }
      }
      case ExprKind::Assign: {
        auto* a = static_cast<const AssignExpr*>(e);
        if (a->op == AssignOp::Assign) {
            // Evaluate RHS first, then the lvalue (single evaluation).
            uint32_t v = evalExpr(a->rhs, fr);
            LValue lv = evalLValue(a->lhs, fr);
            writeLValue(lv, v, fr);
            return v;
        }
        LValue lv = evalLValue(a->lhs, fr);
        uint32_t cur = readLValue(lv, fr);
        uint32_t rhs = evalExpr(a->rhs, fr);
        TypePtr lt = a->lhs->type;
        bool ptr = lt->isPointer();
        uint32_t stride =
            ptr ? static_cast<uint32_t>(pointeeSize(lt)) : 1;
        bool sgn = typeIsSigned(lt);
        int32_t cs = static_cast<int32_t>(cur);
        int32_t rsg = static_cast<int32_t>(rhs);
        uint32_t v = 0;
        switch (a->op) {
          case AssignOp::Add: v = cur + rhs * stride; break;
          case AssignOp::Sub: v = cur - rhs * stride; break;
          case AssignOp::Mul: v = cur * rhs; break;
          case AssignOp::Div:
            if (rhs == 0)
                fatalAt(e->loc, "division by zero");
            v = sgn ? static_cast<uint32_t>(cs / rsg) : cur / rhs;
            break;
          case AssignOp::Rem:
            if (rhs == 0)
                fatalAt(e->loc, "remainder by zero");
            v = sgn ? static_cast<uint32_t>(cs % rsg) : cur % rhs;
            break;
          case AssignOp::And: v = cur & rhs; break;
          case AssignOp::Or: v = cur | rhs; break;
          case AssignOp::Xor: v = cur ^ rhs; break;
          case AssignOp::Shl: v = cur << (rhs & 31); break;
          case AssignOp::Shr:
            v = sgn ? static_cast<uint32_t>(cs >> (rhs & 31))
                    : cur >> (rhs & 31);
            break;
          case AssignOp::Assign: break;
        }
        writeLValue(lv, v, fr);
        return v;
      }
      case ExprKind::Index:
      case ExprKind::Deref: {
        if (e->type->isArray()) {
            // Indexing into a multi-dim situation is unsupported;
            // arrays of arrays are not in Mini-C.
            fatalAt(e->loc, "array-typed access unsupported");
        }
        LValue lv = evalLValue(e, fr);
        return readLValue(lv, fr);
      }
      case ExprKind::AddrOf: {
        auto* a = static_cast<const AddrOfExpr*>(e);
        if (a->lvalue->kind == ExprKind::VarRef) {
            const VarDecl* d =
                static_cast<const VarRefExpr*>(a->lvalue)->decl;
            return objectAddress(d, fr);
        }
        LValue lv = evalLValue(a->lvalue, fr);
        CASH_ASSERT(!lv.isReg, "address of register value");
        return lv.addr;
      }
      case ExprKind::Call: {
        auto* c = static_cast<const CallExpr*>(e);
        std::vector<uint32_t> args;
        args.reserve(c->args.size());
        for (const Expr* a : c->args)
            args.push_back(evalExpr(a, fr));
        if (!c->decl->body)
            fatalAt(e->loc, "call to undefined function '" +
                                c->callee + "'");
        return callFunction(c->decl, args);
      }
      case ExprKind::Cast: {
        auto* c = static_cast<const CastExpr*>(e);
        uint32_t v = evalExpr(c->operand, fr);
        switch (c->target->kind) {
          case TypeKind::Char:
            return static_cast<uint32_t>(static_cast<int32_t>(
                static_cast<int8_t>(v & 0xff)));
          case TypeKind::UChar:
            return v & 0xff;
          default:
            return v;
        }
      }
      case ExprKind::Cond: {
        auto* c = static_cast<const CondExpr*>(e);
        return evalExpr(c->cond, fr) ? evalExpr(c->thenExpr, fr)
                                     : evalExpr(c->elseExpr, fr);
      }
      case ExprKind::IncDec: {
        auto* i = static_cast<const IncDecExpr*>(e);
        LValue lv = evalLValue(i->lvalue, fr);
        uint32_t cur = readLValue(lv, fr);
        TypePtr lt = i->lvalue->type;
        uint32_t stride = lt->isPointer()
                              ? static_cast<uint32_t>(pointeeSize(lt))
                              : 1;
        uint32_t next = i->isIncrement ? cur + stride : cur - stride;
        writeLValue(lv, next, fr);
        return i->isPrefix ? next : cur;
      }
    }
    return 0;
}

} // namespace cash
