#include "analysis/symbolic.h"

#include <algorithm>
#include <sstream>

#include "analysis/induction.h"

namespace cash {

AffineExpr
AffineExpr::constantOf(int64_t c)
{
    AffineExpr e;
    e.valid = true;
    e.constant = c;
    return e;
}

AffineExpr
AffineExpr::baseOf(SymBase b)
{
    AffineExpr e;
    e.valid = true;
    e.terms.push_back({b, 1});
    return e;
}

AffineExpr
AffineExpr::plus(const AffineExpr& o) const
{
    if (!valid || !o.valid)
        return invalid();
    AffineExpr e;
    e.valid = true;
    e.constant = constant + o.constant;
    // Merge the two sorted term lists; a base whose coefficients
    // cancel drops out.
    const AffineTerm* a = terms.begin();
    const AffineTerm* b = o.terms.begin();
    while (a != terms.end() || b != o.terms.end()) {
        if (b == o.terms.end() || (a != terms.end() && a->base < b->base)) {
            e.terms.push_back(*a++);
        } else if (a == terms.end() || b->base < a->base) {
            e.terms.push_back(*b++);
        } else {
            const int64_t c = a->coeff + b->coeff;
            if (c != 0)
                e.terms.push_back({a->base, c});
            a++;
            b++;
        }
    }
    return e;
}

AffineExpr
AffineExpr::minus(const AffineExpr& o) const
{
    return plus(o.times(-1));
}

AffineExpr
AffineExpr::times(int64_t k) const
{
    if (!valid)
        return invalid();
    AffineExpr e;
    e.valid = true;
    e.constant = constant * k;
    if (k != 0)
        for (const AffineTerm& t : terms)
            e.terms.push_back({t.base, t.coeff * k});
    return e;
}

bool
AffineExpr::isConstant(int64_t* c) const
{
    if (!valid || !terms.empty())
        return false;
    *c = constant;
    return true;
}

int64_t
AffineExpr::iterCoeff(int hb) const
{
    for (const AffineTerm& t : terms)
        if (t.base.iterHb == hb)
            return t.coeff;
    return 0;
}

AffineExpr
AffineExpr::withoutIter(int hb) const
{
    AffineExpr e;
    e.valid = valid;
    e.constant = constant;
    for (const AffineTerm& t : terms)
        if (t.base.iterHb != hb)
            e.terms.push_back(t);
    return e;
}

std::string
AffineExpr::str() const
{
    if (!valid)
        return "<invalid>";
    std::ostringstream os;
    os << constant;
    for (const AffineTerm& t : terms) {
        os << " + " << t.coeff << "*";
        if (t.base.iterHb >= 0)
            os << "ITER(hb" << t.base.iterHb << ")";
        else
            os << "n" << t.base.node->id << "." << t.base.port;
    }
    return os.str();
}

AffineExpr
SymbolicAddress::expr(PortRef v)
{
    return compute(v, 0);
}

AffineExpr
SymbolicAddress::compute(PortRef v, int depth)
{
    if (!v.valid() || depth > 64)
        return AffineExpr::invalid();
    CASH_ASSERT(v.port == 0 || v.port == 1, "bad value port");
    const size_t key = 2 * static_cast<size_t>(v.node->id) +
                       static_cast<size_t>(v.port);
    if (key >= slot_.size())
        slot_.resize(std::max(key + 1, 2 * slot_.size()), 0);
    // A slot naming another node's entry (a node of another graph
    // with the same id) is a miss.
    if (slot_[key] && memo_[slot_[key] - 1].key == v)
        return memo_[slot_[key] - 1].value;
    // Pre-insert an opaque self to break recursion (e.g. through a
    // non-induction loop merge).
    const size_t at = memo_.size();
    memo_.push_back({v, AffineExpr::baseOf(SymBase{v.node, v.port, -1})});
    slot_[key] = static_cast<uint32_t>(at + 1);

    AffineExpr result = AffineExpr::baseOf(SymBase{v.node, v.port, -1});
    const Node* n = v.node;
    switch (n->kind) {
      case NodeKind::Const:
        result = AffineExpr::constantOf(n->constValue);
        break;
      case NodeKind::Arith: {
        switch (n->op) {
          case Op::Copy:
            result = compute(n->input(0), depth + 1);
            break;
          case Op::Add:
            result = compute(n->input(0), depth + 1)
                         .plus(compute(n->input(1), depth + 1));
            break;
          case Op::Sub:
            result = compute(n->input(0), depth + 1)
                         .minus(compute(n->input(1), depth + 1));
            break;
          case Op::Mul: {
            AffineExpr a = compute(n->input(0), depth + 1);
            AffineExpr b = compute(n->input(1), depth + 1);
            int64_t c;
            if (b.isConstant(&c))
                result = a.times(c);
            else if (a.isConstant(&c))
                result = b.times(c);
            break;
          }
          case Op::Shl: {
            AffineExpr a = compute(n->input(0), depth + 1);
            int64_t c;
            AffineExpr b = compute(n->input(1), depth + 1);
            if (b.isConstant(&c) && c >= 0 && c < 31)
                result = a.times(int64_t(1) << c);
            break;
          }
          default:
            break;  // opaque
        }
        break;
      }
      case NodeKind::Eta:
        // An eta forwards its value unchanged.
        result = compute(n->input(0), depth + 1);
        break;
      case NodeKind::Merge: {
        if (ivs_) {
            const InductionVar* iv = ivs_->ivOf(n);
            if (iv) {
                AffineExpr start =
                    iv->start.valid()
                        ? compute(iv->start, depth + 1)
                        : AffineExpr::baseOf(SymBase{n, 100, -1});
                AffineExpr iter = AffineExpr::baseOf(
                    SymBase{nullptr, 0, iv->hyperblock});
                result = start.plus(iter.times(iv->step));
            }
        }
        break;  // non-IV merges stay opaque
      }
      default:
        break;  // opaque
    }

    if (!result.valid)
        result = AffineExpr::baseOf(SymBase{v.node, v.port, -1});
    memo_[at].value = result;
    return result;
}

bool
SymbolicAddress::disjoint(const AffineExpr& a, int sizeA,
                          const AffineExpr& b, int sizeB)
{
    if (!a.valid || !b.valid)
        return false;
    AffineExpr diff = a.minus(b);
    int64_t c;
    if (!diff.isConstant(&c))
        return false;
    // a = b + c: ranges [b+c, b+c+sizeA) and [b, b+sizeB) are disjoint
    // iff c >= sizeB or c <= -sizeA.
    return c >= sizeB || c <= -sizeA;
}

} // namespace cash
