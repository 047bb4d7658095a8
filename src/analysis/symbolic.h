/**
 * @file
 * Symbolic (affine) address analysis (paper §4.3 heuristic 1 and 2).
 *
 * Address expressions are decomposed into affine forms
 *     c0 + Σ ci·base_i + Σ sj·ITER(loop_j)
 * where bases are opaque graph values and ITER(h) is the iteration
 * count of loop hyperblock h (induction-variable merges expand to
 * start + step·ITER).  Two addresses whose difference is a nonzero
 * constant can never be equal; the loop-pipelining passes additionally
 * reason about the ITER coefficients to derive dependence distances.
 */
#ifndef CASH_ANALYSIS_SYMBOLIC_H
#define CASH_ANALYSIS_SYMBOLIC_H

#include <cstdint>
#include <string>
#include <vector>

#include "pegasus/graph.h"
#include "support/small_vector.h"

namespace cash {

class InductionAnalysis;

/** A term basis: either an opaque node output or a loop counter. */
struct SymBase
{
    const Node* node = nullptr;
    int port = 0;
    int iterHb = -1;  ///< ≥0: the ITER(hyperblock) pseudo-variable.

    bool
    operator<(const SymBase& o) const
    {
        if (iterHb != o.iterHb)
            return iterHb < o.iterHb;
        if (node != o.node)
            return node < o.node;
        return port < o.port;
    }
    bool
    operator==(const SymBase& o) const
    {
        return node == o.node && port == o.port && iterHb == o.iterHb;
    }
};

/** One term of an affine expression: coeff·base. */
struct AffineTerm
{
    SymBase base;
    int64_t coeff = 0;
};

/** An affine expression over SymBases. */
struct AffineExpr
{
    bool valid = false;
    int64_t constant = 0;
    /** The terms, one per base, sorted by base; the first two live
     *  inline, so building an address expression allocates nothing. */
    SmallVector<AffineTerm, 2> terms;

    static AffineExpr invalid() { return AffineExpr{}; }
    static AffineExpr constantOf(int64_t c);
    static AffineExpr baseOf(SymBase b);

    AffineExpr plus(const AffineExpr& o) const;
    AffineExpr minus(const AffineExpr& o) const;
    AffineExpr times(int64_t k) const;

    /** True when the expression is a plain constant. */
    bool isConstant(int64_t* c) const;

    /** Coefficient of ITER(@p hb) (0 when absent). */
    int64_t iterCoeff(int hb) const;

    /** Expression with the ITER(@p hb) term removed. */
    AffineExpr withoutIter(int hb) const;

    std::string str() const;
};

/**
 * Memoized affine decomposition of graph values.
 */
class SymbolicAddress
{
  public:
    /** @param ivs optional induction analysis for IV-merge expansion. */
    explicit SymbolicAddress(const InductionAnalysis* ivs = nullptr)
        : ivs_(ivs)
    {
    }

    AffineExpr expr(PortRef v);

    /**
     * Can accesses (@p a, @p sizeA) and (@p b, @p sizeB) never touch a
     * common byte *in the same iteration context* (all ITER variables
     * equal)?  True only when provable.
     */
    static bool disjoint(const AffineExpr& a, int sizeA,
                         const AffineExpr& b, int sizeB);

  private:
    AffineExpr compute(PortRef v, int depth);

    const InductionAnalysis* ivs_;
    /** The expressions computed so far, by value port. */
    struct Memo
    {
        PortRef key;
        AffineExpr value;
    };
    std::vector<Memo> memo_;
    /** 1 + the memo_ index of value port (node id, port), at
     *  2 * id + port; 0 when not computed. */
    std::vector<uint32_t> slot_;
};

} // namespace cash

#endif // CASH_ANALYSIS_SYMBOLIC_H
