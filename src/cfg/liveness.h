/**
 * @file
 * Live-variable analysis over virtual registers.
 *
 * The Pegasus builder uses liveness at hyperblock boundaries to decide
 * which values need eta/merge nodes (paper §3.1).
 */
#ifndef CASH_CFG_LIVENESS_H
#define CASH_CFG_LIVENESS_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cfg/cfg.h"
#include "support/small_vector.h"

namespace cash {

/**
 * Backward may-liveness of virtual registers per block.  The fixpoint
 * runs on one bitset per block over the function's registers; the
 * results are handed out as ascending register lists, the order the
 * builder creates merges and etas in, all stored in one flat array.
 */
class Liveness
{
  public:
    explicit Liveness(const CfgFunction& fn);

    /** Registers live into @p block, ascending. */
    std::span<const int> liveIn(int block) const { return list(2 * block); }
    /** Registers live out of @p block, ascending. */
    std::span<const int>
    liveOut(int block) const
    {
        return list(2 * block + 1);
    }

    /** Operand registers of an instruction or terminator (inline for
     *  up to four, so listing them allocates nothing). */
    using RegList = SmallVector<int, 4>;

    /** Registers used by instruction @p i (operand registers). */
    static RegList uses(const Instr& i);
    /** Register defined by @p i, or -1. */
    static int def(const Instr& i);
    /** Registers used by terminator @p t. */
    static RegList uses(const Terminator& t);

  private:
    /** List k (live-in of block k/2 for even k, live-out for odd k)
     *  is regs_[start_[k], start_[k + 1]). */
    std::vector<int> regs_;
    std::vector<uint32_t> start_;

    std::span<const int>
    list(int k) const
    {
        if (k < 0 || static_cast<size_t>(k) + 1 >= start_.size())
            throw std::out_of_range("Liveness: bad block");
        return {regs_.data() + start_[static_cast<size_t>(k)],
                regs_.data() + start_[static_cast<size_t>(k) + 1]};
    }
};

} // namespace cash

#endif // CASH_CFG_LIVENESS_H
