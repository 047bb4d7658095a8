/**
 * @file
 * Live-variable analysis over virtual registers.
 *
 * The Pegasus builder uses liveness at hyperblock boundaries to decide
 * which values need eta/merge nodes (paper §3.1).
 */
#ifndef CASH_CFG_LIVENESS_H
#define CASH_CFG_LIVENESS_H

#include <vector>

#include "cfg/cfg.h"

namespace cash {

/**
 * Backward may-liveness of virtual registers per block.  The fixpoint
 * runs on one bitset per block over the function's registers; the
 * results are handed out as ascending register lists, the order the
 * builder creates merges and etas in.
 */
class Liveness
{
  public:
    explicit Liveness(const CfgFunction& fn);

    /** Registers live into @p block, ascending. */
    const std::vector<int>& liveIn(int block) const
    {
        return liveIn_.at(block);
    }
    /** Registers live out of @p block, ascending. */
    const std::vector<int>& liveOut(int block) const
    {
        return liveOut_.at(block);
    }

    /** Registers used by instruction @p i (operand registers). */
    static std::vector<int> uses(const Instr& i);
    /** Register defined by @p i, or -1. */
    static int def(const Instr& i);
    /** Registers used by terminator @p t. */
    static std::vector<int> uses(const Terminator& t);

  private:
    std::vector<std::vector<int>> liveIn_;
    std::vector<std::vector<int>> liveOut_;
};

} // namespace cash

#endif // CASH_CFG_LIVENESS_H
