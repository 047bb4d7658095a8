/**
 * @file
 * Hyperblock formation (paper §3.1).
 *
 * A hyperblock is a single-entry acyclic collection of basic blocks
 * that is predicated into straight-line code.  Loop headers always
 * start a new hyperblock; a block joins its predecessors' hyperblock
 * only when all (forward) predecessors agree and the block belongs to
 * the same innermost loop.
 */
#ifndef CASH_CFG_HYPERBLOCK_H
#define CASH_CFG_HYPERBLOCK_H

#include <cstdint>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "cfg/dominators.h"
#include "cfg/loops.h"

namespace cash {

/** An edge leaving a hyperblock. */
struct HbExit
{
    int srcBlock = -1;   ///< Block inside the hyperblock.
    int dstBlock = -1;   ///< Target block (a hyperblock header).
    int targetHb = -1;
    bool isBackEdge = false;  ///< Loops back to this hyperblock itself.
};

/** An edge entering a hyperblock (parallel to HbExit records). */
struct HbEntry
{
    int fromHb = -1;
    int exitIndex = -1;  ///< Index into the source hyperblock's exits.
};

struct Hyperblock
{
    int id = -1;
    int header = -1;
    std::vector<int> blocks;  ///< Topological order; blocks[0]==header.
    int loopIndex = -1;       ///< Innermost loop of the header, or -1.
    int loopDepth = 0;
    bool isLoop = false;      ///< Has a back edge onto its own header.
    std::vector<HbExit> exits;
    std::vector<HbEntry> incoming;
};

/**
 * Partition of a function's blocks into hyperblocks.
 */
class HyperblockPartition
{
  public:
    HyperblockPartition(const CfgFunction& fn, const DominatorTree& dom,
                        const LoopForest& loops);

    const std::vector<Hyperblock>& hyperblocks() const { return hbs_; }
    const Hyperblock& hb(int id) const { return hbs_.at(id); }

    /** Hyperblock containing @p block (-1 for unreachable blocks). */
    int hbOf(int block) const { return blockToHb_.at(block); }

    /** In-hyperblock forward reachability (reflexive). */
    bool reaches(int fromBlock, int toBlock) const;

    std::string str() const;

  private:
    std::vector<Hyperblock> hbs_;
    std::vector<int> blockToHb_;
    /** Per block: its index in its hyperblock's blocks. */
    std::vector<int> localIndex_;
    /** Per block: the first word of its reach row, a bitset over its
     *  hyperblock's blocks (by local index) of the in-hyperblock
     *  blocks reachable from it, itself included. */
    std::vector<uint32_t> rowStart_;
    std::vector<uint64_t> reachBits_;
};

} // namespace cash

#endif // CASH_CFG_HYPERBLOCK_H
