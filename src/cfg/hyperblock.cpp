#include "cfg/hyperblock.h"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.h"

namespace cash {

HyperblockPartition::HyperblockPartition(const CfgFunction& fn,
                                         const DominatorTree& dom,
                                         const LoopForest& loops)
{
    blockToHb_.assign(fn.blocks.size(), -1);
    const std::vector<int>& rpo = dom.rpo();

    // Pass 1: assign blocks to hyperblocks in reverse postorder.
    for (int b : rpo) {
        bool startNew = false;
        if (b == fn.entry || loops.isHeader(b)) {
            startNew = true;
        } else {
            // All forward predecessors must be in one hyperblock and in
            // the same innermost loop.
            int candidate = -1;
            for (int p : fn.block(b)->preds) {
                if (dom.rpoIndex(p) < 0)
                    continue;  // unreachable pred
                if (loops.isBackEdge(p, b))
                    continue;
                int ph = blockToHb_[p];
                if (ph < 0 || (candidate >= 0 && ph != candidate)) {
                    candidate = -2;
                    break;
                }
                candidate = ph;
            }
            if (candidate >= 0 &&
                loops.innermostLoopOf(b) ==
                    loops.innermostLoopOf(hbs_[candidate].header)) {
                blockToHb_[b] = candidate;
                hbs_[candidate].blocks.push_back(b);
                continue;
            }
            startNew = true;
        }
        CASH_ASSERT(startNew, "hyperblock assignment fell through");
        Hyperblock hb;
        hb.id = static_cast<int>(hbs_.size());
        hb.header = b;
        hb.blocks.push_back(b);
        hb.loopIndex = loops.innermostLoopOf(b);
        hb.loopDepth =
            hb.loopIndex >= 0 ? loops.loops()[hb.loopIndex].depth : 0;
        blockToHb_[b] = hb.id;
        hbs_.push_back(std::move(hb));
    }

    // Pass 2: exits and incoming edges.
    for (Hyperblock& hb : hbs_) {
        for (int b : hb.blocks) {
            for (int s : fn.block(b)->succs) {
                int sh = blockToHb_[s];
                bool internal =
                    sh == hb.id && s != hb.header;
                if (internal)
                    continue;
                HbExit e;
                e.srcBlock = b;
                e.dstBlock = s;
                e.targetHb = sh;
                e.isBackEdge = loops.isBackEdge(b, s);
                if (e.isBackEdge && sh == hb.id)
                    hb.isLoop = true;
                hb.exits.push_back(e);
            }
        }
    }
    for (Hyperblock& hb : hbs_) {
        for (size_t i = 0; i < hb.exits.size(); i++) {
            const HbExit& e = hb.exits[i];
            if (e.targetHb >= 0) {
                hbs_[e.targetHb].incoming.push_back(
                    {hb.id, static_cast<int>(i)});
            }
        }
    }

    // Pass 3: in-hyperblock reachability (reverse topological), one
    // bitset row per block over its hyperblock's blocks.
    localIndex_.assign(fn.blocks.size(), -1);
    rowStart_.assign(fn.blocks.size(), 0);
    size_t totalWords = 0;
    for (const Hyperblock& hb : hbs_) {
        const size_t words = (hb.blocks.size() + 63) / 64;
        for (size_t i = 0; i < hb.blocks.size(); i++) {
            localIndex_[static_cast<size_t>(hb.blocks[i])] =
                static_cast<int>(i);
            rowStart_[static_cast<size_t>(hb.blocks[i])] =
                static_cast<uint32_t>(totalWords);
            totalWords += words;
        }
    }
    reachBits_.assign(totalWords, 0);
    for (const Hyperblock& hb : hbs_) {
        const size_t words = (hb.blocks.size() + 63) / 64;
        for (auto it = hb.blocks.rbegin(); it != hb.blocks.rend(); ++it) {
            const int b = *it;
            uint64_t* r = reachBits_.data() + rowStart_[b];
            const int self = localIndex_[b];
            r[self / 64] |= uint64_t{1} << (self % 64);
            for (int s : fn.block(b)->succs) {
                if (blockToHb_[s] == hb.id && s != hb.header) {
                    const uint64_t* rs = reachBits_.data() + rowStart_[s];
                    for (size_t w = 0; w < words; w++)
                        r[w] |= rs[w];
                }
            }
        }
    }
}

bool
HyperblockPartition::reaches(int fromBlock, int toBlock) const
{
    const int hb = blockToHb_.at(fromBlock);
    if (hb < 0 || blockToHb_.at(toBlock) != hb)
        return false;
    const int to = localIndex_[static_cast<size_t>(toBlock)];
    return (reachBits_[rowStart_[static_cast<size_t>(fromBlock)] +
                       static_cast<size_t>(to / 64)] >>
            (to % 64)) & 1;
}

std::string
HyperblockPartition::str() const
{
    std::ostringstream os;
    for (const Hyperblock& hb : hbs_) {
        os << "HB" << hb.id << (hb.isLoop ? " (loop)" : "") << ":";
        for (int b : hb.blocks)
            os << " B" << b;
        os << "  exits:";
        for (const HbExit& e : hb.exits) {
            os << " B" << e.srcBlock << "->";
            if (e.targetHb >= 0)
                os << "HB" << e.targetHb;
            else
                os << "?";
            if (e.isBackEdge)
                os << "^";
        }
        os << "\n";
    }
    return os.str();
}

} // namespace cash
