#include "cfg/liveness.h"

#include <algorithm>
#include <cstdint>

namespace cash {

std::vector<int>
Liveness::uses(const Instr& i)
{
    std::vector<int> out;
    auto add = [&](const Operand& o) {
        if (o.isReg())
            out.push_back(o.reg);
    };
    switch (i.kind) {
      case InstrKind::Bin:
        add(i.a);
        add(i.b);
        break;
      case InstrKind::Un:
      case InstrKind::Copy:
        add(i.a);
        break;
      case InstrKind::Load:
        add(i.addr);
        break;
      case InstrKind::Store:
        add(i.addr);
        add(i.value);
        break;
      case InstrKind::Call:
        for (const Operand& a : i.args)
            add(a);
        break;
    }
    return out;
}

int
Liveness::def(const Instr& i)
{
    return i.dst;
}

std::vector<int>
Liveness::uses(const Terminator& t)
{
    std::vector<int> out;
    if (t.kind == Terminator::Kind::CondBranch && t.cond.isReg())
        out.push_back(t.cond.reg);
    if (t.kind == Terminator::Kind::Return && t.retValue.isReg())
        out.push_back(t.retValue.reg);
    return out;
}

Liveness::Liveness(const CfgFunction& fn)
{
    const size_t n = fn.blocks.size();
    // One row of `words` 64-bit words per block, one bit per register.
    int regs = fn.numRegs;
    auto widen = [&](int r) { regs = std::max(regs, r + 1); };
    for (const auto& b : fn.blocks) {
        for (const Instr& i : b->instrs) {
            for (int r : uses(i))
                widen(r);
            widen(def(i));
        }
        for (int r : uses(b->term))
            widen(r);
    }
    const size_t words = (static_cast<size_t>(regs) + 63) / 64;
    auto bit = [](std::vector<uint64_t>& rows, size_t row, size_t words,
                  int r) -> void {
        rows[row * words + static_cast<size_t>(r) / 64] |=
            uint64_t(1) << (r % 64);
    };
    auto has = [](const std::vector<uint64_t>& rows, size_t row,
                  size_t words, int r) -> bool {
        return (rows[row * words + static_cast<size_t>(r) / 64] >>
                (r % 64)) & 1;
    };

    // Per-block use (read before any write in the block) and def.
    std::vector<uint64_t> use(n * words, 0), defs(n * words, 0);
    for (const auto& b : fn.blocks) {
        const size_t k = static_cast<size_t>(b->id);
        for (const Instr& i : b->instrs) {
            for (int r : uses(i))
                if (!has(defs, k, words, r))
                    bit(use, k, words, r);
            int dr = def(i);
            if (dr >= 0)
                bit(defs, k, words, dr);
        }
        for (int r : uses(b->term))
            if (!has(defs, k, words, r))
                bit(use, k, words, r);
    }

    // in(b) = use(b) | (out(b) & ~def(b)), out(b) = OR of in(succ).
    std::vector<uint64_t> in(n * words, 0), out(n * words, 0);
    bool changed = true;
    while (changed) {
        changed = false;
        // Iterate in reverse block order (approximate reverse CFG).
        for (size_t k = n; k-- > 0;) {
            const BasicBlock* b = fn.block(static_cast<int>(k));
            uint64_t* o = out.data() + k * words;
            uint64_t* i = in.data() + k * words;
            for (size_t w = 0; w < words; w++) {
                uint64_t acc = 0;
                for (int s : b->succs)
                    acc |= in[static_cast<size_t>(s) * words + w];
                uint64_t next =
                    use[k * words + w] | (acc & ~defs[k * words + w]);
                if (acc != o[w] || next != i[w]) {
                    o[w] = acc;
                    i[w] = next;
                    changed = true;
                }
            }
        }
    }

    auto ascending = [&](const std::vector<uint64_t>& rows,
                         std::vector<std::vector<int>>& lists) {
        lists.assign(n, {});
        for (size_t k = 0; k < n; k++)
            for (size_t w = 0; w < words; w++)
                for (uint64_t bits = rows[k * words + w]; bits;
                     bits &= bits - 1)
                    lists[k].push_back(
                        static_cast<int>(w * 64) + __builtin_ctzll(bits));
    };
    ascending(in, liveIn_);
    ascending(out, liveOut_);
}

} // namespace cash
