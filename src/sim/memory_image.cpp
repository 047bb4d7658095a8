#include "sim/memory_image.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace cash {

MemoryImage::MemoryImage(const MemoryLayout& layout) : layout_(layout)
{
    reset();
}

void
MemoryImage::reset()
{
    mem_.assign(MemoryLayout::kMemorySize, 0);
    const std::vector<uint8_t>& img = layout_.globalImage();
    std::copy(img.begin(), img.end(),
              mem_.begin() + MemoryLayout::kGlobalBase);
}

uint32_t
MemoryImage::load(uint32_t addr, int size, bool signExtend) const
{
    if (addr == 0 || !MemoryLayout::inBounds(addr, size))
        fatal("simulated load from invalid address " +
              std::to_string(addr));
    uint32_t v = 0;
    for (int i = 0; i < size; i++)
        v |= static_cast<uint32_t>(mem_[addr + i]) << (8 * i);
    if (size == 1 && signExtend)
        v = static_cast<uint32_t>(
            static_cast<int32_t>(static_cast<int8_t>(v & 0xff)));
    return v;
}

void
MemoryImage::store(uint32_t addr, uint32_t value, int size)
{
    if (addr == 0 || !MemoryLayout::inBounds(addr, size))
        fatal("simulated store to invalid address " +
              std::to_string(addr));
    for (int i = 0; i < size; i++)
        mem_[addr + i] = static_cast<uint8_t>((value >> (8 * i)) & 0xff);
}

} // namespace cash
