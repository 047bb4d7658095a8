/**
 * @file
 * Memory layout: assigns addresses to every memory-resident object.
 *
 * The simulated machine has a flat 32-bit byte-addressed memory.
 * Globals are placed at static addresses starting at kGlobalBase;
 * memory-resident locals (arrays and address-taken scalars) get offsets
 * inside their function's activation frame, carved from a downward-
 * growing stack starting at kStackTop.
 */
#ifndef CASH_FRONTEND_LAYOUT_H
#define CASH_FRONTEND_LAYOUT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "frontend/ast.h"

namespace cash {

/** One memory-resident object (a global or a frame-resident local). */
struct MemObject
{
    int id = -1;
    std::string name;
    const VarDecl* decl = nullptr;
    const FuncDecl* func = nullptr;  ///< Null for globals.
    uint32_t address = 0;            ///< Absolute for globals,
                                     ///< frame offset for locals.
    uint32_t size = 0;
    bool isGlobal = false;
    bool isConst = false;
};

/**
 * The computed layout of a whole program.
 */
class MemoryLayout
{
  public:
    static constexpr uint32_t kGlobalBase = 0x1000;
    static constexpr uint32_t kStackTop = 0x100000;   ///< 1 MiB
    static constexpr uint32_t kMemorySize = 0x200000; ///< 2 MiB

    /**
     * Does the @p size-byte access at @p addr fall inside the simulated
     * memory?  Checked without 32-bit arithmetic, where an address
     * just below 2^32 would wrap past the end and read as in range.
     */
    static bool
    inBounds(uint32_t addr, int size)
    {
        return addr < kMemorySize && size >= 0 &&
               static_cast<uint32_t>(size) <= kMemorySize - addr;
    }
    /** Default element count given to extern arrays of unknown extent. */
    static constexpr int64_t kExternArrayElems = 4096;

    /** Compute the layout of @p program (sema must have run). */
    void build(Program& program);

    const std::vector<MemObject>& objects() const { return objects_; }
    const MemObject& object(int id) const { return objects_.at(id); }

    /** Frame size in bytes for @p f (0 when it has no memory locals). */
    uint32_t frameSize(const FuncDecl* f) const;

    /** First address past the last global. */
    uint32_t globalTop() const { return globalTop_; }

    /**
     * Initial content of the global segment,
     * covering [kGlobalBase, globalTop).
     */
    const std::vector<uint8_t>& globalImage() const { return image_; }

    /** Object id of the global named @p name, or -1. */
    int findGlobal(const std::string& name) const;

  private:
    void placeGlobal(VarDecl* g);
    void writeInit(const MemObject& obj, const VarDecl* g);
    void storeBytes(uint32_t addr, int64_t value, int size);

    std::vector<MemObject> objects_;
    std::map<const FuncDecl*, uint32_t> frameSizes_;
    std::vector<uint8_t> image_;
    uint32_t globalTop_ = kGlobalBase;
};

} // namespace cash

#endif // CASH_FRONTEND_LAYOUT_H
