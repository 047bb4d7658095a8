/**
 * @file
 * Memory layout: object placement, alignment, initial images, frame
 * offsets and extern-array backing.
 */
#include <gtest/gtest.h>

#include "test_util.h"

using namespace cash;

namespace {

struct Built
{
    Program prog;
    MemoryLayout layout;
};

Built
build(const std::string& src)
{
    Built b{parseProgram(src), {}};
    analyzeProgram(b.prog);
    b.layout.build(b.prog);
    return b;
}

TEST(Layout, GlobalsStartAtBase)
{
    Built b = build("int a; int c[4];");
    EXPECT_EQ(b.layout.object(b.prog.globals[0]->objectId).address,
              MemoryLayout::kGlobalBase);
}

TEST(Layout, GlobalsDoNotOverlap)
{
    Built b = build("int a; int t[10]; char c; int z;");
    const auto& objs = b.layout.objects();
    for (size_t i = 0; i < objs.size(); i++) {
        for (size_t j = i + 1; j < objs.size(); j++) {
            bool disjoint =
                objs[i].address + objs[i].size <= objs[j].address ||
                objs[j].address + objs[j].size <= objs[i].address;
            EXPECT_TRUE(disjoint) << objs[i].name << " vs "
                                  << objs[j].name;
        }
    }
}

TEST(Layout, WordAlignment)
{
    Built b = build("char c; int x;");
    uint32_t addr = b.layout.object(b.prog.globals[1]->objectId).address;
    EXPECT_EQ(addr % 4, 0u);
}

TEST(Layout, ScalarInitializerInImage)
{
    Built b = build("int a = 0x12345678;");
    const MemObject& obj = b.layout.object(0);
    const auto& img = b.layout.globalImage();
    uint32_t off = obj.address - MemoryLayout::kGlobalBase;
    EXPECT_EQ(img[off], 0x78);
    EXPECT_EQ(img[off + 1], 0x56);
    EXPECT_EQ(img[off + 2], 0x34);
    EXPECT_EQ(img[off + 3], 0x12);
}

TEST(Layout, ArrayInitializerList)
{
    Built b = build("int t[3] = {10, 20, 30};");
    const MemObject& obj = b.layout.object(0);
    const auto& img = b.layout.globalImage();
    uint32_t off = obj.address - MemoryLayout::kGlobalBase;
    EXPECT_EQ(img[off], 10);
    EXPECT_EQ(img[off + 4], 20);
    EXPECT_EQ(img[off + 8], 30);
}

TEST(Layout, CharArrayInitializer)
{
    Built b = build("char t[2] = {65, 66};");
    const MemObject& obj = b.layout.object(0);
    const auto& img = b.layout.globalImage();
    uint32_t off = obj.address - MemoryLayout::kGlobalBase;
    EXPECT_EQ(img[off], 65);
    EXPECT_EQ(img[off + 1], 66);
}

TEST(Layout, PointerInitializerToGlobalArray)
{
    Built b = build("int arr[4]; int* p = arr;");
    const MemObject& arr = b.layout.object(0);
    const MemObject& p = b.layout.object(1);
    const auto& img = b.layout.globalImage();
    uint32_t off = p.address - MemoryLayout::kGlobalBase;
    uint32_t stored = static_cast<uint32_t>(img[off]) |
                      (static_cast<uint32_t>(img[off + 1]) << 8) |
                      (static_cast<uint32_t>(img[off + 2]) << 16) |
                      (static_cast<uint32_t>(img[off + 3]) << 24);
    EXPECT_EQ(stored, arr.address);
}

TEST(Layout, ExternArraysGetBacking)
{
    Built b = build("extern int a[];");
    EXPECT_EQ(b.layout.object(0).size,
              4u * MemoryLayout::kExternArrayElems);
}

TEST(Layout, FrameOffsetsForMemoryLocals)
{
    Built b = build("int f(void) { int t[4]; int x = 0; int* p = &x;"
                    " t[0] = *p; return t[0]; }");
    const FuncDecl* f = b.prog.functions[0];
    EXPECT_GT(b.layout.frameSize(f), 0u);
    // t (16 bytes) + x (4 bytes), aligned.
    EXPECT_GE(b.layout.frameSize(f), 20u);
}

TEST(Layout, NoFrameForRegisterOnlyFunctions)
{
    Built b = build("int f(int a) { return a * 2; }");
    EXPECT_EQ(b.layout.frameSize(b.prog.functions[0]), 0u);
}

TEST(Layout, FindGlobalByName)
{
    Built b = build("int alpha; int beta;");
    EXPECT_EQ(b.layout.findGlobal("beta"),
              b.prog.globals[1]->objectId);
    EXPECT_EQ(b.layout.findGlobal("nope"), -1);
}

TEST(Layout, ConstFlagPropagates)
{
    Built b = build("const int k = 5; int v;");
    EXPECT_TRUE(b.layout.object(0).isConst);
    EXPECT_FALSE(b.layout.object(1).isConst);
}

TEST(Layout, GlobalTopCoversAllObjects)
{
    Built b = build("int a[100]; char c[33]; int z;");
    for (const MemObject& o : b.layout.objects()) {
        if (o.isGlobal) {
            EXPECT_LE(o.address + o.size, b.layout.globalTop());
        }
    }
}

} // namespace
