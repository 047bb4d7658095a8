/**
 * @file
 * Property-based differential testing: randomly generated structured
 * Mini-C programs are executed by the golden interpreter and by the
 * spatial simulator at every optimization level; results and final
 * memory images must agree.
 *
 * The generator emits only well-defined programs: array indices are
 * masked into range, loops are bounded, and division is guarded.
 */
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "test_util.h"

using namespace cash;

namespace {

class ProgramGen
{
  public:
    explicit ProgramGen(uint32_t seed) : rng_(seed) {}

    std::string
    generate()
    {
        std::ostringstream os;
        os << "int A[16];\nint B[16];\nint g1;\nint g2;\n";
        os << "int f(int p0, int p1) {\n";
        vars_ = {"p0", "p1"};
        int nv = 2 + pick(3);
        for (int i = 0; i < nv; i++) {
            std::string v = std::string("v").append(std::to_string(i));
            os << "  int " << v << " = " << expr(2) << ";\n";
            vars_.push_back(v);
        }
        mutableCount_ = vars_.size();  // loop iterators stay read-only
        int ns = 3 + pick(5);
        for (int i = 0; i < ns; i++)
            os << stmt(2);
        os << "  return " << expr(2) << " + g1 + g2 + A["
           << idx("p0") << "] + B[" << idx("p1") << "];\n";
        os << "}\n";
        return os.str();
    }

  private:
    int pick(int n) { return static_cast<int>(rng_() % n); }

    std::string
    var()
    {
        return vars_[static_cast<size_t>(pick(
            static_cast<int>(vars_.size())))];
    }

    std::string
    idx(const std::string& e)
    {
        return "(" + e + ") & 15";
    }

    std::string
    expr(int depth)
    {
        if (depth <= 0 || pick(3) == 0) {
            switch (pick(4)) {
              case 0: return std::to_string(pick(100) - 50);
              case 1: return var();
              case 2: return "A[" + idx(var()) + "]";
              default: return "B[" + idx(var()) + "]";
            }
        }
        static const char* ops[] = {"+", "-", "*",  "&", "|",
                                    "^", "<", "==", ">>"};
        std::string op = ops[pick(9)];
        std::string lhs = expr(depth - 1);
        std::string rhs = expr(depth - 1);
        if (op == ">>")
            rhs = "(" + rhs + " & 7)";
        return "(" + lhs + " " + op + " " + rhs + ")";
    }

    std::string
    lhs()
    {
        switch (pick(4)) {
          case 0: return "g1";
          case 1: return "g2";
          case 2: return "A[" + idx(var()) + "]";
          default: return "B[" + idx(var()) + "]";
        }
    }

    std::string
    stmt(int depth)
    {
        std::ostringstream os;
        switch (pick(depth > 0 ? 5 : 2)) {
          case 0:
            os << "  " << lhs() << " = " << expr(2) << ";\n";
            break;
          case 1:
            os << "  "
               << vars_[static_cast<size_t>(
                      pick(static_cast<int>(mutableCount_)))]
               << " = " << expr(2) << ";\n";
            break;
          case 2:
            os << "  if (" << expr(1) << ") {\n"
               << stmt(depth - 1) << "  } else {\n"
               << stmt(depth - 1) << "  }\n";
            break;
          case 3: {
            // Bounded counted loop over a fresh iterator.
            std::string it = "i" + std::to_string(loopId_++);
            os << "  { int " << it << ";\n"
               << "  for (" << it << " = 0; " << it << " < "
               << (2 + pick(14)) << "; " << it << "++) {\n";
            vars_.push_back(it);
            os << stmt(depth - 1);
            vars_.pop_back();
            os << "  } }\n";
            break;
          }
          default:
            os << "  " << lhs() << " += " << expr(1) << ";\n";
            break;
        }
        return os.str();
    }

    std::mt19937 rng_;
    std::vector<std::string> vars_;
    size_t mutableCount_ = 0;
    int loopId_ = 0;
};

class DifferentialTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DifferentialTest, SimulatorMatchesInterpreterEverywhere)
{
    ProgramGen gen(GetParam());
    std::string src = gen.generate();
    SCOPED_TRACE(src);

    std::vector<uint32_t> args = {GetParam() % 13,
                                  (GetParam() / 7) % 11};

    // Golden run.
    Program prog = parseProgram(src);
    analyzeProgram(prog);
    MemoryLayout layout;
    layout.build(prog);
    Interpreter interp(prog, layout);
    InterpResult want = interp.call("f", args);

    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        CompileResult r =
            compileSource(src, CompileOptions().opt(level));
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory());
        SimResult got = sim.run("f", args);
        ASSERT_EQ(got.returnValue, want.returnValue)
            << "level " << optLevelName(level);

        // The whole final global segment must match the interpreter's.
        for (const MemObject& obj : r.layout->objects()) {
            if (!obj.isGlobal)
                continue;
            for (uint32_t a = obj.address;
                 a + 4 <= obj.address + obj.size; a += 4) {
                ASSERT_EQ(sim.memory().loadWord(a),
                          interp.loadWord(a))
                    << "level " << optLevelName(level) << " object "
                    << obj.name << " addr " << a;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DifferentialTest,
                         ::testing::Range(1u, 41u));

TEST(Differential, RecursionHeavyActivationRecycling)
{
    // Deep mutual/tree recursion churns through thousands of
    // activations while only a handful are live at once, exercising
    // the simulator's activation free list.  Run twice per level to
    // catch recycle-order nondeterminism.
    const std::string src = R"(
        int fib(int n) {
            if (n < 2)
                return n;
            return fib(n - 1) + fib(n - 2);
        }
        int ack(int m, int n) {
            if (m == 0)
                return n + 1;
            if (n == 0)
                return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        int run(int n) { return fib(n) + ack(2, n % 4); }
    )";
    const std::vector<uint32_t> args = {12};
    uint32_t want = testutil::interpret(src, "run", args);

    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        CompileResult r =
            compileSource(src, CompileOptions().opt(level));
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory());
        SimResult first = sim.run("run", args);
        ASSERT_EQ(first.returnValue, want)
            << "level " << optLevelName(level);
        // Recursion depth stays bounded, so most activations must be
        // served from the free list rather than freshly allocated.
        EXPECT_GT(first.stats.get("sim.act.recycled"), 0)
            << "level " << optLevelName(level);
        EXPECT_LT(first.stats.get("sim.act.allocated"),
                  first.stats.get("sim.act.spawned"))
            << "level " << optLevelName(level);

        sim.reset();
        SimResult second = sim.run("run", args);
        EXPECT_EQ(second.returnValue, want);
        EXPECT_EQ(second.cycles, first.cycles)
            << "level " << optLevelName(level);
    }
}

TEST(Differential, RealisticMemoryToo)
{
    // A smaller sweep under the realistic hierarchy: timing-dependent
    // scheduling must never change results.
    for (uint32_t seed = 100; seed < 110; seed++) {
        ProgramGen gen(seed);
        std::string src = gen.generate();
        SCOPED_TRACE(src);
        uint32_t want = testutil::interpret(src, "f", {3, 4});
        SimResult got =
            testutil::simulate(src, "f", {3, 4}, OptLevel::Full,
                               MemConfig::realistic(1));
        ASSERT_EQ(got.returnValue, want);
    }
}

} // namespace
