/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation (§7): it compiles the kernel suite at the relevant
 * optimization levels, runs the spatial simulator on the relevant
 * memory systems, and prints the same rows/series the paper reports.
 */
#ifndef CASH_BENCH_BENCH_UTIL_H
#define CASH_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/kernels.h"
#include "driver/compiler.h"
#include "sim/dataflow_sim.h"
#include "support/strings.h"
#include "support/trace.h"

namespace cash {
namespace benchutil {

/**
 * Smoke mode (CASH_BENCH_SMOKE=1 in the environment): run a reduced
 * workload so CI can validate the binary and its JSON artifact in
 * seconds.  The artifact records which mode produced it.
 */
inline bool
smokeMode()
{
    const char* v = std::getenv("CASH_BENCH_SMOKE");
    return v && *v && std::string(v) != "0";
}

/** The kernel suite, truncated in smoke mode. */
inline std::vector<Kernel>
suiteForRun()
{
    std::vector<Kernel> ks = kernelSuite();
    if (smokeMode() && ks.size() > 2)
        ks.resize(2);
    return ks;
}

/** One typed cell value in a bench-report row. */
struct JsonValue
{
    enum class Kind { Str, Int, Num, Bool } kind = Kind::Int;
    std::string s;
    int64_t i = 0;
    double num = 0;

    JsonValue(const char* v) : kind(Kind::Str), s(v) {}
    JsonValue(const std::string& v) : kind(Kind::Str), s(v) {}
    JsonValue(int v) : kind(Kind::Int), i(v) {}
    JsonValue(int64_t v) : kind(Kind::Int), i(v) {}
    JsonValue(uint64_t v) : kind(Kind::Int), i(static_cast<int64_t>(v)) {}
    JsonValue(double v) : kind(Kind::Num), num(v) {}
    JsonValue(bool v) : kind(Kind::Bool), i(v) {}

    std::string
    str() const
    {
        switch (kind) {
          case Kind::Str: return '"' + jsonEscape(s).append("\"");
          case Kind::Int: return std::to_string(i);
          case Kind::Bool: return i ? "true" : "false";
          case Kind::Num: {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.6g", num);
            return buf;
          }
        }
        return "null";
    }
};

/** An ordered key→value record (one row, or the meta block). */
using JsonRow = std::vector<std::pair<std::string, JsonValue>>;

/**
 * Accumulates one benchmark's results and writes the
 * `BENCH_<name>.json` artifact (schema "cash-bench-v1", see
 * docs/OBSERVABILITY.md) into the current directory, so each bench
 * run leaves a machine-diffable record next to its textual table.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    void meta(const std::string& key, JsonValue v)
    {
        meta_.emplace_back(key, std::move(v));
    }

    void addRow(JsonRow row) { rows_.push_back(std::move(row)); }

    /** Write BENCH_<name>.json; prints a note with the path. */
    bool
    write() const
    {
        std::string path = "BENCH_" + name_ + ".json";
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         path.c_str());
            return false;
        }
        os << "{\n  \"schema\": \"cash-bench-v1\",\n"
           << "  \"bench\": \"" << jsonEscape(name_) << "\",\n"
           << "  \"smoke\": " << (smokeMode() ? "true" : "false")
           << ",\n  \"meta\": {";
        writeRowBody(os, meta_, "    ");
        os << "},\n  \"rows\": [";
        bool first = true;
        for (const JsonRow& row : rows_) {
            os << (first ? "\n" : ",\n") << "    {";
            writeRowBody(os, row, "      ");
            os << "}";
            first = false;
        }
        os << "\n  ]\n}\n";
        std::printf("\n[wrote %s]\n", path.c_str());
        return true;
    }

  private:
    static void
    writeRowBody(std::ofstream& os, const JsonRow& row,
                 const std::string& pad)
    {
        bool first = true;
        for (const auto& [k, v] : row) {
            os << (first ? "\n" : ",\n") << pad << "\"" << jsonEscape(k)
               << "\": " << v.str();
            first = false;
        }
        if (!first)
            os << "\n" << pad.substr(0, pad.size() - 2);
    }

    std::string name_;
    JsonRow meta_;
    std::vector<JsonRow> rows_;
};

/** Compile @p k at @p level (verification on). */
inline CompileResult
compileKernel(const Kernel& k, OptLevel level)
{
    return compileSource(k.source, CompileOptions().opt(level));
}

/** Compile and simulate @p k; returns the SimResult. */
inline SimResult
runKernel(const Kernel& k, OptLevel level, const MemConfig& mem)
{
    CompileResult r = compileKernel(k, level);
    DataflowSimulator sim(r.graphPtrs(), *r.layout, mem);
    return sim.run(k.entry, k.args);
}

/** Monotonic wall clock in microseconds, for timing bench loops. */
inline int64_t
nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** printf a horizontal rule of @p width characters. */
inline void
rule(int width)
{
    for (int i = 0; i < width; i++)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

inline std::string
pct(int64_t removed, int64_t total)
{
    if (total == 0)
        return "0.0%";
    return fmtDouble(100.0 * static_cast<double>(removed) /
                         static_cast<double>(total),
                     1) +
           "%";
}

} // namespace benchutil
} // namespace cash

#endif // CASH_BENCH_BENCH_UTIL_H
