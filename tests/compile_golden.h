/**
 * @file
 * Golden compile fingerprints (tests/data/compile_golden.txt), shared
 * by the test that checks them (test_compile_golden.cpp) and the tool
 * that writes them (compile_golden_gen.cpp).
 *
 * One line per driver request:
 *
 *   <label> exit=<n> doc=<h> dot=<h> findings=<h>
 *
 * where each <h> is the FNV-1a 64 digest of, in turn, the request's
 * deterministic `cash-stats-v1` document (compile counters, pass
 * diagnostics and lint findings, wall-clock keys stripped), its DOT
 * rendering and its lint findings, one LintFinding::str() a line.
 * The requests cover:
 *   - every kernel at opt=medium and opt=full, with and without
 *     --verify-each-pass, all lints on;
 *   - the gen-compile corpus of perfbench: generator 'calls' programs
 *     with 3-6 helpers and at most 4 statements a block, seeds 1-96,
 *     all lints on;
 *   - one `graph.corrupt-token` injection per registered pass, once
 *     caught by the structural verifier and once by the per-pass
 *     ordering checker alone (--no-verify --verify-each-pass is not a
 *     CLI spelling, but it is a DriverRequest).
 */
#ifndef CASH_TESTS_COMPILE_GOLDEN_H
#define CASH_TESTS_COMPILE_GOLDEN_H

#include <string>
#include <vector>

#include "benchsuite/kernels.h"
#include "driver/driver_lib.h"
#include "fuzz/generator.h"
#include "opt/pass.h"
#include "service/protocol.h"
#include "support/fault_injection.h"

namespace cash {
namespace compile_golden {

/** One request's fingerprint, keyed by its label. */
struct Line
{
    std::string label;
    std::string text;
};

/** Generated programs in the gen-compile corpus (seeds 1..N). */
constexpr uint64_t kGenPrograms = 96;

/** Run @p req and fingerprint its reply under @p label. */
inline Line
requestLine(const std::string& label, DriverRequest req)
{
    req.jobs = 1;
    req.wantDot = true;
    DriverReply rep = runDriverRequest(req);
    std::string findings;
    for (const LintFinding& f : rep.findings)
        findings += f.str() + "\n";
    Line g;
    g.label = label;
    g.text = label + " exit=" + std::to_string(rep.exitCode) +
             " doc=" +
             fnv1a64Hex(statsJsonDocument(rep, statsJsonMeta(req, label),
                                          /*deterministic=*/true)) +
             " dot=" + fnv1a64Hex(rep.dot) +
             " findings=" + fnv1a64Hex(findings);
    return g;
}

/** The four requests of kernel @p k: medium/full x per-pass checks. */
inline std::vector<Line>
kernelLines(const Kernel& k)
{
    std::vector<Line> out;
    for (OptLevel level : {OptLevel::Medium, OptLevel::Full})
        for (bool each : {false, true}) {
            DriverRequest req;
            req.source = k.source;
            req.target.level = level;
            req.orderingChecks = each;
            req.analyze = true;
            out.push_back(requestLine(
                "kernel " + k.name + " " + optLevelName(level) +
                    (each ? " verify-each-pass" : " default"),
                req));
        }
    return out;
}

/** Source of the gen-compile corpus program with generator seed @p s. */
inline std::string
genSource(uint64_t s)
{
    fuzz::GenProfile prof = fuzz::GenProfile::byName("calls");
    prof.minFunctions = 3;
    prof.maxFunctions = 6;
    prof.maxStmts = 4;
    return fuzz::generateProgram(s, prof).render();
}

/** The gen-compile request (compile + all lints) of seed @p s. */
inline Line
genLine(uint64_t s)
{
    DriverRequest req;
    req.source = genSource(s);
    req.analyze = true;
    return requestLine("gen calls-" + std::to_string(s), req);
}

/**
 * Corrupt a token edge after round 1 of @p pass on a multi-call
 * kernel: once with the structural verifier on (a verify_error
 * rollback), once with only the per-pass ordering checker
 * (an analysis_error rollback).
 */
inline std::vector<Line>
injectLines(const std::string& pass)
{
    std::vector<Line> out;
    const FaultPlan plan =
        FaultPlan::parse("graph.corrupt-token:pass=" + pass + ",round=1");
    for (bool verify : {true, false}) {
        DriverRequest req;
        req.source = kernelByName("helperdot").source;
        req.verify = verify;
        req.orderingChecks = !verify;
        req.analyze = true;
        req.faults = &plan;
        out.push_back(requestLine("inject " + pass +
                                      (verify ? " verifier" : " checker"),
                                  req));
    }
    return out;
}

} // namespace compile_golden
} // namespace cash

#endif // CASH_TESTS_COMPILE_GOLDEN_H
