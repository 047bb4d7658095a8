/**
 * @file
 * The reusable driver: one structured request → one structured reply.
 *
 * `cashc` (the CLI) and `cashd` (the compile service, docs/SERVICE.md)
 * run the exact same workflow — compile, optionally analyze,
 * optionally simulate — so the workflow lives here, behind plain data
 * types.  The request flags `cashc` and the `cash` client share are
 * parsed here too (parseRequestFlag); both print a reply through the
 * one renderer of its service result body (service/protocol.h).
 *
 * Determinism contract: for a fixed DriverRequest (and no fault
 * plan), every field of DriverReply except wall-clock counters is
 * byte-identical across runs, threads and job counts — that is what
 * makes service results cacheable.  `stripWallClock()` removes the
 * only nondeterministic keys; `statsJsonDocument()` then renders a
 * stable `cash-stats-v1` document (docs/SCHEMAS.md).
 */
#ifndef CASH_DRIVER_DRIVER_LIB_H
#define CASH_DRIVER_DRIVER_LIB_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "driver/compiler.h"
#include "driver/target_spec.h"
#include "sim/dataflow_sim.h"
#include "support/diagnostics.h"

namespace cash {

/** Release version of the cash toolchain (cashc, cashd, cash). */
inline constexpr const char* kCashVersion = "0.8.0";

/** "<tool> <version> (<wire schema>, protocol <n>)". */
std::string versionString(const std::string& tool);

/**
 * Everything one driver invocation needs.  All fields have usable
 * defaults; `source` is the only required one.
 */
struct DriverRequest
{
    /** Mini-C source text (not a path — callers do their own I/O). */
    std::string source;
    /** Opt level, memory system, sim engine and fabric — one value
     *  type with one grammar (driver/target_spec.h). */
    TargetSpec target;
    /** Custom pipeline (PassRegistry names); empty = standard of level. */
    std::vector<std::string> passNames;
    /** Optimization worker threads; 0 = hardware, 1 = serial. */
    int jobs = 0;
    bool verify = true;
    /** Independent ordering checker after every pass (--verify-each-pass). */
    bool orderingChecks = false;
    bool strict = false;

    bool analyze = false;
    bool analyzeStrict = false;
    /** Lint rule subset; empty = standardLintNames(). */
    std::vector<std::string> analyzeRules;

    /** Simulation spec "f(1,2)"; empty = do not simulate. */
    std::string runSpec;
    /** Simulator event budget; 0 = unlimited. */
    uint64_t maxEvents = 0;
    /** Simulator wall-clock budget in ms; 0 = unlimited. */
    int64_t simWallMs = 0;

    /** Extra artifacts to render into the reply. */
    bool wantCfg = false;
    bool wantGraphText = false;
    bool wantDot = false;
    /** Render the MOD/REF summaries (`cashc --dump-summaries`; also
     *  turns on the stats-JSON `analysis.summaries` block). */
    bool dumpSummaries = false;

    /** Deterministic fault injection (testing); may be null. */
    const FaultPlan* faults = nullptr;
    /** Observability sink; may be null.  NOT thread-safe to share. */
    TraceRecorder* tracer = nullptr;
};

/** Everything one driver invocation produced. */
struct DriverReply
{
    /**
     * Process-style exit code: 0 healthy; 1 on rolled-back passes, a
     * degraded simulation or a fatal error; 2 on error-severity
     * findings under analyzeStrict.
     */
    int exitCode = 0;

    StatSet compileStats;
    std::vector<PassFailure> diagnostics;

    bool ranAnalysis = false;
    std::vector<LintFinding> findings;
    int64_t analysisErrors = 0;
    int64_t analysisWarnings = 0;
    int64_t analysisInfos = 0;
    /** analyzeStrict saw errors: simulation was skipped. */
    bool analysisBlockedRun = false;

    bool ranSim = false;
    SimOutcome simOutcome = SimOutcome::Ok;
    uint32_t returnValue = 0;
    uint64_t cycles = 0;
    StatSet simStats;
    std::string simError;
    /** DeadlockReport rendering; empty unless outcome == Deadlock. */
    std::string deadlockText;
    /** Resolved memory-config display name (e.g. "realistic-2"). */
    std::string memName;

    std::string cfgText;
    std::string graphText;
    std::string dot;
    /** MOD/REF summary dump (text form); empty unless requested. */
    std::string summariesText;
    /** `analysis.summaries` JSON body; empty unless requested. */
    std::string summariesJson;

    /** FatalError message; empty on non-fatal runs. */
    std::string fatal;
};

/**
 * Run compile [+ analyze] [+ simulate] per @p req.  Never throws:
 * FatalError (syntax errors, unknown passes, bad specs, strict-mode
 * pass failures) lands in `reply.fatal` with exitCode 1.
 */
DriverReply runDriverRequest(const DriverRequest& req);

/** Outcome of offering one argv element to parseRequestFlag(). */
enum class RequestFlag
{
    NotMine,  ///< Not a shared request flag; the front end decides.
    Consumed, ///< Applied to the request (with its value, if any).
    Bad,      ///< A request flag with a missing or invalid value.
};

/**
 * The one request-flag grammar of `cashc` and `cash compile`: exactly
 * the DriverRequest fields a `cash-svc-v1` request carries.
 *
 *   --target SPEC        compile/simulate target (target_spec.h), e.g.
 *                        opt=O2,mem=real2,engine=macro,fabric=4x4:hop2;
 *                        repeated flags merge field-wise, last wins
 *   --passes a,b,c       custom pass pipeline (PassRegistry names)
 *   --run f(1,2)         simulate calling f with integer args
 *   --max-events N       simulator event budget (livelock guard)
 *   --strict             pass failures are fatal, not rolled back
 *   --verify-each-pass   verifier + ordering checker after every pass
 *                        that changed the graph
 *   --no-verify          skip graph verification entirely
 *   --analyze[=r1,r2]    run the lint rules (default: all)
 *   --analyze-strict     error findings exit 2 and skip simulation
 *   --dump-cfg | --dump-graph | --dot    print the CFG / graphs / dot
 *
 * Value flags take the value as the next argument or after '='.
 * Tries argv[*i]; on Consumed, *i points at the last argument used.
 * On Bad, @p error names the problem.
 */
RequestFlag parseRequestFlag(int argc, char** argv, int* i,
                             DriverRequest* req, std::string* error);

/** Usage-text lines for the flags parseRequestFlag() accepts. */
extern const char* const kRequestFlagUsage;

/** "f(1,2,-3)" (or bare "f") → function name + argument values. */
Status parseRunSpec(const std::string& spec, std::string* function,
                    std::vector<uint32_t>* args);

/**
 * Copy of @p stats without wall-clock counters ("time.*" prefix,
 * "*.time_us" suffix) — everything that remains is deterministic for
 * a fixed request, so it can be cached and byte-compared.
 */
StatSet stripWallClock(const StatSet& stats);

/** Request-identity block of a `cash-stats-v1` document. */
struct StatsJsonMeta
{
    std::string file; ///< Source label (path or request tag).
    std::string run;  ///< runSpec as requested.
    std::string mem;  ///< memSpec as requested.
    OptLevel level = OptLevel::Full;
    /** Canonical TargetSpec::str(); rendered only when non-empty
     *  (set for non-default fabrics, so idealized-fabric documents
     *  stay byte-identical to the pre-fabric schema). */
    std::string target;
};

/** The meta block of @p req's stats document, labelled @p file. */
StatsJsonMeta statsJsonMeta(const DriverRequest& req,
                            const std::string& file);

/**
 * Render @p rep as a `cash-stats-v1` JSON document (docs/SCHEMAS.md):
 * meta block from @p meta and the reply's exit/fatal/sim errors, then
 * diagnostics, analysis findings, compile counters, sim counters.
 * With @p deterministic, wall-clock counters are stripped (the
 * service uses this; `cashc --stats-json` keeps them).
 */
std::string statsJsonDocument(const DriverReply& rep,
                              const StatsJsonMeta& meta,
                              bool deterministic = false);

} // namespace cash

#endif // CASH_DRIVER_DRIVER_LIB_H
