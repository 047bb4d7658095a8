/**
 * @file
 * TargetSpec: the one description of *how* to compile and simulate.
 *
 * Historically the optimization level, memory system, simulation
 * engine (and now the fabric shape) each had their own flag and their
 * own parse function scattered across `driver_lib` and
 * `service/protocol.cpp`.  TargetSpec collapses that surface into a
 * single value type with one canonical string grammar:
 *
 *     opt=O2,mem=real2,engine=macro,fabric=4x4:hop2
 *
 * Every front end resolves through this type — `--target=SPEC`, the
 * only target flag of `cashc` and `cash`, and the service's
 * `options.target` (object or string form, docs/SCHEMAS.md) plus its
 * legacy `options.opt`/`mem`/`engine` keys — so the CLI and the
 * service can never drift.  `str()` renders the canonical form; it
 * round-trips through `parse()` and is the target fragment of the
 * service cache key, which is why every entry path produces
 * identical keys.
 */
#ifndef CASH_DRIVER_TARGET_SPEC_H
#define CASH_DRIVER_TARGET_SPEC_H

#include <string>

#include "fabric/fabric.h"
#include "opt/pass.h"
#include "sim/dataflow_sim.h"
#include "support/diagnostics.h"

namespace cash {

/** "none"/"medium"/"full" (also "0".."3", "O0".."O3") → level. */
Status parseOptLevel(const std::string& name, OptLevel* out);

/** perfect|real1|real2|real4 → MemConfig. */
Status parseMemSpec(const std::string& name, MemConfig* out);

/** event|macro → SimEngine (docs/SIMULATOR.md, macro-firing engine). */
Status parseSimEngine(const std::string& name, SimEngine* out);

/**
 * The compile/simulate target: opt level, memory system, simulation
 * engine and fabric shape.  Defaults are
 * `opt=full,mem=real2,engine=macro` with the idealized fabric.
 */
struct TargetSpec
{
    OptLevel level = OptLevel::Full;
    /** Memory system token (perfect|real1|real2|real4). */
    std::string mem = "real2";
    /** Simulation engine token (event|macro). */
    std::string engine = "macro";
    /** Tiled fabric; default (1x1) is the paper's idealized fabric. */
    FabricModel fabric;
    /**
     * Interprocedural optimization (`ipo=on|off`): whole-program
     * MOD/REF summaries feeding construction and the
     * `interproc_token_pruning` pass.  On by default; only effective
     * at opt=full (docs/FABRIC.md, docs/ANALYSIS.md).
     */
    bool interproc = true;

    /**
     * Parse the comma grammar (`opt=...,mem=...,engine=...,
     * fabric=...`) on top of the defaults.  Unknown keys and bad
     * values produce field-level error messages.
     */
    static Status parse(const std::string& spec, TargetSpec* out);

    /**
     * Apply @p spec's fields on top of the current value (fields not
     * named keep their setting) — repeated `--target` flags combine
     * this way, and the last setting of a field wins.
     */
    Status merge(const std::string& spec);

    /**
     * Set one field by key ("opt", "mem", "engine", "fabric", "ipo")
     * with full validation — the shared entry point for `parse`, the
     * service's legacy option keys and its `options.target` object
     * form.
     */
    Status setField(const std::string& key, const std::string& value);

    /**
     * Canonical spec string: `opt=<level>,mem=<mem>,engine=<engine>`
     * plus `,fabric=<spec>` when the fabric is non-default.
     * Round-trips through parse(); used verbatim as the target
     * fragment of the service cache key.
     */
    std::string str() const;

    /** Resolve the validated tokens into simulator inputs. */
    Status resolve(MemConfig* mc, SimEngine* se) const;

    // Fluent builder (append-only, like CompileOptions).
    TargetSpec& opt(OptLevel l) { level = l; return *this; }
    TargetSpec& memSystem(std::string m) { mem = std::move(m); return *this; }
    TargetSpec& simEngine(std::string e) { engine = std::move(e); return *this; }
    TargetSpec& fabricModel(FabricModel f) { fabric = f; return *this; }
    TargetSpec& interprocOpt(bool on) { interproc = on; return *this; }

    bool
    operator==(const TargetSpec& o) const
    {
        return level == o.level && mem == o.mem && engine == o.engine &&
               fabric == o.fabric && interproc == o.interproc;
    }
    bool operator!=(const TargetSpec& o) const { return !(*this == o); }
};

} // namespace cash

#endif // CASH_DRIVER_TARGET_SPEC_H
