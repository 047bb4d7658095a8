#include "analysis/modref.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/strings.h"
#include "support/trace.h"

namespace cash {

namespace {

/** One call instruction, positioned for deterministic reporting. */
struct CallRef
{
    int block = -1;
    int index = -1;
    Instr* instr = nullptr;
    int calleeIdx = -1;  ///< Index into cfg.functions, -1 = unknown.
};

/**
 * Translate a callee-space location set into the caller's space at
 * one call site: concrete objects (globals and callee frame slots)
 * pass through, the callee's pointer-param externals are replaced by
 * the caller's points-to set for the matching argument, and any
 * unknown binding degrades to Top.
 */
LocationSet
translateSet(const LocationSet& s, int calleeIdx, const Instr& call,
             const CfgProgram& cfg, int numObjects)
{
    if (s.isTop())
        return LocationSet::top();
    LocationSet out;
    const std::vector<int>& plocs = cfg.paramLocation[calleeIdx];
    for (int loc : s.locations()) {
        if (loc < numObjects) {
            out.insert(loc);
            continue;
        }
        int param = -1;
        for (size_t p = 0; p < plocs.size(); p++) {
            if (plocs[p] == loc) {
                param = static_cast<int>(p);
                break;
            }
        }
        if (param < 0 ||
            param >= static_cast<int>(call.argPts.size()))
            return LocationSet::top();
        const LocationSet& arg = call.argPts[param];
        if (arg.isTop() || arg.empty())
            return LocationSet::top();
        out.unionWith(arg);
    }
    return out;
}

/** Iterative Tarjan SCC over the call graph (caller → callee). */
void
condense(const std::vector<std::vector<int>>& succ,
         std::vector<int>* sccOf, int* numSccs)
{
    int n = static_cast<int>(succ.size());
    sccOf->assign(n, -1);
    std::vector<int> low(n, -1), disc(n, -1), stack;
    std::vector<bool> onStack(n, false);
    int time = 0, comps = 0;

    struct Frame
    {
        int v;
        size_t edge;
    };
    for (int root = 0; root < n; root++) {
        if (disc[root] >= 0)
            continue;
        std::vector<Frame> frames{{root, 0}};
        disc[root] = low[root] = time++;
        stack.push_back(root);
        onStack[root] = true;
        while (!frames.empty()) {
            Frame& f = frames.back();
            if (f.edge < succ[f.v].size()) {
                int w = succ[f.v][f.edge++];
                if (disc[w] < 0) {
                    disc[w] = low[w] = time++;
                    stack.push_back(w);
                    onStack[w] = true;
                    frames.push_back({w, 0});
                } else if (onStack[w]) {
                    low[f.v] = std::min(low[f.v], disc[w]);
                }
                continue;
            }
            if (low[f.v] == disc[f.v]) {
                // Components complete callee-side first, so walking
                // them in id order is reverse-topological: every
                // callee summary is final before its callers run.
                int w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    (*sccOf)[w] = comps;
                } while (w != f.v);
                comps++;
            }
            int v = f.v;
            frames.pop_back();
            if (!frames.empty())
                low[frames.back().v] =
                    std::min(low[frames.back().v], low[v]);
        }
    }
    *numSccs = comps;
}

std::string
setJson(const ModRefSummaries& s, const LocationSet& set)
{
    if (set.isTop())
        return "[\"<top>\"]";
    std::string out = "[";
    bool first = true;
    for (int loc : set.locations()) {
        out += (first ? "\"" : ", \"") + jsonEscape(s.locName(loc)) +
               "\"";
        first = false;
    }
    return out + "]";
}

} // namespace

std::string
ModRefSummaries::locName(int loc) const
{
    if (loc >= 0 && loc < static_cast<int>(locNames_.size()) &&
        !locNames_[loc].empty())
        return locNames_[loc];
    return "loc" + std::to_string(loc);
}

std::string
ModRefSummaries::setStr(const LocationSet& s) const
{
    if (s.isTop())
        return "{top}";
    std::string out = "{";
    bool first = true;
    for (int loc : s.locations()) {
        if (!first)
            out += ",";
        out += locName(loc);
        first = false;
    }
    return out + "}";
}

std::string
ModRefSummaries::dump() const
{
    std::ostringstream os;
    for (const FunctionModRef& f : functions_) {
        os << "function " << f.name << ": ref=" << setStr(f.ref)
           << " mod=" << setStr(f.mod);
        if (f.recursive)
            os << " recursive";
        os << " scc=" << f.scc << " callsites=" << f.callSites
           << "\n";
        for (const CallSiteModRef& c : callSites_) {
            if (c.caller != f.name)
                continue;
            os << "  call " << c.callee << " @b" << c.block << ".i"
               << c.index << ": reads=" << setStr(c.reads)
               << " writes=" << setStr(c.writes) << "\n";
        }
    }
    return os.str();
}

std::string
ModRefSummaries::json() const
{
    std::ostringstream os;
    os << "{\n    \"functions\": [";
    bool firstFn = true;
    for (const FunctionModRef& f : functions_) {
        os << (firstFn ? "\n" : ",\n") << "      {\"function\": \""
           << jsonEscape(f.name) << "\", \"recursive\": "
           << (f.recursive ? "true" : "false") << ", \"scc\": "
           << f.scc << ",\n       \"ref\": " << setJson(*this, f.ref)
           << ", \"mod\": " << setJson(*this, f.mod)
           << ",\n       \"calls\": [";
        bool firstCall = true;
        for (const CallSiteModRef& c : callSites_) {
            if (c.caller != f.name)
                continue;
            os << (firstCall ? "\n" : ",\n")
               << "         {\"callee\": \"" << jsonEscape(c.callee)
               << "\", \"block\": " << c.block << ", \"index\": "
               << c.index << ", \"reads\": " << setJson(*this, c.reads)
               << ", \"writes\": " << setJson(*this, c.writes) << "}";
            firstCall = false;
        }
        os << (firstCall ? "]}" : "\n       ]}");
        firstFn = false;
    }
    os << "\n    ]\n  }";
    return os.str();
}

ModRefSummaries
computeModRef(CfgProgram& cfg, const MemoryLayout& layout,
              bool stampCalls)
{
    ModRefSummaries out;
    const int n = static_cast<int>(cfg.functions.size());
    const int numObjects = static_cast<int>(layout.objects().size());

    std::map<const FuncDecl*, int> index;
    for (int i = 0; i < n; i++)
        index[cfg.functions[i]->decl] = i;

    // Location names: objects first, then pointer-param externals.
    int maxLoc = numObjects;
    for (const std::vector<int>& plocs : cfg.paramLocation)
        for (int loc : plocs)
            maxLoc = std::max(maxLoc, loc + 1);
    out.locNames_.assign(maxLoc, std::string());
    for (const MemObject& obj : layout.objects())
        out.locNames_[obj.id] =
            obj.func ? obj.func->name + "." + obj.name : obj.name;
    for (int fi = 0; fi < n; fi++) {
        const FuncDecl* decl = cfg.functions[fi]->decl;
        const std::vector<int>& plocs = cfg.paramLocation[fi];
        for (size_t p = 0; p < plocs.size(); p++)
            if (plocs[p] >= 0)
                out.locNames_[plocs[p]] =
                    decl->name + "." + decl->params[p]->name;
    }

    // Call graph.
    std::vector<std::vector<CallRef>> calls(n);
    std::vector<std::vector<int>> succ(n);
    for (int fi = 0; fi < n; fi++) {
        for (const auto& b : cfg.functions[fi]->blocks) {
            for (size_t ii = 0; ii < b->instrs.size(); ii++) {
                Instr& instr = b->instrs[ii];
                if (instr.kind != InstrKind::Call)
                    continue;
                CallRef cr;
                cr.block = b->id;
                cr.index = static_cast<int>(ii);
                cr.instr = &instr;
                auto it = instr.callee ? index.find(instr.callee)
                                       : index.end();
                if (it != index.end()) {
                    cr.calleeIdx = it->second;
                    succ[fi].push_back(it->second);
                }
                calls[fi].push_back(cr);
            }
        }
    }

    std::vector<int> sccOf;
    int numSccs = 0;
    condense(succ, &sccOf, &numSccs);
    std::vector<std::vector<int>> comps(numSccs);
    for (int fi = 0; fi < n; fi++)
        comps[sccOf[fi]].push_back(fi);
    std::vector<bool> recursive(n, false);
    for (int fi = 0; fi < n; fi++) {
        if (comps[sccOf[fi]].size() > 1)
            recursive[fi] = true;
        for (int s : succ[fi])
            if (s == fi)
                recursive[fi] = true;
    }

    // Bottom-up summaries; nontrivial SCCs iterate to a fixpoint
    // (location sets only grow, the universe is finite).
    std::vector<LocationSet> ref(n), mod(n);
    for (int c = 0; c < numSccs; c++) {
        bool changed = true;
        int rounds = 0;
        while (changed && rounds++ < 64) {
            changed = false;
            for (int fi : comps[c]) {
                LocationSet r, m;
                for (const CallRef& cr : calls[fi]) {
                    if (cr.calleeIdx < 0) {
                        r = LocationSet::top();
                        m = LocationSet::top();
                        break;
                    }
                    r.unionWith(translateSet(ref[cr.calleeIdx],
                                             cr.calleeIdx, *cr.instr,
                                             cfg, numObjects));
                    m.unionWith(translateSet(mod[cr.calleeIdx],
                                             cr.calleeIdx, *cr.instr,
                                             cfg, numObjects));
                }
                for (const auto& b : cfg.functions[fi]->blocks) {
                    for (const Instr& i : b->instrs) {
                        if (i.kind == InstrKind::Load)
                            r.unionWith(i.rwSet);
                        else if (i.kind == InstrKind::Store)
                            m.unionWith(i.rwSet);
                    }
                }
                if (!(r == ref[fi]) || !(m == mod[fi])) {
                    ref[fi] = std::move(r);
                    mod[fi] = std::move(m);
                    changed = true;
                }
            }
        }
    }

    // Publish function rows and resolve every call site with the
    // converged summaries.
    for (int fi = 0; fi < n; fi++) {
        FunctionModRef fr;
        fr.name = cfg.functions[fi]->decl->name;
        fr.decl = cfg.functions[fi]->decl;
        fr.ref = ref[fi];
        fr.mod = mod[fi];
        fr.recursive = recursive[fi];
        fr.scc = sccOf[fi];
        fr.callSites = static_cast<int>(calls[fi].size());
        out.functions_.push_back(std::move(fr));

        for (const CallRef& cr : calls[fi]) {
            CallSiteModRef site;
            site.caller = cfg.functions[fi]->decl->name;
            site.callee = cr.instr->callee ? cr.instr->callee->name
                                           : "<unknown>";
            site.block = cr.block;
            site.index = cr.index;
            if (cr.calleeIdx >= 0) {
                site.reads = translateSet(ref[cr.calleeIdx],
                                          cr.calleeIdx, *cr.instr,
                                          cfg, numObjects);
                site.writes = translateSet(mod[cr.calleeIdx],
                                           cr.calleeIdx, *cr.instr,
                                           cfg, numObjects);
            } else {
                site.reads = LocationSet::top();
                site.writes = LocationSet::top();
            }
            if (stampCalls) {
                cr.instr->callReads = site.reads;
                cr.instr->callWrites = site.writes;
                cr.instr->callEffectsValid = true;
            }
            out.callSites_.push_back(std::move(site));
        }
    }
    return out;
}

} // namespace cash
