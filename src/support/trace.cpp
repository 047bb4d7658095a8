#include "support/trace.h"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace cash {

namespace {

uint64_t
wallNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
writeArgs(std::ostream& os, const std::vector<TraceArg>& args)
{
    os << "{";
    bool first = true;
    for (const TraceArg& a : args) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(a.key) << "\":";
        if (a.isString)
            os << "\"" << jsonEscape(a.s) << "\"";
        else
            os << a.i;
    }
    os << "}";
}

} // namespace

TraceRecorder::TraceRecorder() : originNs_(wallNs()) {}

uint64_t
TraceRecorder::nowUs() const
{
    return (wallNs() - originNs_) / 1000;
}

bool
TraceRecorder::push(TraceEvent ev)
{
    if (!enabled_)
        return false;
    if (events_.size() >= maxEvents_) {
        dropped_++;
        return false;
    }
    ev.tid = trackId_;
    events_.push_back(std::move(ev));
    return true;
}

void
TraceRecorder::syncClockTo(const TraceRecorder& parent)
{
    originNs_ = parent.originNs_;
}

void
TraceRecorder::append(const TraceRecorder& other)
{
    if (!enabled_)
        return;
    for (const TraceEvent& ev : other.events_) {
        if (events_.size() >= maxEvents_) {
            dropped_++;
            continue;
        }
        events_.push_back(ev);
    }
    dropped_ += other.dropped_;
}

void
TraceRecorder::completeEvent(const std::string& name,
                             const std::string& cat, uint64_t startUs,
                             uint64_t durUs, std::vector<TraceArg> args,
                             int pid)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.phase = 'X';
    ev.pid = pid;
    ev.ts = startUs;
    ev.dur = durUs;
    ev.args = std::move(args);
    push(std::move(ev));
}

void
TraceRecorder::counterEvent(const std::string& name, uint64_t ts,
                            int64_t v, int pid)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = "counter";
    ev.phase = 'C';
    ev.pid = pid;
    ev.ts = ts;
    ev.args.emplace_back("value", v);
    push(std::move(ev));
}

void
TraceRecorder::instantEvent(const std::string& name,
                            const std::string& cat, uint64_t ts, int pid)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.phase = 'i';
    ev.pid = pid;
    ev.ts = ts;
    push(std::move(ev));
}

std::vector<const TraceEvent*>
TraceRecorder::byCategory(const std::string& cat) const
{
    std::vector<const TraceEvent*> out;
    for (const TraceEvent& ev : events_)
        if (ev.cat == cat)
            out.push_back(&ev);
    return out;
}

void
TraceRecorder::clear()
{
    events_.clear();
    dropped_ = 0;
    originNs_ = wallNs();
}

void
TraceRecorder::writeChromeTrace(std::ostream& os) const
{
    os << "{\"traceEvents\":[\n";
    bool first = true;
    for (const TraceEvent& ev : events_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":\"" << jsonEscape(ev.name) << "\","
           << "\"cat\":\"" << jsonEscape(ev.cat) << "\","
           << "\"ph\":\"" << ev.phase << "\","
           << "\"pid\":" << ev.pid << ",\"tid\":" << ev.tid << ","
           << "\"ts\":" << ev.ts;
        if (ev.phase == 'X')
            os << ",\"dur\":" << ev.dur;
        if (ev.phase == 'i')
            os << ",\"s\":\"t\"";
        if (!ev.args.empty()) {
            os << ",\"args\":";
            writeArgs(os, ev.args);
        }
        os << "}";
    }
    // Name the two time-domain "processes" for the trace viewer.
    for (int pid : {kTraceWallPid, kTraceCyclePid}) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\""
           << (pid == kTraceWallPid ? "compile (wall us)"
                                    : "simulation (cycles)")
           << "\"}}";
    }
    os << "\n]}\n";
}

std::string
TraceRecorder::chromeTraceJson() const
{
    std::ostringstream os;
    writeChromeTrace(os);
    return os.str();
}

ScopedTimer::ScopedTimer(TraceRecorder* rec, std::string name,
                         std::string cat, StatSet* stats, const char* key,
                         Write write)
    : rec_(rec && rec->enabled() ? rec : nullptr),
      stats_(stats && key ? stats : nullptr), key_(key), write_(write),
      name_(std::move(name)), cat_(std::move(cat))
{
    if (rec_ || stats_)
        startUs_ = nowUs();
}

ScopedTimer::~ScopedTimer()
{
    if (!rec_ && !stats_)
        return;
    const uint64_t durUs = nowUs() - startUs_;
    if (stats_ && write_ == Write::Add)
        stats_->add(key_, static_cast<int64_t>(durUs));
    else if (stats_)
        stats_->set(key_, static_cast<int64_t>(durUs));
    if (rec_)
        rec_->completeEvent(name_, cat_, startUs_, durUs,
                            std::move(args_));
}

uint64_t
ScopedTimer::nowUs() const
{
    // The recorder's timeline when tracing, so the span's ts/dur and
    // the key agree; otherwise the same clock from its own epoch.
    return rec_ ? rec_->nowUs() : wallNs() / 1000;
}

void
ScopedTimer::arg(const std::string& key, int64_t v)
{
    if (rec_)
        args_.emplace_back(key, v);
}

void
ScopedTimer::arg(const std::string& key, const std::string& v)
{
    if (rec_)
        args_.emplace_back(key, v);
}

TraceRecorder&
globalTracer()
{
    static TraceRecorder recorder;
    return recorder;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
statSetJson(const StatSet& stats, int indent)
{
    std::string pad(indent, ' ');
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto& [k, v] : stats.all()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << pad << "  \"" << jsonEscape(k) << "\": " << v;
    }
    if (!first)
        os << "\n" << pad;
    os << "}";
    return os.str();
}

int
histBucketIndex(uint64_t v)
{
    if (v <= 2)
        return static_cast<int>(v);
    int i = 3;
    for (uint64_t b = 4; b <= 1024; b *= 2, i++)
        if (v <= b)
            return i;
    return kHistBuckets - 1;
}

const char*
histBucketLabel(int i)
{
    static const char* const kLabels[kHistBuckets] = {
        "0",     "1",     "2",     "le4",    "le8",     "le16", "le32",
        "le64",  "le128", "le256", "le512",  "le1024",  "gt1024"};
    return kLabels[i];
}

std::string
histBucket(uint64_t v)
{
    return histBucketLabel(histBucketIndex(v));
}

} // namespace cash
