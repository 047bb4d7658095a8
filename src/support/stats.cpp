#include "support/stats.h"

#include <sstream>

namespace cash {

void
StatSet::add(const std::string& name, int64_t delta)
{
    counters_[name] += delta;
}

void
StatSet::set(const std::string& name, int64_t value)
{
    counters_[name] = value;
    gauges_.insert(name);
}

bool
StatSet::isGauge(const std::string& name) const
{
    return gauges_.count(name) != 0;
}

int64_t
StatSet::get(const std::string& name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

bool
StatSet::has(const std::string& name) const
{
    return counters_.count(name) != 0;
}

void
StatSet::clear()
{
    counters_.clear();
    gauges_.clear();
}

void
StatSet::merge(const StatSet& other)
{
    for (const auto& [k, v] : other.counters_) {
        if (other.isGauge(k)) {
            counters_[k] = v;
            gauges_.insert(k);
        } else {
            counters_[k] += v;
        }
    }
}

StatSet
StatSet::diff(const StatSet& before) const
{
    StatSet d;
    for (const auto& [k, v] : counters_)
        if (v != before.get(k))
            d.set(k, v - before.get(k));
    for (const auto& [k, v] : before.counters_)
        if (!has(k))
            d.set(k, -v);
    return d;
}

std::string
StatSet::str() const
{
    std::ostringstream os;
    for (const auto& [k, v] : counters_)
        os << k << " = " << v << "\n";
    return os.str();
}

bool
isWallClockKey(const std::string& name)
{
    return name.rfind("time.", 0) == 0 ||
           (name.size() > 8 &&
            name.compare(name.size() - 8, 8, ".time_us") == 0);
}

} // namespace cash
