#include "support/stats.h"

#include <sstream>

namespace cash {

int64_t&
StatSet::slot(std::string_view name)
{
    auto it = counters_.lower_bound(name);
    if (it == counters_.end() || it->first != name)
        it = counters_.emplace_hint(it, std::string(name), 0);
    return it->second;
}

void
StatSet::add(std::string_view name, int64_t delta)
{
    slot(name) += delta;
}

void
StatSet::set(std::string_view name, int64_t value)
{
    slot(name) = value;
    if (gauges_.find(name) == gauges_.end())
        gauges_.emplace(name);
}

bool
StatSet::isGauge(std::string_view name) const
{
    return gauges_.find(name) != gauges_.end();
}

int64_t
StatSet::get(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

bool
StatSet::has(std::string_view name) const
{
    return counters_.find(name) != counters_.end();
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
        if (other.isGauge(k))
            set(k, v);
        else
            add(k, v);
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
