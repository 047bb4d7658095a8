#include "support/strings.h"

#include <cctype>
#include <cstdio>

namespace cash {

std::string
join(const std::vector<std::string>& parts, const std::string& sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); i++) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); i++) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    if (!out.empty() && out.back().empty())
        out.pop_back();
    return out;
}

std::string
trim(const std::string& s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        b++;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        e--;
    return s.substr(b, e - b);
}

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
fmtDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
padLeft(const std::string& s, size_t w)
{
    if (s.size() >= w)
        return s;
    return std::string(w - s.size(), ' ') + s;
}

std::string
padRight(const std::string& s, size_t w)
{
    if (s.size() >= w)
        return s;
    return s + std::string(w - s.size(), ' ');
}

std::string
registryKey(const std::string& name)
{
    std::string key = name;
    for (char& c : key)
        if (c == '-')
            c = '_';
    return key;
}

} // namespace cash
