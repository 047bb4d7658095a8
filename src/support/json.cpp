#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/trace.h"

namespace cash {

Json
Json::boolean(bool v)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

Json
Json::number(int64_t v)
{
    Json j;
    j.kind_ = Kind::Int;
    j.int_ = v;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.kind_ = Kind::Double;
    j.dbl_ = v;
    return j;
}

Json
Json::string(std::string v)
{
    Json j;
    j.kind_ = Kind::String;
    j.str_ = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool(bool fallback) const
{
    return kind_ == Kind::Bool ? bool_ : fallback;
}

int64_t
Json::asInt(int64_t fallback) const
{
    if (kind_ == Kind::Int)
        return int_;
    if (kind_ == Kind::Double)
        return static_cast<int64_t>(dbl_);
    return fallback;
}

double
Json::asDouble(double fallback) const
{
    if (kind_ == Kind::Double)
        return dbl_;
    if (kind_ == Kind::Int)
        return static_cast<double>(int_);
    return fallback;
}

const Json*
Json::get(const std::string& key) const
{
    for (const Member& m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

std::string
Json::getString(const std::string& key, const std::string& fallback) const
{
    const Json* v = get(key);
    return v && v->isString() ? v->asString() : fallback;
}

int64_t
Json::getInt(const std::string& key, int64_t fallback) const
{
    const Json* v = get(key);
    return v && v->isNumber() ? v->asInt(fallback) : fallback;
}

bool
Json::getBool(const std::string& key, bool fallback) const
{
    const Json* v = get(key);
    return v && v->isBool() ? v->asBool(fallback) : fallback;
}

void
Json::push(Json v)
{
    kind_ = Kind::Array;
    items_.push_back(std::move(v));
}

void
Json::set(const std::string& key, Json v)
{
    kind_ = Kind::Object;
    members_.emplace_back(key, std::move(v));
}

std::string
Json::dump() const
{
    switch (kind_) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return bool_ ? "true" : "false";
      case Kind::Int:
        return std::to_string(int_);
      case Kind::Double: {
        if (!std::isfinite(dbl_))
            return "null"; // JSON has no Inf/NaN.
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
        return buf;
      }
      case Kind::String:
        return '"' + jsonEscape(str_).append("\"");
      case Kind::Array: {
        std::string out = "[";
        for (size_t i = 0; i < items_.size(); i++) {
            if (i)
                out += ',';
            out += items_[i].dump();
        }
        return out + "]";
      }
      case Kind::Object: {
        std::string out = "{";
        for (size_t i = 0; i < members_.size(); i++) {
            out += (i ? ",\"" : "\"") + jsonEscape(members_[i].first) +
                   "\":" + members_[i].second.dump();
        }
        return out + "}";
      }
    }
    return "null";
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

namespace {

struct Parser
{
    const std::string& text;
    size_t pos = 0;
    int maxDepth;
    std::string error; // first error, with byte offset

    explicit Parser(const std::string& t, int depth)
        : text(t), maxDepth(depth)
    {
    }

    bool
    fail(const std::string& msg)
    {
        if (error.empty())
            error = msg + " at byte " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            pos++;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            pos++;
            return true;
        }
        return false;
    }

    bool
    literal(const char* word, size_t n)
    {
        if (text.compare(pos, n, word) != 0)
            return fail("invalid literal");
        pos += n;
        return true;
    }

    static void
    appendUtf8(std::string& out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    hex4(uint32_t* out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        uint32_t v = 0;
        for (int i = 0; i < 4; i++) {
            char c = text[pos + i];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        pos += 4;
        *out = v;
        return true;
    }

    bool
    parseString(std::string* out)
    {
        if (!consume('"'))
            return fail("expected string");
        out->clear();
        while (true) {
            if (pos >= text.size())
                return fail("unterminated string");
            unsigned char c = static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                pos++;
                return true;
            }
            if (c == '\\') {
                pos++;
                if (pos >= text.size())
                    return fail("unterminated escape");
                char e = text[pos++];
                switch (e) {
                  case '"': *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/': *out += '/'; break;
                  case 'b': *out += '\b'; break;
                  case 'f': *out += '\f'; break;
                  case 'n': *out += '\n'; break;
                  case 'r': *out += '\r'; break;
                  case 't': *out += '\t'; break;
                  case 'u': {
                      uint32_t cp = 0;
                      if (!hex4(&cp))
                          return false;
                      if (cp >= 0xD800 && cp <= 0xDBFF) {
                          // High surrogate: require a low one.
                          if (!(consume('\\') && consume('u')))
                              return fail("lone high surrogate");
                          uint32_t lo = 0;
                          if (!hex4(&lo))
                              return false;
                          if (lo < 0xDC00 || lo > 0xDFFF)
                              return fail("bad low surrogate");
                          cp = 0x10000 + ((cp - 0xD800) << 10) +
                               (lo - 0xDC00);
                      } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                          return fail("lone low surrogate");
                      }
                      appendUtf8(*out, cp);
                      break;
                  }
                  default:
                      return fail("bad escape character");
                }
            } else if (c < 0x20) {
                return fail("raw control character in string");
            } else {
                *out += static_cast<char>(c);
                pos++;
            }
        }
    }

    bool
    parseNumber(Json* out)
    {
        size_t start = pos;
        if (consume('-')) {
        }
        if (pos >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[pos])))
            return fail("expected digit");
        if (text[pos] == '0') {
            pos++; // a leading zero must stand alone (RFC 8259)
        } else {
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                pos++;
        }
        bool integral = true;
        if (pos < text.size() && text[pos] == '.') {
            integral = false;
            pos++;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("expected fraction digit");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                pos++;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            integral = false;
            pos++;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                pos++;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("expected exponent digit");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                pos++;
        }
        std::string lit = text.substr(start, pos - start);
        if (integral) {
            errno = 0;
            char* end = nullptr;
            long long v = std::strtoll(lit.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0') {
                *out = Json::number(static_cast<int64_t>(v));
                return true;
            }
            // Out of int64 range: fall through to double.
        }
        *out = Json::number(std::strtod(lit.c_str(), nullptr));
        return true;
    }

    bool
    parseValue(Json* out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            pos++;
            Json obj = Json::object();
            skipWs();
            if (consume('}')) {
                *out = std::move(obj);
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Json v;
                if (!parseValue(&v, depth + 1))
                    return false;
                obj.set(key, std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            *out = std::move(obj);
            return true;
        }
        if (c == '[') {
            pos++;
            Json arr = Json::array();
            skipWs();
            if (consume(']')) {
                *out = std::move(arr);
                return true;
            }
            while (true) {
                Json v;
                if (!parseValue(&v, depth + 1))
                    return false;
                arr.push(std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            *out = std::move(arr);
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Json::string(std::move(s));
            return true;
        }
        if (c == 't')
            return literal("true", 4) && (*out = Json::boolean(true), true);
        if (c == 'f')
            return literal("false", 5) &&
                   (*out = Json::boolean(false), true);
        if (c == 'n')
            return literal("null", 4) && (*out = Json::null(), true);
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber(out);
        return fail("unexpected character");
    }
};

} // namespace

Status
Json::parse(const std::string& text, Json* out, int maxDepth)
{
    *out = Json();
    Parser p(text, maxDepth);
    Json v;
    if (!p.parseValue(&v, 0))
        return Status::error(ErrorCode::ParseError,
                             "json: " + p.error);
    p.skipWs();
    if (p.pos != text.size())
        return Status::error(ErrorCode::ParseError,
                             "json: trailing garbage at byte " +
                                 std::to_string(p.pos));
    *out = std::move(v);
    return Status::ok();
}

} // namespace cash
