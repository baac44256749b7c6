/**
 * @file
 * The JSON cursor behind the workload and scenario spec parsers
 * (parseWorkloadJson, scenario::parseScenarioJson).
 *
 * It reads just the subset those documents use — objects, arrays,
 * strings, non-negative integers and booleans — and funnels every
 * failure through fail(), which records the byte offset of the first
 * error.  Both parsers' diagnostics ("expected ',' at byte 17") come
 * from here, so they stay word-for-word alike.
 */

#pragma once

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <string>

#include "workload/spec.hh"

namespace ot::workload {

/** Cursor over one JSON text; `err` holds the first failure. */
struct JsonCursor
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at byte " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    /** Peek the next non-whitespace character ('\0' at end). */
    char
    peek()
    {
        skipWs();
        return pos < text.size() ? text[pos] : '\0';
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    break;
            }
            out += text[pos++];
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    parseNumber(std::uint64_t &out)
    {
        skipWs();
        std::string digits;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            digits += text[pos++];
        if (!parseUint(digits, out))
            return fail("expected a non-negative integer");
        return true;
    }

    bool
    parseBool(bool &out)
    {
        skipWs();
        if (text.compare(pos, 4, "true") == 0) {
            out = true;
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            out = false;
            pos += 5;
            return true;
        }
        return fail("expected true or false");
    }
};

} // namespace ot::workload
