/**
 * @file
 * Allocation-free number formatting for cache and request keys. The
 * bytes these helpers append are a persisted format: prediction-cache
 * snapshots (`--cache-save`/`--cache-load`), shard routing, and request
 * coalescing all key on them, so they reproduce printf's output exactly
 * (tests/format_test.cpp pins that byte for byte).
 */

#ifndef NEUSIGHT_COMMON_FORMAT_HPP
#define NEUSIGHT_COMMON_FORMAT_HPP

#include <charconv>
#include <string>
#include <type_traits>

namespace neusight {

/**
 * Append @p v to @p out exactly as printf("%.17g", v) writes it.
 * Seventeen significant digits round-trip every double, so two keys
 * built from distinct values never collide.
 */
inline void
appendG17(std::string &out, double v)
{
    // "-1.2345678901234567e-308" is the longest output: 24 bytes.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

/** Append the decimal digits of @p v, as printf's %d / %llu would. */
template <typename Int>
inline void
appendInt(std::string &out, Int v)
{
    static_assert(std::is_integral_v<Int>, "appendInt takes integers");
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

} // namespace neusight

#endif // NEUSIGHT_COMMON_FORMAT_HPP
