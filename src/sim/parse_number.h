/**
 * @file
 * The one rule for numbers read from outside the program (CLI flags,
 * `.chaos` scenario files): the whole text is one number of the
 * target type.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ssdcheck::sim {

/**
 * Parse all of @p s as one T: no sign on an unsigned, no blanks or
 * trailing junk, nothing out of T's range, and for a floating-point T
 * only a finite value.
 * @return false, leaving @p out untouched, otherwise.
 */
template <typename T>
bool
parseNumber(std::string_view s, T *out)
{
    if (s.empty())
        return false;
    T v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    *out = v;
    return true;
}

} // namespace ssdcheck::sim
