// Benchmark/example configuration shared across harness binaries, and the
// one strict integer parser every command-line flag, job option and wire
// number goes through.
//
// The paper's experiments ran 16 threads on a 12-core Xeon with 32 GB; this
// container is much smaller, so benches default to scaled bit-widths and
// hardware-concurrency threads, and GFRE_FULL=1 selects the paper's full
// problem sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace gfre {

/// Widest thread pool a flag or GFRE_THREADS may ask for.
inline constexpr std::uint64_t kMaxThreads = 4096;

/// Parses `text` as a decimal integer in [lo, hi]: digits only — no sign,
/// no whitespace, no trailing bytes, no overflow ("-1", "+5", " 5" and
/// "12abc" all fail, where std::stoull accepts or wraps them).  Throws
/// InvalidArgument naming `what` (a flag or option key) otherwise.
std::uint64_t parse_uint(
    std::string_view what, std::string_view text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// True when the environment requests the paper's full problem sizes
/// (GFRE_FULL=1).
bool full_scale_requested();

/// Thread count for parallel extraction: GFRE_THREADS if set (1..4096,
/// parsed by parse_uint; anything else throws InvalidArgument), else
/// hardware concurrency.
std::size_t configured_threads();

/// Unsigned integer environment variable: `fallback` when unset or empty,
/// otherwise parsed by parse_uint into [lo, hi], so junk throws
/// InvalidArgument naming the variable instead of falling back.
std::uint64_t env_uint(
    const char* name, std::uint64_t fallback, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// String environment variable with default.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace gfre
