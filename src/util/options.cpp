#include "util/options.hpp"

#include <charconv>
#include <cstdlib>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace gfre {

std::uint64_t parse_uint(std::string_view what, std::string_view text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc{} && end == text.data() + text.size() && lo <= value &&
      value <= hi) {
    return value;
  }
  const std::string range =
      lo == 0 && hi == std::numeric_limits<std::uint64_t>::max()
          ? "a non-negative integer"
          : "an integer in " + std::to_string(lo) + ".." + std::to_string(hi);
  throw InvalidArgument(std::string(what) + " wants " + range + ", got '" +
                        std::string(text) + "'");
}

bool full_scale_requested() {
  const char* v = std::getenv("GFRE_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::size_t configured_threads() {
  const char* v = std::getenv("GFRE_THREADS");
  if (v == nullptr || v[0] == '\0') return ThreadPool::default_threads();
  return parse_uint("GFRE_THREADS", v, 1, kMaxThreads);
}

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v) return fallback;
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::string(v);
}

}  // namespace gfre
