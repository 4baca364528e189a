#include "common/kernel_dispatch.h"

#include <cstdlib>

namespace geosphere::dispatch {

bool cpu_has_avx2() {
#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::string env_tier() {
  const char* env = std::getenv("GEOSPHERE_KERNEL");
  return (env == nullptr || *env == '\0') ? "auto" : env;
}

std::invalid_argument unknown_tier(const std::string& who, const std::string& name,
                                   const std::vector<const char*>& valid) {
  std::string names = "auto";
  for (const char* v : valid) {
    names += ", ";
    names += v;
  }
  return std::invalid_argument(who + ": unknown or unsupported kernel '" + name +
                               "' (valid here: " + names + ")");
}

}  // namespace geosphere::dispatch
