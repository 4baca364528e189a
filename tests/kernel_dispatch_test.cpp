// Tests for the runtime kernel dispatcher (src/common/kernel_dispatch.h),
// run once against each of the three SIMD layers through their public
// names: the two tiers (scalar, then AVX2), the supported-vs-compiled
// menu, the override's selection and reset, and the error an unknown or
// removed tier name raises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "coding/simd/dispatch.h"
#include "common/kernel_dispatch.h"
#include "detect/prepare/simd/dispatch.h"
#include "detect/sphere/simd/dispatch.h"

namespace geosphere {
namespace {

/// The names of a layer's kernels, in its order.
template <class Kernel>
std::vector<std::string> names(const std::vector<const Kernel*>& kernels) {
  std::vector<std::string> out;
  for (const Kernel* k : kernels) out.push_back(k->name);
  return out;
}

/// The dispatcher contract, checked through one layer's public functions.
template <class Kernel>
void expect_dispatcher_contract(std::vector<const Kernel*> (*compiled_fn)(),
                                std::vector<const Kernel*> (*supported_fn)(),
                                const Kernel& (*active)(),
                                void (*set_override)(const char*)) {
  // Two tiers at most: scalar, then AVX2 when the compiler could build it.
  const std::vector<const Kernel*> compiled = compiled_fn();
  const std::vector<std::string> scalar_only = {"scalar"};
  const std::vector<std::string> both = {"scalar", "avx2"};
  const std::vector<std::string> compiled_names = names(compiled);
  ASSERT_TRUE(compiled_names == scalar_only || compiled_names == both)
      << ::testing::PrintToString(compiled_names);
  if constexpr (requires(const Kernel& k) { k.width; }) {
    EXPECT_EQ(compiled.front()->width, 1u);
    if (compiled.size() == 2) {
      EXPECT_EQ(compiled.back()->width, 4u);
    }
  }

  // The host runs scalar, plus AVX2 when it was compiled and cpuid has it.
  const std::vector<const Kernel*> supported = supported_fn();
  const bool avx2_here = compiled.size() == 2 && dispatch::cpu_has_avx2();
  ASSERT_EQ(names(supported), avx2_here ? both : scalar_only);
  for (std::size_t i = 0; i < supported.size(); ++i) EXPECT_EQ(supported[i], compiled[i]);

  // The override selects each supported tier; nullptr restores the default.
  // The last tier forced differs from the default whenever the host has two.
  const Kernel* default_kernel = &active();
  std::vector<const Kernel*> order = supported;
  if (order.back() == default_kernel) std::reverse(order.begin(), order.end());
  for (const Kernel* k : order) {
    set_override(k->name);
    EXPECT_EQ(&active(), k) << k->name;
  }
  set_override(nullptr);
  EXPECT_EQ(&active(), default_kernel);

  // An unknown name, or the removed SSE2 tier's, throws, lists the valid
  // tiers, and changes nothing.
  for (const std::string bad : {"avx1024", "sse2"}) {
    try {
      set_override(bad.c_str());
      ADD_FAILURE() << "expected std::invalid_argument for " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("valid here: auto"), std::string::npos) << what;
      for (const Kernel* k : supported)
        EXPECT_NE(what.find(k->name), std::string::npos) << what;
    }
    EXPECT_EQ(&active(), default_kernel);
  }
}

TEST(KernelDispatch, SphereLayer) {
  expect_dispatcher_contract(sphere::simd::compiled_kernels, sphere::simd::supported_kernels,
                             sphere::simd::active_kernel, sphere::simd::set_kernel_override);
}

TEST(KernelDispatch, PrepareLayer) {
  expect_dispatcher_contract(prepare::simd::compiled_kernels,
                             prepare::simd::supported_kernels, prepare::simd::active_kernel,
                             prepare::simd::set_kernel_override);
}

TEST(KernelDispatch, ViterbiLayer) {
  expect_dispatcher_contract(
      coding::simd::compiled_viterbi_kernels, coding::simd::supported_viterbi_kernels,
      coding::simd::active_viterbi_kernel, coding::simd::set_viterbi_kernel_override);
}

TEST(KernelDispatch, EnvTierIsAutoWhenUnsetOrEmpty) {
  const char* saved = std::getenv("GEOSPHERE_KERNEL");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("GEOSPHERE_KERNEL");
  EXPECT_EQ(dispatch::env_tier(), "auto");
  ::setenv("GEOSPHERE_KERNEL", "", 1);
  EXPECT_EQ(dispatch::env_tier(), "auto");
  ::setenv("GEOSPHERE_KERNEL", "scalar", 1);
  EXPECT_EQ(dispatch::env_tier(), "scalar");
  if (saved != nullptr) {
    ::setenv("GEOSPHERE_KERNEL", restore.c_str(), 1);
  } else {
    ::unsetenv("GEOSPHERE_KERNEL");
  }
}

}  // namespace
}  // namespace geosphere
