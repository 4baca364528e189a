// Tests for the runtime kernel dispatcher (src/common/kernel_dispatch.h),
// run once against each of the three SIMD layers through their public
// names: the tier registry order, the supported-vs-compiled menu, the
// override's selection and reset, and the error an unknown tier name
// raises.
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

/// Position of a tier in the widening order every layer lists them in.
std::size_t tier_rank(const std::string& name) {
  const std::vector<std::string> order = {"scalar", "sse2", "avx2"};
  return static_cast<std::size_t>(std::find(order.begin(), order.end(), name) -
                                  order.begin());
}

/// The dispatcher contract, checked through one layer's public functions.
template <class Kernel>
void expect_dispatcher_contract(std::vector<const Kernel*> (*compiled_fn)(),
                                std::vector<const Kernel*> (*supported_fn)(),
                                const Kernel& (*active)(),
                                void (*set_override)(const char*)) {
  // Scalar first, then the tiers in widening order.
  const std::vector<const Kernel*> compiled = compiled_fn();
  ASSERT_FALSE(compiled.empty());
  EXPECT_STREQ(compiled.front()->name, "scalar");
  if constexpr (requires(const Kernel& k) { k.width; }) {
    EXPECT_EQ(compiled.front()->width, 1u);
  }
  for (std::size_t i = 1; i < compiled.size(); ++i) {
    EXPECT_GT(tier_rank(compiled[i]->name), tier_rank(compiled[i - 1]->name));
    EXPECT_LT(tier_rank(compiled[i]->name), 3u) << compiled[i]->name;
    if constexpr (requires(const Kernel& k) { k.width; }) {
      EXPECT_GT(compiled[i]->width, compiled[i - 1]->width) << compiled[i]->name;
    }
  }

  // What the host runs is a subset of what was compiled; scalar always runs.
  const std::vector<const Kernel*> supported = supported_fn();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), compiled.front());
  for (const Kernel* k : supported)
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), k), compiled.end()) << k->name;

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

  // An unknown name throws, lists the valid tiers, and changes nothing.
  try {
    set_override("avx1024");
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'avx1024'"), std::string::npos) << what;
    EXPECT_NE(what.find("valid here: auto"), std::string::npos) << what;
    for (const Kernel* k : supported)
      EXPECT_NE(what.find(k->name), std::string::npos) << what;
  }
  EXPECT_EQ(&active(), default_kernel);
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
  ::setenv("GEOSPHERE_KERNEL", "sse2", 1);
  EXPECT_EQ(dispatch::env_tier(), "sse2");
  if (saved != nullptr) {
    ::setenv("GEOSPHERE_KERNEL", restore.c_str(), 1);
  } else {
    ::unsetenv("GEOSPHERE_KERNEL");
  }
}

}  // namespace
}  // namespace geosphere
