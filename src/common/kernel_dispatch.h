// Runtime kernel dispatch shared by every SIMD layer (src/detect/sphere/simd,
// src/detect/prepare/simd, src/coding/simd): which tier of a layer's kernel
// table runs in this process.
//
// Selection order:
//   1. A programmatic override (each layer's set_*_override, used by parity
//      tests and benches).
//   2. The GEOSPHERE_KERNEL environment variable: "scalar", "sse2", "avx2",
//      or "auto" (unknown / unsupported names throw on first use -- a typo
//      must not silently fall back to a different tier). The one variable
//      pins every layer, so GEOSPHERE_KERNEL=scalar pins the whole binary.
//   3. Auto: the widest kernel that is both compiled into the binary and
//      supported by the host CPU (cpuid-checked for AVX2).
//
// The scalar reference kernel is always compiled and always supported; it
// is the tier golden comparisons pin and the only tier on non-x86 builds.
// Each layer's dispatch.cpp instantiates KernelDispatch once for its own
// kernel table and keeps its public function names.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace geosphere::dispatch {

/// Whether the host CPU executes AVX2 (cpuid); false on non-x86 builds.
bool cpu_has_avx2();

/// The GEOSPHERE_KERNEL tier name, or "auto" when it is unset or empty.
std::string env_tier();

/// The selection error every layer throws: "<who>: unknown or unsupported
/// kernel '<name>' (valid here: auto, <valid...>)".
std::invalid_argument unknown_tier(const std::string& who, const std::string& name,
                                   const std::vector<const char*>& valid);

/// The tiers of one layer's kernel table and the choice among them.
/// `Kernel` is any table with a `const char* name`; `Sse2` and `Avx2`
/// return nullptr when their translation unit was built without the ISA.
template <class Kernel, const Kernel& (*Scalar)(), const Kernel* (*Sse2)(),
          const Kernel* (*Avx2)()>
class KernelDispatch {
 public:
  /// Every kernel compiled into this binary, scalar first, widest last.
  static std::vector<const Kernel*> compiled() { return tiers(false); }

  /// The compiled kernels the host CPU can execute, scalar first, widest
  /// last: the menu GEOSPHERE_KERNEL and the override select from.
  static std::vector<const Kernel*> supported() { return tiers(true); }

  /// Override, else the env/auto choice. That choice is resolved once per
  /// process (a thread-safe static); overrides take effect immediately.
  static const Kernel& active() {
    if (const Kernel* k = override_.load()) return *k;
    static const Kernel& resolved = resolve_env();
    return resolved;
  }

  /// Forces a supported tier by name, or restores env/auto with nullptr.
  /// `who` prefixes the error for unknown names. A test and bench hook.
  static void set_override(const char* who, const char* name) {
    const Kernel* k = name == nullptr ? nullptr : find(name);
    if (name != nullptr && k == nullptr) throw unknown(who, name);
    override_.store(k);
  }

 private:
  static std::vector<const Kernel*> tiers(bool host_only) {
    std::vector<const Kernel*> out{&Scalar()};
    // SSE2 is part of the x86-64 baseline, so compiled implies supported;
    // AVX2 is compiled whenever the compiler can, and gated here by cpuid.
    if (const Kernel* k = Sse2()) out.push_back(k);
    if (const Kernel* k = Avx2(); k != nullptr && (!host_only || cpu_has_avx2()))
      out.push_back(k);
    return out;
  }

  static const Kernel* find(const std::string& name) {
    for (const Kernel* k : supported())
      if (name == k->name) return k;
    return nullptr;
  }

  static std::invalid_argument unknown(const std::string& who, const std::string& name) {
    std::vector<const char*> valid;
    for (const Kernel* k : supported()) valid.push_back(k->name);
    return unknown_tier(who, name, valid);
  }

  static const Kernel& resolve_env() {
    const std::string name = env_tier();
    if (name == "auto") return *supported().back();
    if (const Kernel* k = find(name)) return *k;
    throw unknown("GEOSPHERE_KERNEL", name);
  }

  static inline std::atomic<const Kernel*> override_{nullptr};
};

}  // namespace geosphere::dispatch
