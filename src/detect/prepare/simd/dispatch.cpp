#include "detect/prepare/simd/dispatch.h"

#include "common/kernel_dispatch.h"

namespace geosphere::prepare::simd {

namespace detail {  // Defined by the AVX2 TU; nullptr when built without the ISA.
const Kernel* avx2_kernel_or_null();
}  // namespace detail

namespace {
using Dispatch = dispatch::KernelDispatch<Kernel, scalar_kernel, detail::avx2_kernel_or_null>;
}  // namespace

std::vector<const Kernel*> compiled_kernels() { return Dispatch::compiled(); }
std::vector<const Kernel*> supported_kernels() { return Dispatch::supported(); }
const Kernel& active_kernel() { return Dispatch::active(); }
void set_kernel_override(const char* name) {
  Dispatch::set_override("set_kernel_override", name);
}

}  // namespace geosphere::prepare::simd
