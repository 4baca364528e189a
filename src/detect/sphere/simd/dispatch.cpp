#include "detect/sphere/simd/dispatch.h"

#include "common/kernel_dispatch.h"

namespace geosphere::sphere::simd {

namespace detail {  // Defined by the kernel TUs; nullptr when built without the ISA.
const Kernel* sse2_kernel_or_null();
const Kernel* avx2_kernel_or_null();
}  // namespace detail

namespace {
using Dispatch = dispatch::KernelDispatch<Kernel, scalar_kernel, detail::sse2_kernel_or_null,
                                          detail::avx2_kernel_or_null>;
}  // namespace

std::vector<const Kernel*> compiled_kernels() { return Dispatch::compiled(); }
std::vector<const Kernel*> supported_kernels() { return Dispatch::supported(); }
const Kernel& active_kernel() { return Dispatch::active(); }
void set_kernel_override(const char* name) {
  Dispatch::set_override("set_kernel_override", name);
}

}  // namespace geosphere::sphere::simd
