#include "coding/simd/dispatch.h"

#include "common/kernel_dispatch.h"

namespace geosphere::coding::simd {

namespace detail {  // Defined by the kernel TUs; nullptr when built without the ISA.
const ViterbiKernel* sse2_viterbi_kernel_or_null();
const ViterbiKernel* avx2_viterbi_kernel_or_null();
}  // namespace detail

namespace {
using Dispatch =
    dispatch::KernelDispatch<ViterbiKernel, scalar_viterbi_kernel,
                             detail::sse2_viterbi_kernel_or_null,
                             detail::avx2_viterbi_kernel_or_null>;
}  // namespace

std::vector<const ViterbiKernel*> compiled_viterbi_kernels() { return Dispatch::compiled(); }
std::vector<const ViterbiKernel*> supported_viterbi_kernels() {
  return Dispatch::supported();
}
const ViterbiKernel& active_viterbi_kernel() { return Dispatch::active(); }
void set_viterbi_kernel_override(const char* name) {
  Dispatch::set_override("set_viterbi_kernel_override", name);
}

}  // namespace geosphere::coding::simd
