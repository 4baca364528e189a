// Runtime kernel dispatch for the quantized Viterbi ACS kernel. Selection
// (override > GEOSPHERE_KERNEL > cpuid) is shared with the detection
// kernel layers, so one variable pins the entire pipeline; see
// common/kernel_dispatch.h.
//
// Every tier is bit-identical (pure int16 arithmetic on a fixed
// renormalization schedule), so dispatch only changes speed -- but the
// parity tests still pin each tier explicitly to prove it.
#pragma once

#include <vector>

#include "coding/simd/viterbi_kernel.h"

namespace geosphere::coding::simd {

/// The always-available portable reference kernel.
const ViterbiKernel& scalar_viterbi_kernel();

/// Every kernel compiled into this binary, scalar first, widest last.
std::vector<const ViterbiKernel*> compiled_viterbi_kernels();

/// The compiled kernels the host CPU can execute, scalar first, widest
/// last.
std::vector<const ViterbiKernel*> supported_viterbi_kernels();

/// The kernel QuantizedViterbi uses right now. Throws
/// std::invalid_argument if GEOSPHERE_KERNEL names an unknown or
/// unsupported kernel.
const ViterbiKernel& active_viterbi_kernel();

/// Force a tier by name ("scalar"/"sse2"/"avx2"), or pass nullptr to
/// restore the default env/auto selection. Throws std::invalid_argument
/// for names not in supported_viterbi_kernels(). A test/bench hook.
void set_viterbi_kernel_override(const char* name);

}  // namespace geosphere::coding::simd
