// Runtime kernel dispatch for the tree-search layer: which SIMD tier runs
// the batched rotation, the packed root centers and the level-major center
// groups in this process. Selection (override > GEOSPHERE_KERNEL > cpuid)
// is shared with the other kernel layers; see common/kernel_dispatch.h.
#pragma once

#include <vector>

#include "detect/sphere/simd/kernel.h"

namespace geosphere::sphere::simd {

/// The always-available portable reference kernel (width 1).
const Kernel& scalar_kernel();

/// Every kernel compiled into this binary, scalar first, widest last.
std::vector<const Kernel*> compiled_kernels();

/// The compiled kernels the host CPU can execute, scalar first, widest
/// last.
std::vector<const Kernel*> supported_kernels();

/// The kernel in use right now. Throws std::invalid_argument if
/// GEOSPHERE_KERNEL names an unknown or unsupported kernel.
const Kernel& active_kernel();

/// Force a tier by name ("scalar"/"sse2"/"avx2"), or pass nullptr to
/// restore the default env/auto selection. Throws std::invalid_argument for
/// names not in supported_kernels(). A test/bench hook.
void set_kernel_override(const char* name);

}  // namespace geosphere::sphere::simd
