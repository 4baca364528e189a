// SIMD kernel table for the batched tree-search solve.
//
// A Kernel is a set of elementwise operations over packed lane arrays: the
// arithmetic of the batched Q^H Y rotation and the packed root-center
// divides (one received vector per lane), expressed so that one instruction
// covers `width` lanes at a time.
//
// Bit-identity contract: every operation is specified as an exact IEEE-754
// sequence -- one rounding per arithmetic op, no FMA contraction, operands
// in the documented order -- and both tiers implement exactly that
// sequence (scalar loops and AVX2 quads perform the identical per-element
// mul/add/sub/div). Lanes never interact arithmetically, so the AVX2 tier
// produces bit-identical results to the scalar reference; the tiers differ
// only in how many lanes one instruction covers (common/kernel_dispatch.h
// says why there are two). The kernel
// translation units are compiled with -ffp-contract=off so this holds even
// under GEOSPHERE_NATIVE. Parity is locked by tests
// (tests/sphere_kernel_test.cpp) at both the op level and the full-detector
// level.
#pragma once

#include <cstddef>

namespace geosphere::sphere::simd {

struct Kernel {
  /// Tier name: "scalar" or "avx2" (also the GEOSPHERE_KERNEL spellings).
  const char* name;
  /// Lanes one vector register covers (1 or 4 doubles).
  std::size_t width;

  /// out[i] = num[i] / den[i] -- the packed root centers' normalization
  /// (component / (r_ll * alpha)).
  void (*quotients)(const double* num, const double* den, double* out, std::size_t n);

  /// Complex multiply-accumulate on INTERLEAVED complex arrays (`b` and
  /// `acc` hold n complex values as [re0, im0, re1, im1, ...]), one
  /// broadcast a per call:
  ///   t_re = a_re*b[2i] - a_im*b[2i+1]
  ///   t_im = a_re*b[2i+1] + a_im*b[2i]
  ///   acc[2i] += t_re;  acc[2i+1] += t_im
  /// -- the exact finite-operand sequence of std::complex<double> operator*
  /// followed by operator+=. The interleaved layout lets the batched
  /// rotation (rotate.h) read std::complex rows in place, no deinterleave
  /// pass; the AVX2 tier computes the subtraction as an exact sign-flip-
  /// then-add (IEEE x - y == x + (-y), bit for bit), packing two complex
  /// values per register. Each received vector is a lane; n is the batch
  /// size (the ops loop over any n).
  void (*cmul_accum)(double a_re, double a_im, const double* b, double* acc,
                     std::size_t n);
};

}  // namespace geosphere::sphere::simd
