// SIMD kernel table for the batched tree-search solve.
//
// A Kernel is a set of elementwise operations over packed lane arrays: the
// arithmetic of the batched Q^H Y rotation (one received vector per lane),
// the packed root-center divides, and the level-major center groups of the
// K-Best and FSD searches (one surviving path per lane), expressed so that
// one instruction covers `width` lanes at a time.
//
// Bit-identity contract: every operation is specified as an exact IEEE-754
// sequence -- one rounding per arithmetic op, no FMA contraction, operands
// in the documented order -- and every tier implements exactly that
// sequence (scalar loops, SSE2 pairs, AVX2 quads all perform the identical
// per-element mul/add/sub/div). Lanes never interact arithmetically, so
// every kernel tier produces bit-identical results to the scalar reference;
// tiers differ only in how many lanes one instruction covers. The kernel
// translation units are compiled with -ffp-contract=off so this holds even
// under GEOSPHERE_NATIVE. Parity is locked by tests
// (tests/sphere_kernel_test.cpp) at both the op level and the full-detector
// level.
#pragma once

#include <cstddef>

namespace geosphere::sphere::simd {

/// Upper bound on lanes per grouped center call: tree_center_lanes (K-best
/// survivors, FSD paths) chunks longer lane lists by this.
inline constexpr std::size_t kMaxLanes = 8;

struct Kernel {
  /// Tier name: "scalar", "sse2", or "avx2" (also the GEOSPHERE_KERNEL
  /// spellings).
  const char* name;
  /// Lanes one vector register covers (1, 2, or 4 doubles).
  std::size_t width;

  /// out[i] = num[i] / den[i] -- sphere budgets ((radius - pd) / scale) and
  /// center normalization (component / (r_ll * alpha)).
  void (*quotients)(const double* num, const double* den, double* out, std::size_t n);

  /// Center accumulation step, one broadcast r(l, j) times per-lane symbol:
  ///   t_re = r_re*s_re[i] - r_im*s_im[i]
  ///   t_im = r_re*s_im[i] + r_im*s_re[i]
  ///   acc_re[i] -= t_re;  acc_im[i] -= t_im
  /// i.e. the exact naive complex multiply-subtract of center.h, across n
  /// lanes.
  void (*center_accum)(double r_re, double r_im, const double* s_re, const double* s_im,
                       double* acc_re, double* acc_im, std::size_t n);

  /// Complex multiply-accumulate on INTERLEAVED complex arrays (`b` and
  /// `acc` hold n complex values as [re0, im0, re1, im1, ...]), one
  /// broadcast a per call:
  ///   t_re = a_re*b[2i] - a_im*b[2i+1]
  ///   t_im = a_re*b[2i+1] + a_im*b[2i]
  ///   acc[2i] += t_re;  acc[2i+1] += t_im
  /// -- the exact finite-operand sequence of std::complex<double> operator*
  /// followed by operator+=. The interleaved layout lets the batched
  /// rotation (rotate.h) read std::complex rows in place, no deinterleave
  /// pass; SIMD tiers compute the subtraction as an exact sign-flip-then-
  /// add (IEEE x - y == x + (-y), bit for bit), packing one (SSE2) or two
  /// (AVX2) complex values per register. Each received vector is a lane;
  /// n is the batch size, not bounded by kMaxLanes (the ops loop over any
  /// n).
  void (*cmul_accum)(double a_re, double a_im, const double* b, double* acc,
                     std::size_t n);
};

}  // namespace geosphere::sphere::simd
