// Batched SIMD rotation into the triangular basis: out = (Q^H Y)^T with the
// received vectors as SIMD lanes. Lanes never diverge here -- every vector
// multiplies by the same Q^H row -- so packing the batch dimension is a
// pure win. The depth-first searches that follow run one vector at a time:
// their lanes would diverge at every zigzag step.
//
// Bit-identity contract: per output element this performs the exact
// accumulation sequence of linalg::multiply_transpose_into's buffered
// complex path (k-ascending, one naive complex multiply per term with one
// rounding per operation, real/imag accumulated separately) -- which is
// itself bit-identical to the per-vector multiply_into(Q^H, y) product for
// finite data. The kernel ops are specified as exact IEEE-754 sequences
// (kernel.h), so every tier agrees to the last bit.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "linalg/matrix.h"

namespace geosphere::sphere::simd {

/// Reusable deinterleaved plane storage for rotate_transpose and
/// packed_root_centers -- one warm allocation per detector instead of one
/// per batch.
struct RotateScratch {
  std::vector<double> planes;
};

/// out = (a * y)^T into a caller-owned matrix whose storage is reused --
/// row v of the result is bit-identical to the per-vector product
/// a * y.col(v) (see the contract above). The batch dimension runs as SIMD
/// lanes directly on the interleaved complex rows (no deinterleave pass):
/// every output element accumulates with one broadcast a(i, k) times y's
/// whole row k per term. `out` must not alias `a` or `y`.
void rotate_transpose(const linalg::CMatrix& a, const linalg::CMatrix& y,
                      linalg::CMatrix& out, RotateScratch& scratch);

/// Root-level tree centers for a whole rotated batch, packed: out[v] is the
/// componentwise quotient yhat_t(v, root) / diag -- exactly the lone
/// divide pair tree_center performs at the root, where the j-sum above is
/// empty (see center.h) -- with all 2 * count divides in packed divpd
/// lanes. Bit-identical per vector on every kernel tier (a packed IEEE
/// divide is the scalar divide, lane by lane).
void packed_root_centers(const linalg::CMatrix& yhat_t, std::size_t root, double diag,
                         std::vector<cf64>& out, RotateScratch& scratch);

}  // namespace geosphere::sphere::simd
