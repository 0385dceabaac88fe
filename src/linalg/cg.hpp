// Sparse Conjugate Gradient — the inner solver of the paper's block-Jacobi
// multisplitting (paper §6: "we have chosen the sparse Conjugate Gradient
// algorithm"). Plain CG and a Jacobi (diagonal) preconditioned variant, over
// an assembled CsrMatrix or the matrix-free Poisson stencil (Laplacian5).
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/stencil.hpp"
#include "linalg/vector_ops.hpp"

namespace jacepp::linalg {

struct CgOptions {
  double tolerance = 1e-10;      ///< stop when ||r|| <= tolerance * ||b||
  std::size_t max_iterations = 1000;
  bool jacobi_preconditioner = false;
};

struct CgResult {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;    ///< final ||b - Ax||_2
  /// Total floating point work performed, in "flop" units (used by the
  /// simulator's compute-cost model).
  double flops = 0.0;
};

/// Scratch vectors of one solve. A caller that solves repeatedly (a task's
/// inner CG) keeps one alive so no solve allocates once sizes settle.
struct CgWorkspace {
  Vector r;
  Vector p;
  Vector ap;
  Vector z;  ///< preconditioned residual; unused without a preconditioner
};

/// Solve A x = b for symmetric positive definite A, starting from the given x
/// (warm start). x is updated in place. Instantiated for CsrMatrix and
/// Laplacian5; both charge the same flops for the same nnz.
template <typename Op>
CgResult conjugate_gradient(const Op& a, const Vector& b, Vector& x,
                            const CgOptions& options, CgWorkspace& work);

extern template CgResult conjugate_gradient(const CsrMatrix&, const Vector&,
                                            Vector&, const CgOptions&,
                                            CgWorkspace&);
extern template CgResult conjugate_gradient(const Laplacian5&, const Vector&,
                                            Vector&, const CgOptions&,
                                            CgWorkspace&);

/// One-off solve with its own scratch.
inline CgResult conjugate_gradient(const CsrMatrix& a, const Vector& b,
                                   Vector& x, const CgOptions& options = {}) {
  CgWorkspace work;
  return conjugate_gradient(a, b, x, options, work);
}

}  // namespace jacepp::linalg
