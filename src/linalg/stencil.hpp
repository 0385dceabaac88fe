// Matrix-free 5-point Laplacian for one row block of the paper's Poisson
// grid (§6): `rows` consecutive unknowns = rows / n whole grid lines of side
// n, Dirichlet on all four sides of the block (the couplings to the grid
// lines just outside it enter through the right-hand side, exactly as for
// poisson::assemble_local_laplacian).
//
// The operator stores three numbers instead of a CSR matrix, yet each kernel
// repeats the sorted-CSR arithmetic of its linalg/fused.hpp counterpart to
// the last bit: per row, ax starts at 0.0 and adds coefficient * x[col] for
// the present neighbours in ascending column order (row-n, row-1, row, row+1,
// row+n), never adding a term for a missing one; the coefficients are
// 4.0 * inv_h2 on the diagonal and -inv_h2 off it. Reductions chunk by
// spmv_row_grain() and merge in chunk order like the CSR kernels, so the
// results match the CSR path at every pool size. The scalar loop is the only
// path: the stencil ignores `perf.simd` (DESIGN.md §10).
#pragma once

#include <cstddef>

#include "linalg/fused.hpp"
#include "linalg/vector_ops.hpp"

namespace jacepp::linalg {

struct Laplacian5 {
  std::size_t n = 0;     ///< grid side (unknowns per line), >= 2
  std::size_t rows = 0;  ///< block size, a positive multiple of n
  double inv_h2 = 0.0;   ///< 1 / h², h = 1 / (n + 1)

  /// Block of `lines` grid lines of an n-grid: inv_h2 computed as
  /// poisson::assemble_local_laplacian does.
  static Laplacian5 grid_block(std::size_t n, std::size_t lines);

  /// Stored entries of the equivalent CSR block: 5·rows − 2·rows/n − 2n.
  /// The simulator's compute-cost model charges flops from this count.
  [[nodiscard]] std::size_t nnz() const;

  /// Stored entries of rows [row_lo, row_hi) of the equivalent CSR block.
  [[nodiscard]] std::size_t nnz(std::size_t row_lo, std::size_t row_hi) const;

  /// The constant diagonal as a vector (Jacobi-preconditioned CG).
  [[nodiscard]] Vector diagonal() const;

  /// r = b - A x in one pass; returns ||r||_2. r is resized to rows.
  /// Bit-identical to linalg::spmv_residual_norm2 on the CSR block.
  double residual_norm2(const Vector& x, const Vector& b, Vector& r) const;

  /// y = A x in one pass; returns <x, y>. y is resized to rows.
  /// Bit-identical to linalg::spmv_dot on the CSR block.
  double apply_dot(const Vector& x, Vector& y) const;

  /// One weighted-Jacobi sweep over rows [row_lo, row_hi) with
  /// inv_diag = 1 / (4 inv_h2); same contract and bits as
  /// linalg::relax_sweep_fused on the CSR block.
  SweepStats relax_sweep(const Vector& b, const Vector& x_in, Vector& x_out,
                         double omega, std::size_t row_lo,
                         std::size_t row_hi) const;
};

}  // namespace jacepp::linalg
