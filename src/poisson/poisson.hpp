// 2-D Poisson problem (paper §6): -Δu = f on the unit square, Dirichlet
// boundary, discretized by centered finite differences on a uniform n×n
// interior grid. The resulting system A x = b has a 5-diagonal SPD M-matrix A
// of size n² × n².
#pragma once

#include <functional>

#include "linalg/cg.hpp"
#include "linalg/csr.hpp"

namespace jacepp::poisson {

/// Scalar field on the unit square.
using Field = std::function<double(double x, double y)>;

/// Assemble the 5-point finite-difference Laplacian for an n×n interior grid
/// with Dirichlet boundary (rows scaled by 1/h², h = 1/(n+1)). Row index is
/// j*n + i (row-major grid lines), matching the paper's line-based
/// decomposition where one grid line = n consecutive components.
linalg::CsrMatrix assemble_laplacian(std::size_t n);

/// Evaluate f on the grid to build the right-hand side b (boundary terms are
/// zero for homogeneous Dirichlet).
linalg::Vector assemble_rhs(std::size_t n, const Field& f);

/// Rows [row_lo, row_hi) of assemble_rhs(n, f), evaluating f on those grid
/// points only.
linalg::Vector assemble_rhs(std::size_t n, const Field& f, std::size_t row_lo,
                            std::size_t row_hi);

/// The default source f = 2π² sin(πx) sin(πy).
double default_source(double x, double y);

struct PoissonProblem {
  std::size_t n = 0;            ///< grid side; system size is n²
  linalg::CsrMatrix a;
  linalg::Vector b;
};

/// Standard instance: f = 2π² sin(πx) sin(πy), whose continuous solution is
/// u = sin(πx) sin(πy).
PoissonProblem make_default_problem(std::size_t n);

/// Instance with a known DISCRETE solution: picks x* deterministically from
/// `seed` and sets b = A x*, so solvers can be verified to machine precision.
struct ManufacturedProblem {
  PoissonProblem problem;
  linalg::Vector exact;
};
ManufacturedProblem make_manufactured_problem(std::size_t n, std::uint64_t seed);

/// Continuous solution of the default problem sampled on the grid.
linalg::Vector default_exact_solution(std::size_t n);

/// Sequential reference solve with global CG.
linalg::Vector reference_solve(const PoissonProblem& problem,
                               double tolerance = 1e-10);

}  // namespace jacepp::poisson
