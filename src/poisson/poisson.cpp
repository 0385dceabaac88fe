#include "poisson/poisson.hpp"

#include <cmath>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace jacepp::poisson {

linalg::CsrMatrix assemble_laplacian(std::size_t n) {
  JACEPP_CHECK(n >= 2, "assemble_laplacian: n must be >= 2");
  const double h = 1.0 / static_cast<double>(n + 1);
  const double inv_h2 = 1.0 / (h * h);
  const std::size_t size = n * n;
  linalg::CsrBuilder builder(size, size);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t row = j * n + i;
      builder.add(row, row, 4.0 * inv_h2);
      if (i > 0) builder.add(row, row - 1, -inv_h2);
      if (i + 1 < n) builder.add(row, row + 1, -inv_h2);
      if (j > 0) builder.add(row, row - n, -inv_h2);
      if (j + 1 < n) builder.add(row, row + n, -inv_h2);
    }
  }
  return builder.build();
}

linalg::Vector assemble_rhs(std::size_t n, const Field& f) {
  return assemble_rhs(n, f, 0, n * n);
}

linalg::Vector assemble_rhs(std::size_t n, const Field& f, std::size_t row_lo,
                            std::size_t row_hi) {
  JACEPP_ASSERT(row_lo <= row_hi && row_hi <= n * n);
  const double h = 1.0 / static_cast<double>(n + 1);
  linalg::Vector b(row_hi - row_lo);
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    const double x = static_cast<double>(row % n + 1) * h;
    const double y = static_cast<double>(row / n + 1) * h;
    b[row - row_lo] = f(x, y);
  }
  return b;
}

double default_source(double x, double y) {
  return 2.0 * M_PI * M_PI * std::sin(M_PI * x) * std::sin(M_PI * y);
}

PoissonProblem make_default_problem(std::size_t n) {
  PoissonProblem problem;
  problem.n = n;
  problem.a = assemble_laplacian(n);
  problem.b = assemble_rhs(n, default_source);
  return problem;
}

ManufacturedProblem make_manufactured_problem(std::size_t n, std::uint64_t seed) {
  ManufacturedProblem out;
  out.problem.n = n;
  out.problem.a = assemble_laplacian(n);
  Rng rng(seed);
  out.exact.resize(n * n);
  for (double& v : out.exact) v = rng.uniform(-1.0, 1.0);
  out.problem.a.multiply(out.exact, out.problem.b);
  return out;
}

linalg::Vector default_exact_solution(std::size_t n) {
  const double h = 1.0 / static_cast<double>(n + 1);
  linalg::Vector u(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i + 1) * h;
      const double y = static_cast<double>(j + 1) * h;
      u[j * n + i] = std::sin(M_PI * x) * std::sin(M_PI * y);
    }
  }
  return u;
}

linalg::Vector reference_solve(const PoissonProblem& problem, double tolerance) {
  linalg::Vector x;
  linalg::CgOptions options;
  options.tolerance = tolerance;
  options.max_iterations = 20 * problem.n + 200;
  const auto result = linalg::conjugate_gradient(problem.a, problem.b, x, options);
  JACEPP_CHECK(result.converged, "reference_solve: CG did not converge");
  return x;
}

}  // namespace jacepp::poisson
