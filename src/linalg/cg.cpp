#include "linalg/cg.hpp"

#include <cmath>

#include "linalg/fused.hpp"
#include "support/assert.hpp"

namespace jacepp::linalg {
namespace {

// The two SpMV-shaped steps of an iteration, per operator.
std::size_t op_rows(const CsrMatrix& a) {
  JACEPP_ASSERT(a.rows() == a.cols());
  return a.rows();
}
std::size_t op_rows(const Laplacian5& a) { return a.rows; }

double op_residual_norm2(const CsrMatrix& a, const Vector& x, const Vector& b,
                         Vector& r) {
  return spmv_residual_norm2(a, x, b, r);
}
double op_residual_norm2(const Laplacian5& a, const Vector& x, const Vector& b,
                         Vector& r) {
  return a.residual_norm2(x, b, r);
}

double op_apply_dot(const CsrMatrix& a, const Vector& x, Vector& y) {
  return spmv_dot(a, x, y);
}
double op_apply_dot(const Laplacian5& a, const Vector& x, Vector& y) {
  return a.apply_dot(x, y);
}

}  // namespace

// Per iteration: one SpMV+dot pass (p·Ap), one pass updating x and r
// together with Σ r², and one pass for p. Without a preconditioner z = r, so
// <r, z> is that Σ r² — the same chunking (vector_op_grain()) and the same
// products as dot(r, r), hence the same bits at every pool size.
template <typename Op>
CgResult conjugate_gradient(const Op& a, const Vector& b, Vector& x,
                            const CgOptions& options, CgWorkspace& work) {
  const std::size_t n = b.size();
  JACEPP_ASSERT(op_rows(a) == n);
  if (x.size() != n) x.assign(n, 0.0);

  CgResult result;
  const double nnz_work = 2.0 * static_cast<double>(a.nnz());
  const double vec_work = static_cast<double>(n);
  const bool precond = options.jacobi_preconditioner;

  Vector inv_diag;
  if (precond) {
    inv_diag = a.diagonal();
    for (double& d : inv_diag) {
      JACEPP_CHECK(d != 0.0, "Jacobi preconditioner: zero diagonal entry");
      d = 1.0 / d;
    }
  }

  Vector& r = work.r;
  Vector& p = work.p;
  Vector& ap = work.ap;
  Vector& z = work.z;
  double r_norm = op_residual_norm2(a, x, b, r);
  result.flops += nnz_work;

  const double b_norm = norm2(b);
  const double threshold = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  if (r_norm <= threshold) {
    result.converged = true;
    result.residual_norm = r_norm;
    return result;
  }

  // z = M^-1 r; without a preconditioner r itself stands in for z.
  auto precondition = [&]() -> const Vector& {
    if (!precond) return r;
    hadamard(inv_diag, r, z);
    result.flops += vec_work;
    return z;
  };

  p = precondition();
  double rz = dot(r, p);
  result.flops += 2.0 * vec_work;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double p_ap = op_apply_dot(a, p, ap);
    result.flops += nnz_work + 2.0 * vec_work;
    if (p_ap <= 0.0) {
      // Non-SPD system or total breakdown; report divergence rather than abort
      // so callers (the async runtime) can react.
      break;
    }
    const double alpha = rz / p_ap;
    const double rr = cg_update_norm2sq(alpha, p, ap, x, r);
    r_norm = std::sqrt(rr);
    result.flops += 4.0 * vec_work;
    ++result.iterations;

    result.flops += 2.0 * vec_work;
    if (r_norm <= threshold) {
      result.converged = true;
      break;
    }

    const Vector& zk = precondition();
    const double rz_next = precond ? dot(r, zk) : rr;
    const double beta = rz_next / rz;
    rz = rz_next;
    axpby(1.0, zk, beta, p);  // p = z + beta * p (1.0 * z is exact)
    result.flops += 4.0 * vec_work;
  }

  result.residual_norm = r_norm;
  return result;
}

template CgResult conjugate_gradient(const CsrMatrix&, const Vector&, Vector&,
                                     const CgOptions&, CgWorkspace&);
template CgResult conjugate_gradient(const Laplacian5&, const Vector&, Vector&,
                                     const CgOptions&, CgWorkspace&);

}  // namespace jacepp::linalg
