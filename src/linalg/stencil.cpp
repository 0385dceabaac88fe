#include "linalg/stencil.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {
namespace {

/// (A x)[r] for one row whose present neighbours are fixed at compile time.
/// Same operations, in the same order, as the sorted-CSR row loop.
template <bool Down, bool Left, bool Right, bool Up>
inline double row_ax(const double* x, std::size_t r, std::size_t n,
                     double diag, double off) {
  double ax = 0.0;
  if constexpr (Down) ax += off * x[r - n];
  if constexpr (Left) ax += off * x[r - 1];
  ax += diag * x[r];
  if constexpr (Right) ax += off * x[r + 1];
  if constexpr (Up) ax += off * x[r + n];
  return ax;
}

/// y[r] = (A x)[r] for rows [lo, hi) of the grid line starting at `line`:
/// first column, the branch-free interior, last column (n >= 2, so the two
/// ends differ). Rows are independent, so the interior loop vectorizes
/// across rows without changing any row's operation order.
template <bool Down, bool Up>
void line_ax(const double* __restrict x, double* __restrict y,
             std::size_t line, std::size_t lo, std::size_t hi, std::size_t n,
             double diag, double off) {
  std::size_t r = lo;
  if (r == line && r < hi) {
    y[r] = row_ax<Down, false, true, Up>(x, r, n, diag, off);
    ++r;
  }
  const std::size_t interior_end = std::min(hi, line + n - 1);
  for (; r < interior_end; ++r) {
    y[r] = row_ax<Down, true, true, Up>(x, r, n, diag, off);
  }
  if (r < hi) y[r] = row_ax<Down, true, false, Up>(x, r, n, diag, off);
}

/// y[r] = (A x)[r] for every row in [lo, hi). x and y must not overlap.
/// The kernels below run this first and then their reduction in a second,
/// in-cache pass over [lo, hi): the serial reduction chain is then the only
/// dependency the row loop waits on.
void apply_rows(const Laplacian5& op, const double* x, double* y,
                std::size_t lo, std::size_t hi) {
  const std::size_t n = op.n;
  const double diag = 4.0 * op.inv_h2;
  const double off = -op.inv_h2;
  while (lo < hi) {
    const std::size_t line = lo - lo % n;
    const std::size_t end = std::min(hi, line + n);
    const bool down = line > 0;
    const bool up = line + n < op.rows;
    if (down && up) {
      line_ax<true, true>(x, y, line, lo, end, n, diag, off);
    } else if (down) {
      line_ax<true, false>(x, y, line, lo, end, n, diag, off);
    } else if (up) {
      line_ax<false, true>(x, y, line, lo, end, n, diag, off);
    } else {
      line_ax<false, false>(x, y, line, lo, end, n, diag, off);
    }
    lo = end;
  }
}

}  // namespace

Laplacian5 Laplacian5::grid_block(std::size_t n, std::size_t lines) {
  JACEPP_ASSERT(n >= 2 && lines >= 1);
  const double h = 1.0 / static_cast<double>(n + 1);
  return Laplacian5{n, n * lines, 1.0 / (h * h)};
}

std::size_t Laplacian5::nnz() const { return 5 * rows - 2 * (rows / n) - 2 * n; }

std::size_t Laplacian5::nnz(std::size_t row_lo, std::size_t row_hi) const {
  JACEPP_ASSERT(row_lo <= row_hi && row_hi <= rows);
  std::size_t count = 0;
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::size_t i = r % n;
    count += 1 + (i > 0) + (i + 1 < n) + (r >= n) + (r + n < rows);
  }
  return count;
}

Vector Laplacian5::diagonal() const { return Vector(rows, 4.0 * inv_h2); }

double Laplacian5::residual_norm2(const Vector& x, const Vector& b,
                                  Vector& r) const {
  JACEPP_ASSERT(x.size() == rows && b.size() == rows);
  r.resize(rows);
  JACEPP_ASSERT(x.data() != r.data());
  const double* xs = x.data();
  const double* bs = b.data();
  double* rs = r.data();
  const Laplacian5 op = *this;
  const double acc = compute_pool().parallel_reduce(
      0, rows, spmv_row_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        apply_rows(op, xs, rs, lo, hi);
        double partial = 0.0;
        for (std::size_t row = lo; row < hi; ++row) {
          const double d = bs[row] - rs[row];
          rs[row] = d;
          partial += d * d;
        }
        return partial;
      },
      [](double a_, double b_) { return a_ + b_; });
  return std::sqrt(acc);
}

double Laplacian5::apply_dot(const Vector& x, Vector& y) const {
  JACEPP_ASSERT(x.size() == rows);
  y.resize(rows);
  JACEPP_ASSERT(x.data() != y.data());
  const double* xs = x.data();
  double* ys = y.data();
  const Laplacian5 op = *this;
  return compute_pool().parallel_reduce(
      0, rows, spmv_row_grain(), 0.0,
      [=](std::size_t lo, std::size_t hi) {
        apply_rows(op, xs, ys, lo, hi);
        double partial = 0.0;
        for (std::size_t row = lo; row < hi; ++row) partial += xs[row] * ys[row];
        return partial;
      },
      [](double a_, double b_) { return a_ + b_; });
}

SweepStats Laplacian5::relax_sweep(const Vector& b, const Vector& x_in,
                                   Vector& x_out, double omega,
                                   std::size_t row_lo,
                                   std::size_t row_hi) const {
  JACEPP_ASSERT(row_lo <= row_hi && row_hi <= rows);
  JACEPP_ASSERT(x_in.size() == rows && x_out.size() == rows && b.size() == rows);
  JACEPP_ASSERT(x_in.data() != x_out.data());
  const double inv_d = 1.0 / (4.0 * inv_h2);
  const double* bs = b.data();
  const double* xin = x_in.data();
  double* xout = x_out.data();
  const Laplacian5 op = *this;
  return compute_pool().parallel_reduce(
      row_lo, row_hi, spmv_row_grain(), SweepStats{},
      [=](std::size_t lo, std::size_t hi) {
        apply_rows(op, xin, xout, lo, hi);
        SweepStats partial;
        for (std::size_t row = lo; row < hi; ++row) {
          const double update = omega * inv_d * (bs[row] - xout[row]);
          const double v = xin[row] + update;
          xout[row] = v;
          partial.diff2 += update * update;
          partial.norm2 += v * v;
        }
        return partial;
      },
      [](SweepStats a_, const SweepStats& b_) {
        a_.diff2 += b_.diff2;
        a_.norm2 += b_.norm2;
        return a_;
      });
}

}  // namespace jacepp::linalg
