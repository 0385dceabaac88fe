// The matrix-free Poisson stencil (linalg/stencil.hpp) against its oracle,
// the assembled CSR block of poisson::assemble_local_laplacian: every kernel
// must reproduce the CSR kernel's output to the last bit (memcmp), on blocks
// of one, two and several grid lines at the first, a middle and the last
// position of the grid, with and without overlap, at pool size 1 and at pool
// size 4 with a grain small enough to cut the rows into many chunks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/fused.hpp"
#include "linalg/partition.hpp"
#include "linalg/stencil.hpp"
#include "poisson/block_task.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace jacepp::linalg {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Restores the default grain when a test body returns or throws.
struct ScopedGrain {
  explicit ScopedGrain(std::size_t grain) { set_kernel_grain(grain); }
  ~ScopedGrain() { set_kernel_grain(0); }
};

/// A block of grid lines [lo_line, hi_line) of an n-grid.
struct Window {
  std::size_t n;
  std::size_t lo_line;
  std::size_t hi_line;

  [[nodiscard]] std::string name() const {
    return "n=" + std::to_string(n) + " lines=[" + std::to_string(lo_line) +
           "," + std::to_string(hi_line) + ")";
  }
};

/// Blocks of 1, 2, 3 and 5 lines at the first, a middle and the last
/// position, plus the extended blocks of a 4-way partition with and without
/// one line of overlap.
std::vector<Window> windows() {
  std::vector<Window> out;
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{96},
                              std::size_t{240}}) {
    for (const std::size_t lines :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
      if (lines > n) continue;
      for (const std::size_t lo : {std::size_t{0}, (n - lines) / 2, n - lines}) {
        out.push_back(Window{n, lo, lo + lines});
      }
    }
    const std::size_t parts = std::min<std::size_t>(n, 4);
    for (const std::size_t overlap : {std::size_t{0}, std::size_t{1}}) {
      for (const auto& blk : partition_rows(n * n, parts, n, overlap * n)) {
        out.push_back(Window{n, blk.ext_lo / n, blk.ext_hi / n});
      }
    }
  }
  return out;
}

/// Runs body() once at pool size 1 and once at pool size 4 (workers forced)
/// with grain 64 — 16 rows per SpMV chunk, so even short blocks split.
template <typename Body>
void at_pool_sizes(Body&& body) {
  {
    ThreadPool pool(1);
    ScopedComputePool scoped(pool);
    body("pool=1");
  }
  {
    ThreadPool pool(4, /*force_workers=*/true);
    ScopedComputePool scoped(pool);
    ScopedGrain grain(64);
    body("pool=4 grain=64");
  }
}

struct Block {
  CsrMatrix csr;
  Laplacian5 op;
};

Block make_block(const Window& w) {
  return Block{poisson::assemble_local_laplacian(w.n, w.lo_line * w.n,
                                                 w.hi_line * w.n),
               Laplacian5::grid_block(w.n, w.hi_line - w.lo_line)};
}

TEST(Stencil, GridBlockMatchesAssembledCoefficients) {
  const Block blk = make_block(Window{7, 2, 5});
  EXPECT_EQ(blk.op.rows, blk.csr.rows());
  EXPECT_TRUE(bitwise_equal(-blk.op.inv_h2, blk.csr.at(8, 7)));
  EXPECT_TRUE(bitwise_equal(4.0 * blk.op.inv_h2, blk.csr.at(7, 7)));
  EXPECT_TRUE(bitwise_equal(blk.op.diagonal(), blk.csr.diagonal()));
}

TEST(Stencil, NnzMatchesCsr) {
  for (const Window& w : windows()) {
    const Block blk = make_block(w);
    ASSERT_EQ(blk.op.nnz(), blk.csr.nnz()) << w.name();
    const std::size_t rows = blk.op.rows;
    const auto& row_ptr = blk.csr.row_ptr();
    for (const auto& [lo, hi] :
         {std::pair<std::size_t, std::size_t>{0, rows},
          {0, w.n}, {rows - w.n, rows}, {1, rows - 1}}) {
      EXPECT_EQ(blk.op.nnz(lo, hi), row_ptr[hi] - row_ptr[lo])
          << w.name() << " rows=[" << lo << "," << hi << ")";
    }
  }
}

TEST(Stencil, ResidualNorm2BitIdenticalToCsr) {
  at_pool_sizes([](const char* pool) {
    for (const Window& w : windows()) {
      const Block blk = make_block(w);
      const std::size_t rows = blk.op.rows;
      const Vector b = random_vector(rows, 11 + rows);
      for (const Vector& x :
           {Vector(rows, 0.0), random_vector(rows, 13 + rows)}) {
        Vector r_csr;
        Vector r_op;
        const double norm_csr = spmv_residual_norm2(blk.csr, x, b, r_csr);
        const double norm_op = blk.op.residual_norm2(x, b, r_op);
        EXPECT_TRUE(bitwise_equal(r_op, r_csr)) << pool << " " << w.name();
        EXPECT_TRUE(bitwise_equal(norm_op, norm_csr)) << pool << " " << w.name();
      }
    }
  });
}

TEST(Stencil, ApplyDotBitIdenticalToCsr) {
  at_pool_sizes([](const char* pool) {
    for (const Window& w : windows()) {
      const Block blk = make_block(w);
      const Vector x = random_vector(blk.op.rows, 17 + blk.op.rows);
      Vector y_csr;
      Vector y_op;
      const double dot_csr = spmv_dot(blk.csr, x, y_csr);
      const double dot_op = blk.op.apply_dot(x, y_op);
      EXPECT_TRUE(bitwise_equal(y_op, y_csr)) << pool << " " << w.name();
      EXPECT_TRUE(bitwise_equal(dot_op, dot_csr)) << pool << " " << w.name();
    }
  });
}

TEST(Stencil, RelaxSweepBitIdenticalToCsr) {
  at_pool_sizes([](const char* pool) {
    for (const Window& w : windows()) {
      const Block blk = make_block(w);
      const std::size_t rows = blk.op.rows;
      Vector inv_diag = blk.csr.diagonal();
      for (double& d : inv_diag) d = 1.0 / d;
      const Vector b = random_vector(rows, 19 + rows);
      const Vector x_in = random_vector(rows, 23 + rows);
      // The whole block, the first and last lines (the preview sweeps), and
      // a window that starts and ends mid-line.
      for (const auto& [lo, hi] :
           {std::pair<std::size_t, std::size_t>{0, rows},
            {0, w.n}, {rows - w.n, rows}, {1, rows - 1}}) {
        Vector out_csr(rows, 0.5);
        Vector out_op(rows, 0.5);
        const SweepStats s_csr = relax_sweep_fused(blk.csr, inv_diag, b, x_in,
                                                   out_csr, 2.0 / 3.0, lo, hi);
        const SweepStats s_op =
            blk.op.relax_sweep(b, x_in, out_op, 2.0 / 3.0, lo, hi);
        const std::string where = std::string(pool) + " " + w.name() +
                                  " rows=[" + std::to_string(lo) + "," +
                                  std::to_string(hi) + ")";
        EXPECT_TRUE(bitwise_equal(out_op, out_csr)) << where;
        EXPECT_TRUE(bitwise_equal(s_op.diff2, s_csr.diff2)) << where;
        EXPECT_TRUE(bitwise_equal(s_op.norm2, s_csr.norm2)) << where;
      }
    }
  });
}

TEST(Stencil, ConjugateGradientBitIdenticalToCsr) {
  // Two warm-started solves per operator through one reused workspace, with
  // and without the Jacobi preconditioner: every output must match.
  at_pool_sizes([](const char* pool) {
    for (const Window& w : {Window{2, 0, 2}, Window{3, 1, 2}, Window{96, 40, 42},
                            Window{240, 0, 3}, Window{240, 100, 103}}) {
      const Block blk = make_block(w);
      const std::size_t rows = blk.op.rows;
      for (const bool jacobi : {false, true}) {
        CgOptions options;
        options.tolerance = 1e-9;
        options.max_iterations = 400;
        options.jacobi_preconditioner = jacobi;
        CgWorkspace work_csr;
        CgWorkspace work_op;
        Vector x_csr(rows, 0.0);
        Vector x_op(rows, 0.0);
        for (const std::uint64_t seed : {29u, 31u}) {
          const Vector b = random_vector(rows, seed + rows);
          const CgResult r_csr =
              conjugate_gradient(blk.csr, b, x_csr, options, work_csr);
          const CgResult r_op =
              conjugate_gradient(blk.op, b, x_op, options, work_op);
          const std::string where = std::string(pool) + " " + w.name() +
                                    (jacobi ? " jacobi" : "") +
                                    " seed=" + std::to_string(seed);
          EXPECT_TRUE(r_op.converged) << where;
          EXPECT_EQ(r_op.converged, r_csr.converged) << where;
          EXPECT_EQ(r_op.iterations, r_csr.iterations) << where;
          EXPECT_TRUE(bitwise_equal(r_op.residual_norm, r_csr.residual_norm))
              << where;
          EXPECT_TRUE(bitwise_equal(r_op.flops, r_csr.flops)) << where;
          EXPECT_TRUE(bitwise_equal(x_op, x_csr)) << where;
        }
      }
    }
  });
}

TEST(Stencil, ReusedWorkspaceMatchesFreshOne) {
  const Laplacian5 op = Laplacian5::grid_block(12, 4);
  CgWorkspace reused;
  Vector warm(op.rows, 0.0);
  (void)conjugate_gradient(op, random_vector(op.rows, 37), warm, CgOptions{},
                           reused);
  const Vector b = random_vector(op.rows, 41);
  Vector x_reused(op.rows, 0.0);
  Vector x_fresh(op.rows, 0.0);
  CgWorkspace fresh;
  const CgResult a = conjugate_gradient(op, b, x_reused, CgOptions{}, reused);
  const CgResult c = conjugate_gradient(op, b, x_fresh, CgOptions{}, fresh);
  EXPECT_EQ(a.iterations, c.iterations);
  EXPECT_TRUE(bitwise_equal(a.residual_norm, c.residual_norm));
  EXPECT_TRUE(bitwise_equal(x_reused, x_fresh));
}

}  // namespace
}  // namespace jacepp::linalg
