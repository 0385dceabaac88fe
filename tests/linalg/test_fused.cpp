// Determinism tests for the fused hot-path kernels (linalg/fused.hpp):
// with a pool of size 1 each fused kernel must be bit-identical to the
// unfused sequence it replaces; with pool sizes >= 2 results must be stable
// across pool sizes and, for a FIXED grain override, across that grain too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>

#include "linalg/csr.hpp"
#include "linalg/fused.hpp"
#include "linalg/vector_ops.hpp"
#include "poisson/poisson.hpp"
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

/// Restores the default grain when a test body returns or throws.
struct ScopedGrain {
  explicit ScopedGrain(std::size_t grain) { set_kernel_grain(grain); }
  ~ScopedGrain() { set_kernel_grain(0); }
};

// --- Pool size 1: fused == unfused to the last bit ------------------------

TEST(FusedKernels, SpmvResidualNorm2BitIdenticalAtPoolOne) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  for (const std::size_t side :
       {std::size_t{3}, std::size_t{17}, std::size_t{40}}) {
    const auto a = poisson::assemble_laplacian(side);
    const Vector x = random_vector(a.cols(), 11 + side);
    const Vector b = random_vector(a.rows(), 23 + side);

    Vector ax;
    a.multiply(x, ax);
    Vector r_ref;
    residual(b, ax, r_ref);
    const double norm_ref = norm2(r_ref);

    Vector r;
    const double norm_fused = spmv_residual_norm2(a, x, b, r);
    EXPECT_TRUE(bitwise_equal(r, r_ref)) << "side=" << side;
    EXPECT_EQ(norm_fused, norm_ref) << "side=" << side;
  }
}

TEST(FusedKernels, SpmvDotBitIdenticalAtPoolOne) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  for (const std::size_t side :
       {std::size_t{3}, std::size_t{17}, std::size_t{40}}) {
    const auto a = poisson::assemble_laplacian(side);
    const Vector x = random_vector(a.cols(), 31 + side);

    Vector y_ref;
    a.multiply(x, y_ref);
    const double dot_ref = dot(x, y_ref);

    Vector y;
    const double dot_fused = spmv_dot(a, x, y);
    EXPECT_TRUE(bitwise_equal(y, y_ref)) << "side=" << side;
    EXPECT_EQ(dot_fused, dot_ref) << "side=" << side;
  }
}

TEST(FusedKernels, AxpyNorm2BitIdenticalAtEveryPoolSize) {
  // axpy_norm2 chunks by vector_op_grain() exactly like axpy + norm2, so the
  // match is bitwise at EVERY pool size, not just 1.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    ScopedComputePool scoped(pool);
    const std::size_t n = 3 * kVectorOpGrain + 17;
    const Vector x = random_vector(n, 41);
    Vector y_ref = random_vector(n, 43);
    Vector y = y_ref;

    axpy(-0.625, x, y_ref);
    const double norm_ref = norm2(y_ref);

    const double norm_fused = axpy_norm2(-0.625, x, y);
    EXPECT_TRUE(bitwise_equal(y, y_ref)) << "threads=" << threads;
    EXPECT_EQ(norm_fused, norm_ref) << "threads=" << threads;
  }
}

TEST(FusedKernels, CgUpdateNorm2sqBitIdenticalAtEveryPoolSize) {
  // cg_update_norm2sq == axpy(alpha, p, x) + axpy_norm2(-alpha, ap, r),
  // squared, at every pool size.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads, /*force_workers=*/true);
    ScopedComputePool scoped(pool);
    const std::size_t n = 3 * kVectorOpGrain + 17;
    const Vector p = random_vector(n, 43);
    const Vector ap = random_vector(n, 47);
    Vector x_ref = random_vector(n, 53);
    Vector r_ref = random_vector(n, 59);
    Vector x = x_ref;
    Vector r = r_ref;
    axpy(0.375, p, x_ref);
    const double norm_ref = axpy_norm2(-0.375, ap, r_ref);
    const double rr = cg_update_norm2sq(0.375, p, ap, x, r);
    EXPECT_TRUE(bitwise_equal(x, x_ref)) << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(r, r_ref)) << "threads=" << threads;
    EXPECT_EQ(std::sqrt(rr), norm_ref) << "threads=" << threads;
    EXPECT_EQ(rr, dot(r, r)) << "threads=" << threads;
  }
}

TEST(FusedKernels, RelaxSweepMatchesReferenceLoopAtPoolOne) {
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  const auto a = poisson::assemble_laplacian(12);
  const std::size_t n = a.rows();
  Vector inv_diag = a.diagonal();
  for (double& d : inv_diag) d = 1.0 / d;
  const Vector b = random_vector(n, 51);
  const Vector x_in = random_vector(n, 53);
  const double omega = 2.0 / 3.0;
  const std::size_t row_lo = 13;
  const std::size_t row_hi = n - 7;

  Vector x_ref(n, 0.0);
  double diff2_ref = 0.0;
  double norm2_ref = 0.0;
  for (std::size_t row = row_lo; row < row_hi; ++row) {
    double ax = 0.0;
    for (std::uint32_t k = a.row_ptr()[row]; k < a.row_ptr()[row + 1]; ++k) {
      ax += a.values()[k] * x_in[a.col_idx()[k]];
    }
    const double update = omega * inv_diag[row] * (b[row] - ax);
    const double v = x_in[row] + update;
    x_ref[row] = v;
    diff2_ref += update * update;
    norm2_ref += v * v;
  }

  Vector x_out(n, 0.0);
  const SweepStats stats =
      relax_sweep_fused(a, inv_diag, b, x_in, x_out, omega, row_lo, row_hi);
  EXPECT_TRUE(bitwise_equal(x_out, x_ref));
  EXPECT_EQ(stats.diff2, diff2_ref);
  EXPECT_EQ(stats.norm2, norm2_ref);
  // Rows outside the window stay untouched.
  EXPECT_EQ(x_out[0], 0.0);
  EXPECT_EQ(x_out[n - 1], 0.0);
}

// --- Pool sizes >= 2: chunk-stability across pools and grains -------------

TEST(FusedKernels, ResultsAgreeAcrossParallelPoolSizes) {
  const auto a = poisson::assemble_laplacian(40);
  const Vector x = random_vector(a.cols(), 71);
  const Vector b = random_vector(a.rows(), 73);

  auto run = [&](std::size_t threads, Vector& r) {
    ThreadPool pool(threads);
    ScopedComputePool scoped(pool);
    return spmv_residual_norm2(a, x, b, r);
  };
  Vector r2;
  Vector r8;
  const double n2 = run(2, r2);
  const double n8 = run(8, r8);
  EXPECT_EQ(n2, n8);
  EXPECT_TRUE(bitwise_equal(r2, r8));
}

TEST(FusedKernels, ParallelResultsAreCloseToSerial) {
  // Chunked reductions reassociate; the value must still agree to ~1e-12.
  const auto a = poisson::assemble_laplacian(40);
  const Vector x = random_vector(a.cols(), 81);
  const Vector b = random_vector(a.rows(), 83);
  double serial = 0.0;
  double parallel = 0.0;
  Vector r;
  {
    ThreadPool pool(1);
    ScopedComputePool scoped(pool);
    serial = spmv_residual_norm2(a, x, b, r);
  }
  {
    ThreadPool pool(4);
    ScopedComputePool scoped(pool);
    parallel = spmv_residual_norm2(a, x, b, r);
  }
  EXPECT_NEAR(parallel, serial, 1e-12 * (serial + 1.0));
}

// --- Grain knob (perf.grain / JACEPP_GRAIN) --------------------------------

TEST(KernelGrain, OverrideIsVisibleAndRestorable) {
  EXPECT_EQ(vector_op_grain(), kVectorOpGrain);
  EXPECT_EQ(spmv_row_grain(), kVectorOpGrain / 4);
  {
    ScopedGrain grain(512);
    EXPECT_EQ(vector_op_grain(), 512u);
    EXPECT_EQ(spmv_row_grain(), 128u);
  }
  EXPECT_EQ(vector_op_grain(), kVectorOpGrain);
  {
    ScopedGrain grain(2);  // spmv grain clamps to >= 1
    EXPECT_EQ(vector_op_grain(), 2u);
    EXPECT_EQ(spmv_row_grain(), 1u);
  }
  EXPECT_EQ(spmv_row_grain(), kVectorOpGrain / 4);
}

TEST(KernelGrain, PoolOneResultIndependentOfGrain) {
  // With one worker the whole range is a single chunk regardless of grain:
  // the result must not move by a bit.
  ThreadPool pool(1);
  ScopedComputePool scoped(pool);
  const std::size_t n = 2 * kVectorOpGrain + 29;
  const Vector x = random_vector(n, 91);
  const Vector y = random_vector(n, 93);
  const double base = dot(x, y);
  for (const std::size_t g : {std::size_t{1}, std::size_t{64},
                              std::size_t{100000}}) {
    ScopedGrain grain(g);
    EXPECT_EQ(dot(x, y), base) << "grain=" << g;
  }
}

TEST(KernelGrain, ChunkStabilityHoldsAcrossPoolSizesForEachGrain) {
  // The determinism contract per FIXED grain: every pool size >= 2 chunks the
  // range identically, so reductions agree bit-for-bit. Different grains may
  // legitimately differ (reassociation), but each must be internally stable.
  const std::size_t n = 5 * kVectorOpGrain + 3;
  const Vector x = random_vector(n, 101);
  const Vector y = random_vector(n, 102);
  const auto a = poisson::assemble_laplacian(40);
  const Vector xs = random_vector(a.cols(), 103);
  const Vector bs = random_vector(a.rows(), 104);

  for (const std::size_t g : {std::size_t{0}, std::size_t{257},
                              std::size_t{1024}, std::size_t{8192}}) {
    ScopedGrain grain(g);
    double dot2 = 0.0;
    double dot8 = 0.0;
    Vector r2;
    Vector r8;
    double res2 = 0.0;
    double res8 = 0.0;
    {
      ThreadPool pool(2);
      ScopedComputePool scoped(pool);
      dot2 = dot(x, y);
      res2 = spmv_residual_norm2(a, xs, bs, r2);
    }
    {
      ThreadPool pool(8);
      ScopedComputePool scoped(pool);
      dot8 = dot(x, y);
      res8 = spmv_residual_norm2(a, xs, bs, r8);
    }
    EXPECT_EQ(dot2, dot8) << "grain=" << g;
    EXPECT_EQ(res2, res8) << "grain=" << g;
    EXPECT_TRUE(bitwise_equal(r2, r8)) << "grain=" << g;
  }
}

}  // namespace
}  // namespace jacepp::linalg
