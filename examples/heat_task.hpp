// The custom application's task (examples/custom_application.cpp): the
// steady 1-D heat equation -u'' = f solved by asynchronous block-Jacobi with
// an exact tridiagonal (Thomas) inner solver. In a header so bench_checkpoint
// can measure its checkpoint frames too.
//
// The five things a task implements:
//   init()        — build local state from the AppDescriptor + task id
//   iterate()     — one outer iteration of real math; returns its flops
//   outgoing()    — dependency data to push to neighbours afterwards
//   on_data()     — latest-wins reception of neighbour data
//   checkpoint()/restore() — serialize state for the Backup fault tolerance
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/task.hpp"

namespace jacepp::examples {

/// Program arguments, carried as bytes in AppDescriptor::config.
struct HeatConfig {
  std::uint32_t cells = 256;  ///< interior unknowns on [0, 1]
  /// Emulated per-cell kernel weight: scales the flops each iteration
  /// reports so the simulated compute time dwarfs per-message latency
  /// (otherwise a trivial 1-D solve spins sub-microsecond iterations).
  double work_per_cell = 1e4;

  void serialize(serial::Writer& w) const {
    w.u32(cells);
    w.f64(work_per_cell);
  }
  static HeatConfig deserialize(serial::Reader& r) {
    HeatConfig c;
    c.cells = r.u32();
    c.work_per_cell = r.f64();
    return c;
  }
};

/// -u'' = f, f = pi^2 sin(pi x)  ⇒  u = sin(pi x), Dirichlet u(0)=u(1)=0.
class HeatTask : public core::Task {
 public:
  static constexpr const char* kProgramName = "examples.heat1d";

  void init(const core::AppDescriptor& app, core::TaskId task_id) override {
    serial::Reader reader(app.config);
    config_ = HeatConfig::deserialize(reader);
    task_id_ = task_id;
    task_count_ = app.task_count;

    // Contiguous chunk of unknowns for this task.
    const std::uint32_t base = config_.cells / task_count_;
    const std::uint32_t extra = config_.cells % task_count_;
    lo_ = task_id * base + std::min(task_id, extra);
    size_ = base + (task_id < extra ? 1 : 0);

    const double h = 1.0 / (config_.cells + 1);
    inv_h2_ = 1.0 / (h * h);
    b_.resize(size_);
    for (std::uint32_t i = 0; i < size_; ++i) {
      const double x = (lo_ + i + 1) * h;
      b_[i] = M_PI * M_PI * std::sin(M_PI * x);
    }
    u_.assign(size_, 0.0);
    prev_.assign(size_, 0.0);
    left_value_ = right_value_ = 0.0;
  }

  double iterate() override {
    // Solve the local tridiagonal system exactly (Thomas algorithm) with the
    // latest neighbour boundary values as Dirichlet data.
    std::vector<double> rhs(b_);
    rhs.front() += inv_h2_ * left_value_;
    rhs.back() += inv_h2_ * right_value_;

    std::vector<double> c(size_, 0.0);
    std::vector<double> d(size_, 0.0);
    const double diag = 2.0 * inv_h2_;
    const double off = -inv_h2_;
    c[0] = off / diag;
    d[0] = rhs[0] / diag;
    for (std::uint32_t i = 1; i < size_; ++i) {
      const double m = diag - off * c[i - 1];
      c[i] = off / m;
      d[i] = (rhs[i] - off * d[i - 1]) / m;
    }
    u_[size_ - 1] = d[size_ - 1];
    for (std::uint32_t i = size_ - 1; i-- > 0;) {
      u_[i] = d[i] - c[i] * u_[i + 1];
    }

    double diff2 = 0.0;
    double norm2 = 0.0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      const double delta = u_[i] - prev_[i];
      diff2 += delta * delta;
      norm2 += u_[i] * u_[i];
      prev_[i] = u_[i];
    }
    error_ = std::sqrt(diff2) / std::max(std::sqrt(norm2), 1e-300);
    informative_ = fresh_ || iterations_ == 0 || task_count_ == 1;
    fresh_ = false;
    ++iterations_;
    return 9.0 * size_ * config_.work_per_cell;
  }

  std::vector<core::OutgoingData> outgoing() override {
    std::vector<core::OutgoingData> out;
    auto one_value = [](double v) {
      serial::Writer w;
      w.f64(v);
      return w.take();
    };
    if (task_id_ > 0) out.push_back({task_id_ - 1, one_value(u_.front())});
    if (task_id_ + 1 < task_count_) {
      out.push_back({task_id_ + 1, one_value(u_.back())});
    }
    return out;
  }

  [[nodiscard]] double local_error() const override { return error_; }
  [[nodiscard]] bool error_is_informative() const override { return informative_; }

  void on_data(core::TaskId from, std::uint64_t, const serial::Bytes& bytes) override {
    serial::Reader reader(bytes);
    const double value = reader.f64();
    if (!reader.ok()) return;
    if (from + 1 == task_id_ && value != left_value_) {
      left_value_ = value;
      fresh_ = true;
    } else if (from == task_id_ + 1 && value != right_value_) {
      right_value_ = value;
      fresh_ = true;
    }
  }

  [[nodiscard]] serial::Bytes checkpoint() const override {
    serial::Writer w;
    w.f64_vector(u_);
    w.f64(left_value_);
    w.f64(right_value_);
    w.u64(iterations_);
    return w.take();
  }

  void restore(const serial::Bytes& state) override {
    serial::Reader r(state);
    u_ = r.f64_vector();
    left_value_ = r.f64();
    right_value_ = r.f64();
    iterations_ = r.u64();
    prev_ = u_;
  }

  [[nodiscard]] serial::Bytes final_payload() const override {
    serial::Writer w;
    w.f64_vector(u_);
    return w.take();
  }

 private:
  HeatConfig config_;
  core::TaskId task_id_ = 0;
  std::uint32_t task_count_ = 0;
  std::uint32_t lo_ = 0;
  std::uint32_t size_ = 0;
  double inv_h2_ = 0.0;
  std::vector<double> b_, u_, prev_;
  double left_value_ = 0.0, right_value_ = 0.0;
  bool fresh_ = false;
  bool informative_ = false;
  double error_ = 1.0;
  std::uint64_t iterations_ = 0;
};

}  // namespace jacepp::examples

