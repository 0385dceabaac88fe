// Tutorial: writing your own JaceP2P application.
//
// The paper's programming model (§4.2): "A user application is a SPMD
// program which uses JaceP2P methods by extending the Task class". This
// example builds a complete custom application from scratch — the steady 1-D
// heat equation -u'' = f solved by asynchronous block-Jacobi with an exact
// tridiagonal (Thomas) inner solver — registers it as a program, launches it
// on a simulated JaceP2P network with a failure, and checks the answer.
//
// The task itself, with the five things every task implements, is
// HeatTask in heat_task.hpp.
#include <cmath>
#include <cstdio>

#include "core/deployment.hpp"
#include "heat_task.hpp"
#include "support/flags.hpp"

using namespace jacepp;
using examples::HeatConfig;
using examples::HeatTask;

int main(int argc, char** argv) {
  FlagSet flags("custom_application",
                "Tutorial: a user-written 1-D heat task on JaceP2P");
  auto cells = flags.add_int("cells", 256, "interior unknowns");
  auto tasks = flags.add_int("tasks", 6, "computing peers");
  flags.parse(argc, argv);

  // Step 1 — register the program (the paper's "class files at a URL").
  core::TaskProgramRegistry::instance().register_program(
      HeatTask::kProgramName, [] { return std::make_unique<HeatTask>(); });

  // Step 2 — describe the application.
  HeatConfig hc;
  hc.cells = static_cast<std::uint32_t>(*cells);

  core::SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = static_cast<std::size_t>(*tasks) + 3;
  config.app.app_id = 77;
  config.app.program = HeatTask::kProgramName;
  config.app.config = serial::encode(hc);
  config.app.task_count = static_cast<std::uint32_t>(*tasks);
  config.app.checkpoint_every = 10;
  config.app.backup_peer_count = 2;
  config.app.convergence_threshold = 1e-10;
  config.app.stable_iterations_required = 4;
  // One failure mid-run, for flavour.
  config.disconnect_times = {2.0};

  // Step 3 — run.
  core::SimDeployment deployment(config);
  const auto report = deployment.run();
  if (!report.spawner.completed) {
    std::printf("did not converge\n");
    return 1;
  }

  // Step 4 — assemble and check against u = sin(pi x).
  std::vector<double> u;
  for (const auto& payload : report.spawner.final_payloads) {
    serial::Reader r(payload);
    const auto slice = r.f64_vector();
    u.insert(u.end(), slice.begin(), slice.end());
  }
  double max_err = 0.0;
  const double h = 1.0 / (*cells + 1);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double x = (static_cast<double>(i) + 1) * h;
    max_err = std::max(max_err, std::fabs(u[i] - std::sin(M_PI * x)));
  }

  std::printf("custom heat-1d application on %lld peers\n",
              static_cast<long long>(*tasks));
  std::printf("  converged at      : %.3f sim s\n",
              report.spawner.convergence_time);
  std::printf("  failures handled  : %llu\n",
              static_cast<unsigned long long>(report.spawner.failures_detected));
  std::printf("  max error vs sin  : %.3e (discretization is O(h^2) = %.1e)\n",
              max_err, h * h * M_PI * M_PI / 8);
  return max_err < 1e-3 ? 0 : 1;
}
