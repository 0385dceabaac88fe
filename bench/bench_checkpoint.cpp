// Checkpoint-path microbenchmarks (google-benchmark): full-baseline vs delta
// frame encoding at controlled dirty fractions, decode+apply on the holder
// side, and the CRC-32 primitive itself. Byte counters accompany the timings
// so run_bench.sh can report the delta/full size ratio directly. The
// BM_DeltaShare rows run real applications to convergence and report which
// share of their saves went out as delta frames.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/backup.hpp"
#include "core/checkpoint.hpp"
#include "core/daemon.hpp"
#include "core/deployment.hpp"
#include "core/generic_task.hpp"
#include "heat_task.hpp"
#include "poisson/poisson.hpp"
#include "serial/checksum.hpp"
#include "serial/serial.hpp"
#include "support/rng.hpp"

namespace {

using namespace jacepp;
using core::checkpoint::CheckpointPolicy;
using core::checkpoint::DeltaEncoder;
using core::checkpoint::DirtyRanges;
using serial::Bytes;

Bytes random_state(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes state(size);
  for (auto& b : state) b = static_cast<std::uint8_t>(rng.next_u64());
  return state;
}

/// Rewrite `percent`% of the chunks (spread evenly) and return honest hints.
DirtyRanges dirty_fraction(Bytes& state, std::size_t chunk_size, int percent,
                           std::uint64_t salt) {
  DirtyRanges d;
  const std::size_t chunks = (state.size() + chunk_size - 1) / chunk_size;
  const std::size_t stride = percent > 0 ? std::max<std::size_t>(1, 100 / percent) : chunks;
  for (std::size_t c = 0; c < chunks; c += stride) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(state.size(), lo + chunk_size);
    for (std::size_t i = lo; i < hi; ++i) {
      state[i] = static_cast<std::uint8_t>(state[i] + 1 + salt);
    }
    d.mark(lo, hi);
  }
  return d;
}

void BM_Crc32(benchmark::State& state) {
  const Bytes data = random_state(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(256 << 10);

void BM_EncodeFullFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const Bytes st = random_state(size, 2);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes frame = core::checkpoint::encode_full_frame(1, 4096, st);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["frame_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_EncodeFullFrame)->Arg(64 << 10)->Arg(1 << 20);

/// Steady-state delta emission: each iteration re-dirties `range(1)`% of the
/// chunks and emits through a warm DeltaEncoder (memcmp sweep + encode).
void BM_EncodeDeltaFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const int percent = static_cast<int>(state.range(1));
  CheckpointPolicy policy;
  policy.chunk_size = 4096;
  policy.rebase_every = 0xFFFFFFFF;     // keep the chain on deltas
  policy.chain_byte_budget = ~0ull;
  DeltaEncoder encoder(policy, 1);
  Bytes st = random_state(size, 3);
  (void)encoder.emit(0, st, std::nullopt);  // baseline

  std::size_t bytes = 0;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    const auto hints = dirty_fraction(st, policy.chunk_size, percent, ++salt);
    const auto emitted = encoder.emit(0, st, hints);
    bytes = emitted.frame.size();
    benchmark::DoNotOptimize(emitted.frame.data());
  }
  state.counters["frame_bytes"] = static_cast<double>(bytes);
  state.counters["full_bytes"] =
      static_cast<double>(core::checkpoint::encode_full_frame(1, 4096, st).size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_EncodeDeltaFrame)
    ->Args({64 << 10, 5})
    ->Args({64 << 10, 20})
    ->Args({1 << 20, 5})
    ->Args({1 << 20, 20})
    ->Args({1 << 20, 100});

/// Holder-side chain replay: ingest a baseline + N deltas, then materialize.
void BM_MaterializeChain(benchmark::State& state) {
  const std::size_t size = 1 << 20;
  const auto chain_len = static_cast<std::size_t>(state.range(0));
  CheckpointPolicy policy;
  policy.chunk_size = 4096;
  policy.rebase_every = 0xFFFFFFFF;
  policy.chain_byte_budget = ~0ull;
  DeltaEncoder encoder(policy, 1);
  Bytes st = random_state(size, 4);

  core::BackupStore store;
  (void)store.store_frame(1, 0, 0, encoder.emit(0, st, std::nullopt).frame);
  for (std::size_t i = 0; i < chain_len; ++i) {
    const auto hints = dirty_fraction(st, policy.chunk_size, 10, i);
    (void)store.store_frame(1, 0, i + 1, encoder.emit(0, st, hints).frame);
  }
  for (auto _ : state) {
    auto rebuilt = store.materialize(1, 0);
    benchmark::DoNotOptimize(rebuilt->data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_MaterializeChain)->Arg(1)->Arg(8)->Arg(16);

/// Run `config` to convergence without failures and report the frames every
/// daemon's DeltaEncoder emitted: saves, delta_share (deltas / saves) and the
/// mean full and delta frame sizes.
void run_delta_share(benchmark::State& state,
                     const core::SimDeploymentConfig& config) {
  std::uint64_t fulls = 0;
  std::uint64_t deltas = 0;
  std::uint64_t full_bytes = 0;
  std::uint64_t delta_bytes = 0;
  for (auto _ : state) {
    core::SimDeployment deployment(config);
    if (!deployment.run().spawner.completed) {
      state.SkipWithError("did not converge");
      return;
    }
    for (const auto node : deployment.daemon_nodes()) {
      const auto* daemon =
          dynamic_cast<const core::Daemon*>(deployment.world().actor(node));
      if (daemon == nullptr) continue;
      fulls += daemon->checkpoint_fulls();
      deltas += daemon->checkpoint_deltas();
      full_bytes += daemon->checkpoint_full_bytes();
      delta_bytes += daemon->checkpoint_delta_bytes();
    }
  }
  const auto mean = [](std::uint64_t bytes, std::uint64_t count) {
    return count == 0 ? 0.0 : static_cast<double>(bytes) / count;
  };
  state.counters["saves"] = static_cast<double>(fulls + deltas);
  state.counters["delta_share"] =
      fulls + deltas == 0 ? 0.0
                          : static_cast<double>(deltas) / (fulls + deltas);
  state.counters["full_frame_bytes"] = mean(full_bytes, fulls);
  state.counters["delta_frame_bytes"] = mean(delta_bytes, deltas);
}

/// generic_task with examples/generic_solver's settings (5 tasks, k = 5,
/// 3 backup peers) on the isotropic 20x20 Laplacian.
void BM_DeltaShareGenericTask(benchmark::State& state) {
  core::GenericMultisplitTask::force_registration();
  core::GenericConfig gc;
  gc.a = poisson::assemble_laplacian(20);
  gc.b = linalg::Vector(gc.a.rows(), 1.0);
  gc.inner_tolerance = 1e-10;
  gc.work_scale = 500.0;

  core::SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = 5 + 3;
  config.app.app_id = 9;
  config.app.program = core::GenericMultisplitTask::kProgramName;
  config.app.config = serial::encode(gc);
  config.app.task_count = 5;
  config.app.checkpoint_every = 5;
  config.app.backup_peer_count = 3;
  config.app.convergence_threshold = 1e-8;
  config.app.stable_iterations_required = 4;
  config.max_sim_time = 4000.0;
  run_delta_share(state, config);
}
BENCHMARK(BM_DeltaShareGenericTask)->Iterations(1)->Unit(benchmark::kMillisecond);

/// examples/custom_application's heat task with that example's settings
/// (256 cells, 6 tasks, k = 10, 2 backup peers).
void BM_DeltaShareHeatTask(benchmark::State& state) {
  core::TaskProgramRegistry::instance().register_program(
      examples::HeatTask::kProgramName,
      [] { return std::make_unique<examples::HeatTask>(); });
  core::SimDeploymentConfig config;
  config.super_peer_count = 2;
  config.daemon_count = 6 + 3;
  config.app.app_id = 77;
  config.app.program = examples::HeatTask::kProgramName;
  config.app.config = serial::encode(examples::HeatConfig{});
  config.app.task_count = 6;
  config.app.checkpoint_every = 10;
  config.app.backup_peer_count = 2;
  config.app.convergence_threshold = 1e-10;
  config.app.stable_iterations_required = 4;
  run_delta_share(state, config);
}
BENCHMARK(BM_DeltaShareHeatTask)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
