// Per-layer timing for the traced benchmark run, taken from outside the
// program: every span wraps one public call into a layer.
//
//   * TimedPoissonTask forwards every core::Task method to a real
//     poisson::PoissonTask and times the calls. It is registered under the
//     same program name, so the simulation runs exactly as untraced.
//   * A shadow checkpoint::DeltaEncoder per task object and a shadow
//     BackupStore per task id replay each save as it happens (emit,
//     decode_frame, store_frame) and materialize on every restore, so the
//     checkpoint codec and the backup store are timed on the run's own
//     states.
//
// Spans never nest: the time between them is the simulator's own time
// (scheduler, links, RMI dispatch, daemons, super-peers), reported as
// sim.self_s.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/backup.hpp"
#include "core/checkpoint.hpp"
#include "core/task.hpp"
#include "poisson/block_task.hpp"

namespace jacepp::perfbench {

enum class Span : std::uint8_t {
  PoissonInit,
  PoissonIterate,
  PoissonOutgoing,
  PoissonOnData,
  PoissonCheckpoint,
  PoissonDirtyRanges,
  PoissonRestore,
  PoissonFinalPayload,
  CheckpointEmit,
  CheckpointDecode,
  BackupStore,
  BackupMaterialize,
  kCount
};

struct SpanStats {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  std::uint64_t bytes = 0;
  std::vector<float> samples_us;  ///< per-call durations, kept for percentiles
};

/// Counters the shadow checkpoint replay gathers besides span times.
struct ShadowCounters {
  std::uint64_t deltas = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t decode_failures = 0;  ///< emitted frames that did not decode
  std::uint64_t materialize_failures = 0;  ///< chains failing their checksum
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  class Scope {
   public:
    Scope(Tracer& tracer, Span span) : tracer_(tracer), span_(span) {
      tracer_.open(begin_);
    }
    ~Scope() { tracer_.close(span_, begin_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    Span span_;
    Clock::time_point begin_;
  };

  /// Start accounting: gaps between spans count as self time from here.
  void start();
  /// Stop accounting: the tail since the last span counts as self time.
  void finish();

  [[nodiscard]] Scope scope(Span span) { return Scope(*this, span); }
  void add_bytes(Span span, std::size_t bytes) {
    spans_[static_cast<std::size_t>(span)].bytes += bytes;
  }

  [[nodiscard]] const SpanStats& stats(Span span) const {
    return spans_[static_cast<std::size_t>(span)];
  }
  [[nodiscard]] double busy_total_s() const;
  [[nodiscard]] double self_s() const { return self_s_; }
  /// True if a span opened inside another; the busy/self split is then wrong.
  [[nodiscard]] bool nested() const { return nested_; }

  // Poisson-level counts gathered by the task wrapper.
  double flops = 0.0;
  std::uint64_t informative_iterations = 0;
  ShadowCounters shadow;

  /// The shadow holders of one task id: one chain per backup-peer index.
  /// They outlive the task objects, so a replacement daemon's task restores
  /// from the chains its predecessors saved.
  struct ShadowHolders {
    core::BackupStore store;
    std::uint64_t saves = 0;  ///< save counter, used as the stored iteration
  };
  ShadowHolders& holders_of(core::TaskId task) { return shadow_holders_[task]; }

 private:
  void open(Clock::time_point& begin);
  void close(Span span, Clock::time_point begin);

  std::array<SpanStats, static_cast<std::size_t>(Span::kCount)> spans_{};
  std::unordered_map<core::TaskId, ShadowHolders> shadow_holders_;
  Clock::time_point last_end_{};
  double self_s_ = 0.0;
  int depth_ = 0;
  bool nested_ = false;
};

/// The poisson program with every core::Task call timed, plus the shadow
/// checkpoint replay. perf.early_send must be off: the early-publish sink is
/// not virtual, so it could not be forwarded to the wrapped task.
class TimedPoissonTask : public core::Task {
 public:
  explicit TimedPoissonTask(Tracer& tracer) : tracer_(tracer) {}

  void init(const core::AppDescriptor& app, core::TaskId task_id) override;
  double iterate() override;
  std::vector<core::OutgoingData> outgoing() override;
  [[nodiscard]] double local_error() const override { return inner_.local_error(); }
  [[nodiscard]] bool error_is_informative() const override {
    return inner_.error_is_informative();
  }
  void on_data(core::TaskId from_task, std::uint64_t iteration,
               const serial::Bytes& payload) override;
  [[nodiscard]] serial::Bytes checkpoint() const override;
  void restore(const serial::Bytes& state) override;
  std::optional<core::checkpoint::DirtyRanges> take_dirty_ranges() override;
  [[nodiscard]] serial::Bytes final_payload() const override;
  [[nodiscard]] std::uint64_t informative_iterations() const override {
    return inner_.informative_iterations();
  }

 private:
  void replay_save(const std::optional<core::checkpoint::DirtyRanges>& hints);

  Tracer& tracer_;
  poisson::PoissonTask inner_;
  core::AppId app_id_ = 0;
  Tracer::ShadowHolders* holders_ = nullptr;
  /// Sender side, per task object like the Daemon's encoder.
  std::optional<core::checkpoint::DeltaEncoder> encoder_;
  std::size_t cursor_ = 0;  ///< round-robin holder of the next save
  /// checkpoint() bytes awaiting their dirty hints.
  mutable serial::Bytes pending_state_;
  mutable bool pending_ = false;
};

/// Percentile (0..100) of a span's per-call durations, in microseconds.
double percentile_us(std::vector<float> samples, double pct);

}  // namespace jacepp::perfbench
