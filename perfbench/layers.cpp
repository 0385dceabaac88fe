#include "layers.hpp"

#include <algorithm>
#include <cmath>

#include "core/app.hpp"

namespace jacepp::perfbench {

namespace {

double seconds_between(Tracer::Clock::time_point a, Tracer::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool keeps_samples(Span span) {
  return span == Span::PoissonIterate || span == Span::CheckpointEmit;
}

}  // namespace

void Tracer::start() {
  last_end_ = Clock::now();
  self_s_ = 0.0;
}

void Tracer::finish() { self_s_ += seconds_between(last_end_, Clock::now()); }

void Tracer::open(Clock::time_point& begin) {
  begin = Clock::now();
  if (depth_++ > 0) {
    nested_ = true;
    return;
  }
  self_s_ += seconds_between(last_end_, begin);
}

void Tracer::close(Span span, Clock::time_point begin) {
  const auto end = Clock::now();
  if (--depth_ > 0) return;  // nested span: its time is the outer span's
  const double elapsed = seconds_between(begin, end);
  SpanStats& stats = spans_[static_cast<std::size_t>(span)];
  ++stats.calls;
  stats.busy_s += elapsed;
  if (keeps_samples(span)) stats.samples_us.push_back(static_cast<float>(elapsed * 1e6));
  last_end_ = end;
}

double Tracer::busy_total_s() const {
  double total = 0.0;
  for (const auto& stats : spans_) total += stats.busy_s;
  return total;
}

double percentile_us(std::vector<float> samples, double pct) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  const std::size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

void TimedPoissonTask::init(const core::AppDescriptor& app, core::TaskId task_id) {
  {
    auto span = tracer_.scope(Span::PoissonInit);
    inner_.init(app, task_id);
  }
  // A fresh incarnation starts a fresh encoder, as the Daemon does; the
  // holders' chains stay.
  app_id_ = app.app_id;
  holders_ = &tracer_.holders_of(task_id);
  encoder_.emplace(
      app.ckpt,
      core::backup_peers_of(task_id, app.task_count, app.backup_peer_count).size());
}

double TimedPoissonTask::iterate() {
  double flops = 0.0;
  {
    auto span = tracer_.scope(Span::PoissonIterate);
    flops = inner_.iterate();
  }
  tracer_.flops += flops;
  if (inner_.error_is_informative()) ++tracer_.informative_iterations;
  return flops;
}

std::vector<core::OutgoingData> TimedPoissonTask::outgoing() {
  std::vector<core::OutgoingData> out;
  {
    auto span = tracer_.scope(Span::PoissonOutgoing);
    out = inner_.outgoing();
  }
  std::size_t bytes = 0;
  for (const auto& data : out) bytes += data.payload.size();
  tracer_.add_bytes(Span::PoissonOutgoing, bytes);
  return out;
}

void TimedPoissonTask::on_data(core::TaskId from_task, std::uint64_t iteration,
                               const serial::Bytes& payload) {
  {
    auto span = tracer_.scope(Span::PoissonOnData);
    inner_.on_data(from_task, iteration, payload);
  }
  tracer_.add_bytes(Span::PoissonOnData, payload.size());
}

serial::Bytes TimedPoissonTask::checkpoint() const {
  serial::Bytes state;
  {
    auto span = tracer_.scope(Span::PoissonCheckpoint);
    state = inner_.checkpoint();
  }
  tracer_.add_bytes(Span::PoissonCheckpoint, state.size());
  // The Daemon asks for the dirty hints right after the state; the save is
  // replayed then, with both in hand.
  pending_state_ = state;
  pending_ = true;
  return state;
}

std::optional<core::checkpoint::DirtyRanges> TimedPoissonTask::take_dirty_ranges() {
  std::optional<core::checkpoint::DirtyRanges> hints;
  {
    auto span = tracer_.scope(Span::PoissonDirtyRanges);
    hints = inner_.take_dirty_ranges();
  }
  if (pending_) replay_save(hints);
  return hints;
}

void TimedPoissonTask::replay_save(
    const std::optional<core::checkpoint::DirtyRanges>& hints) {
  pending_ = false;
  const std::size_t holder_count = encoder_->holder_count();
  if (holder_count == 0) return;
  const std::size_t holder = cursor_++ % holder_count;

  core::checkpoint::DeltaEncoder::Emitted emitted;
  {
    auto span = tracer_.scope(Span::CheckpointEmit);
    emitted = encoder_->emit(holder, pending_state_, hints);
  }
  ShadowCounters& counters = tracer_.shadow;
  if (emitted.kind == core::checkpoint::FrameKind::Delta) ++counters.deltas;
  counters.frame_bytes += emitted.frame.size();

  bool decoded = false;
  {
    auto span = tracer_.scope(Span::CheckpointDecode);
    decoded = core::checkpoint::decode_frame(emitted.frame).has_value();
  }
  if (!decoded) ++counters.decode_failures;

  core::BackupStore::StoreResult result;
  {
    auto span = tracer_.scope(Span::BackupStore);
    result = holders_->store.store_frame(app_id_, static_cast<core::TaskId>(holder),
                                         ++holders_->saves, emitted.frame);
  }
  if (result.needs_full) encoder_->mark_needs_full(holder);
}

void TimedPoissonTask::restore(const serial::Bytes& state) {
  {
    auto span = tracer_.scope(Span::PoissonRestore);
    inner_.restore(state);
  }
  // Rebuild the newest shadow chain, as the holder a replacement fetches
  // from would.
  std::optional<core::TaskId> newest;
  std::uint64_t newest_iteration = 0;
  for (std::size_t holder = 0; holder < encoder_->holder_count(); ++holder) {
    const auto* entry = holders_->store.find(app_id_, static_cast<core::TaskId>(holder));
    if (entry != nullptr && (!newest || entry->iteration > newest_iteration)) {
      newest = static_cast<core::TaskId>(holder);
      newest_iteration = entry->iteration;
    }
  }
  if (!newest) return;
  bool ok = false;
  {
    auto span = tracer_.scope(Span::BackupMaterialize);
    ok = holders_->store.materialize(app_id_, *newest).has_value();
  }
  if (!ok) ++tracer_.shadow.materialize_failures;
}

serial::Bytes TimedPoissonTask::final_payload() const {
  auto span = tracer_.scope(Span::PoissonFinalPayload);
  return inner_.final_payload();
}

}  // namespace jacepp::perfbench
