#include "fault/fault_schedule.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace zerobak::fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kLatencySpikeStart:
      return "latency-spike-start";
    case FaultKind::kLatencySpikeEnd:
      return "latency-spike-end";
    case FaultKind::kArrayFail:
      return "array-fail";
    case FaultKind::kArrayRepair:
      return "array-repair";
    case FaultKind::kCorruptStart:
      return "corrupt-start";
    case FaultKind::kCorruptEnd:
      return "corrupt-end";
    case FaultKind::kMediaErrorStart:
      return "media-error-start";
    case FaultKind::kMediaErrorEnd:
      return "media-error-end";
    case FaultKind::kBitRot:
      return "bit-rot";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(sim::SimEnvironment* env,
                             FaultScheduleConfig config)
    : env_(env), config_(config), rng_(config.seed) {}

FaultSchedule::~FaultSchedule() {
  for (sim::EventId id : pending_) env_->Cancel(id);
}

void FaultSchedule::AddLink(sim::NetworkLink* link) {
  ZB_CHECK(!armed_) << "AddLink after Arm()";
  links_.push_back(link);
}

void FaultSchedule::AddArray(storage::StorageArray* array) {
  ZB_CHECK(!armed_) << "AddArray after Arm()";
  arrays_.push_back(array);
}

void FaultSchedule::AddCorruptionTarget(
    std::function<void(double)> set_probability) {
  ZB_CHECK(!armed_) << "AddCorruptionTarget after Arm()";
  corruption_targets_.push_back(std::move(set_probability));
}

void FaultSchedule::AddMediaTarget(block::MemVolume* volume) {
  ZB_CHECK(!armed_) << "AddMediaTarget after Arm()";
  MediaTarget target;
  target.set_error = [volume](double p, uint64_t seed) {
    volume->SetMediaError(p, seed);
  };
  target.flip = [volume](uint64_t lba, uint32_t bit) {
    return volume->FlipBit(lba, bit);
  };
  target.block_count = volume->block_count();
  target.block_bits = volume->block_size() * 8;
  media_targets_.push_back(std::move(target));
}

void FaultSchedule::AddMediaTarget(journal::JournalVolume* journal) {
  ZB_CHECK(!armed_) << "AddMediaTarget after Arm()";
  MediaTarget target;
  target.set_error = [journal](double p, uint64_t /*seed*/) {
    journal->SetMediaError(p > 0.0);
  };
  media_targets_.push_back(std::move(target));
}

void FaultSchedule::GenerateLane(SimTime from, SimTime until,
                                 SimDuration mean_gap, SimDuration min_len,
                                 SimDuration max_len, FaultKind begin,
                                 FaultKind end, size_t target,
                                 SimDuration latency) {
  if (mean_gap == 0) return;
  SimTime t = from;
  while (true) {
    t += static_cast<SimDuration>(
        rng_.Exponential(static_cast<double>(mean_gap)));
    if (t >= until) return;
    const SimDuration len = static_cast<SimDuration>(
        rng_.UniformInt(static_cast<int64_t>(min_len),
                        static_cast<int64_t>(max_len)));
    events_.push_back(FaultEvent{t, begin, target, latency});
    events_.push_back(FaultEvent{t + len, end, target, 0});
    // The next gap starts when this fault ends: no overlap within a lane.
    t += len;
  }
}

void FaultSchedule::GenerateMediaLane(SimTime from, SimTime until,
                                      size_t target) {
  if (config_.mean_media_interval == 0) return;
  SimTime t = from;
  while (true) {
    t += static_cast<SimDuration>(rng_.Exponential(
        static_cast<double>(config_.mean_media_interval)));
    if (t >= until) return;
    const SimDuration len = static_cast<SimDuration>(
        rng_.UniformInt(static_cast<int64_t>(config_.min_media),
                        static_cast<int64_t>(config_.max_media)));
    FaultEvent begin{t, FaultKind::kMediaErrorStart, target, 0};
    // A fresh seed per episode: the same schedule replays on the same bad
    // sectors, but distinct episodes degrade distinct sectors.
    begin.seed = rng_.Next();
    events_.push_back(begin);
    events_.push_back(FaultEvent{t + len, FaultKind::kMediaErrorEnd, target, 0});
    t += len;
  }
}

void FaultSchedule::GenerateRotLane(SimTime from, SimTime until,
                                    size_t target) {
  if (config_.mean_rot_interval == 0) return;
  const MediaTarget& media = media_targets_[target];
  if (!media.flip || media.block_count == 0) return;
  SimTime t = from;
  while (true) {
    t += static_cast<SimDuration>(
        rng_.Exponential(static_cast<double>(config_.mean_rot_interval)));
    if (t >= until) return;
    FaultEvent rot{t, FaultKind::kBitRot, target, 0};
    rot.lba = rng_.Uniform(media.block_count);
    rot.bit = static_cast<uint32_t>(rng_.Uniform(media.block_bits));
    events_.push_back(rot);
  }
}

void FaultSchedule::Arm() {
  ZB_CHECK(!armed_) << "Arm() called twice";
  armed_ = true;
  const SimTime from = env_->now();
  const SimTime until = from + config_.horizon;

  link_latency_.clear();
  for (sim::NetworkLink* link : links_) {
    link_latency_.push_back(link->config().base_latency);
  }

  for (size_t i = 0; i < links_.size(); ++i) {
    GenerateLane(from, until, config_.mean_flap_interval, config_.min_outage,
                 config_.max_outage, FaultKind::kLinkDown, FaultKind::kLinkUp,
                 i, 0);
    GenerateLane(from, until, config_.mean_spike_interval, config_.min_spike,
                 config_.max_spike, FaultKind::kLatencySpikeStart,
                 FaultKind::kLatencySpikeEnd, i, config_.spike_latency);
  }
  for (size_t i = 0; i < arrays_.size(); ++i) {
    GenerateLane(from, until, config_.mean_crash_interval, config_.min_repair,
                 config_.max_repair, FaultKind::kArrayFail,
                 FaultKind::kArrayRepair, i, 0);
  }
  for (size_t i = 0; i < corruption_targets_.size(); ++i) {
    GenerateLane(from, until, config_.mean_corrupt_interval,
                 config_.min_corrupt, config_.max_corrupt,
                 FaultKind::kCorruptStart, FaultKind::kCorruptEnd, i, 0);
  }
  for (size_t i = 0; i < media_targets_.size(); ++i) {
    GenerateMediaLane(from, until, i);
    GenerateRotLane(from, until, i);
  }

  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });

  pending_.reserve(events_.size());
  for (const FaultEvent& event : events_) {
    pending_.push_back(
        env_->ScheduleAt(event.at, [this, event] { Fire(event); }));
  }
}

void FaultSchedule::Fire(const FaultEvent& event) {
  ++fired_;
  switch (event.kind) {
    case FaultKind::kLinkDown:
      links_[event.target]->SetConnected(false);
      break;
    case FaultKind::kLinkUp:
      links_[event.target]->SetConnected(true);
      break;
    case FaultKind::kLatencySpikeStart:
      links_[event.target]->set_base_latency(event.latency);
      break;
    case FaultKind::kLatencySpikeEnd:
      links_[event.target]->set_base_latency(link_latency_[event.target]);
      break;
    case FaultKind::kArrayFail:
      arrays_[event.target]->SetFailed(true);
      break;
    case FaultKind::kArrayRepair:
      arrays_[event.target]->SetFailed(false);
      break;
    case FaultKind::kCorruptStart:
      corruption_targets_[event.target](config_.corrupt_probability);
      break;
    case FaultKind::kCorruptEnd:
      corruption_targets_[event.target](0.0);
      break;
    case FaultKind::kMediaErrorStart:
      media_targets_[event.target].set_error(
          config_.media_error_probability, event.seed);
      break;
    case FaultKind::kMediaErrorEnd:
      media_targets_[event.target].set_error(0.0, 0);
      break;
    case FaultKind::kBitRot:
      media_targets_[event.target].flip(event.lba, event.bit);
      break;
  }
}

void FaultSchedule::Heal() {
  for (sim::EventId id : pending_) env_->Cancel(id);
  pending_.clear();
  for (size_t i = 0; i < links_.size(); ++i) {
    if (i < link_latency_.size()) {
      links_[i]->set_base_latency(link_latency_[i]);
    }
    links_[i]->SetConnected(true);
  }
  for (storage::StorageArray* array : arrays_) array->SetFailed(false);
  for (auto& target : corruption_targets_) target(0.0);
  // Media-error episodes end; bit rot already written stays — Heal()
  // repairs the injectors, not the damage (that's the scrubber's job).
  for (MediaTarget& target : media_targets_) target.set_error(0.0, 0);
}

}  // namespace zerobak::fault
