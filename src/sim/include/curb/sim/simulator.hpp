#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "curb/prof/profiler.hpp"
#include "curb/sim/event_fn.hpp"
#include "curb/sim/rng.hpp"
#include "curb/sim/time.hpp"

namespace curb::sim {

/// Handle used to cancel a scheduled event (e.g. a timeout that was met).
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return id_ != 0; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_{id} {}
  std::uint64_t id_ = 0;
};

/// Deterministic discrete-event simulator.
///
/// Events fire in (time, insertion-sequence) order, so two events scheduled
/// for the same instant run in the order they were scheduled — this makes
/// whole protocol runs bit-for-bit reproducible from a seed.
class Simulator {
 public:
  /// Move-only small-buffer callable: hot-path captures (<= 64 bytes) are
  /// stored inline, so scheduling them does not hit the heap (see
  /// event_fn.hpp).
  using Callback = EventFn;

  explicit Simulator(std::uint64_t seed = 1) : rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule `fn` to run `delay` after the current virtual time.
  EventHandle schedule(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute virtual time (must not be in the past).
  EventHandle schedule_at(SimTime when, Callback fn) {
    if (when < now_) throw std::logic_error{"Simulator: scheduling into the past"};
    const std::uint64_t id = ++next_id_;
    record_sched_lag(when - now_);
    queue_.push(Event{when, id, std::move(fn)});
    ++pending_;
    if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
    return EventHandle{id};
  }

  /// Cancel a scheduled event (best effort: cancelling an event that has
  /// already fired is a harmless no-op). Returns false for invalid handles or
  /// handles cancelled twice.
  bool cancel(EventHandle h) {
    if (!h.valid() || h.id_ > next_id_) return false;
    if (cancelled_.size() <= h.id_) cancelled_.resize(next_id_ + 1, false);
    if (cancelled_[h.id_]) return false;
    cancelled_[h.id_] = true;
    return true;
  }

  /// Run until the queue drains. Returns the number of events executed.
  std::size_t run() { return run_until(SimTime::max()); }

  /// Run events with time <= deadline; the clock ends at
  /// min(deadline, last event time). Returns events executed.
  std::size_t run_until(SimTime deadline) {
    const prof::Scope run_scope{"sim.run"};
    const auto host_start = std::chrono::steady_clock::now();
    std::size_t executed = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (top.when > deadline) break;
      Event ev{top.when, top.id, std::move(top.fn)};  // fn is mutable
      queue_.pop();
      --pending_;
      if (is_cancelled(ev.id)) continue;
      now_ = ev.when;
      {
        const prof::Scope event_scope{"sim.event"};
        ev.fn();
      }
      ++executed;
      ++executed_total_;
      if (executed >= max_events_) {
        accrue_host_time(host_start);
        throw std::runtime_error{"Simulator: event budget exhausted (possible livelock)"};
      }
    }
    if (deadline != SimTime::max() && deadline > now_) now_ = deadline;
    accrue_host_time(host_start);
    return executed;
  }

  [[nodiscard]] std::size_t pending_events() const { return pending_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  /// Events executed over the simulator's lifetime (observability export).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_total_; }
  /// Host (wall-clock) nanoseconds spent inside run_until() over the
  /// simulator's lifetime. Benches divide events_executed() by this to get
  /// an events/sec figure that measures the event loop itself rather than
  /// whatever one-off setup (e.g. the initial CAP solve) surrounds it.
  /// Host-dependent — never folded into deterministic trace/telemetry output.
  [[nodiscard]] std::uint64_t host_run_ns() const { return host_run_ns_; }
  /// Largest event-queue depth ever reached (includes cancelled entries).
  [[nodiscard]] std::size_t queue_high_water() const { return queue_high_water_; }

  // Scheduling-lag histogram: distribution of how far into the virtual
  // future events are scheduled (`when - now`, microseconds), recorded in
  // fixed power-of-two buckets at every schedule call. Allocation-free and
  // cheap enough to stay always-on; virtual-time based, so the histogram is
  // deterministic per seed. A backlog that schedules ever further ahead
  // (growing lag percentiles with a growing queue depth) is the DES analogue
  // of rising queueing delay in a real controller.

  /// Total scheduling-lag samples (== events ever scheduled).
  [[nodiscard]] std::uint64_t sched_lag_samples() const { return sched_lag_count_; }
  /// Largest scheduling lag ever recorded, microseconds.
  [[nodiscard]] std::uint64_t sched_lag_max_us() const { return sched_lag_max_us_; }
  /// Upper bound of the bucket holding the p-th percentile (p in [0,100]) of
  /// scheduling lag, microseconds. Zero when nothing was scheduled yet.
  [[nodiscard]] std::uint64_t sched_lag_percentile_us(double p) const {
    if (sched_lag_count_ == 0) return 0;
    const double target = static_cast<double>(sched_lag_count_) * p / 100.0;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < sched_lag_buckets_.size(); ++i) {
      seen += sched_lag_buckets_[i];
      if (static_cast<double>(seen) >= target) {
        // Bucket i holds values whose bit width is i: [2^(i-1), 2^i - 1].
        const std::uint64_t upper = i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
        return upper < sched_lag_max_us_ ? upper : sched_lag_max_us_;
      }
    }
    return sched_lag_max_us_;
  }

  /// Guard against runaway protocols in tests; default is generous.
  void set_event_budget(std::size_t max_events) { max_events_ = max_events; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t id;
    mutable Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;  // FIFO among simultaneous events
    }
  };

  [[nodiscard]] bool is_cancelled(std::uint64_t id) const {
    return id < cancelled_.size() && cancelled_[id];
  }

  void accrue_host_time(std::chrono::steady_clock::time_point start) {
    host_run_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  void record_sched_lag(SimTime lag) {
    const auto us = static_cast<std::uint64_t>(lag.as_micros());
    ++sched_lag_count_;
    if (us > sched_lag_max_us_) sched_lag_max_us_ = us;
    const auto bucket = static_cast<std::size_t>(std::bit_width(us));
    ++sched_lag_buckets_[bucket < sched_lag_buckets_.size()
                             ? bucket
                             : sched_lag_buckets_.size() - 1];
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_id_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t executed_total_ = 0;
  std::uint64_t host_run_ns_ = 0;
  std::size_t queue_high_water_ = 0;
  std::uint64_t sched_lag_count_ = 0;
  std::uint64_t sched_lag_max_us_ = 0;
  std::array<std::uint64_t, 64> sched_lag_buckets_{};
  std::size_t max_events_ = 500'000'000;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<bool> cancelled_;
  Rng rng_;
};

}  // namespace curb::sim
