#pragma once

#include <cstddef>

#include "curb/sim/time.hpp"

namespace curb::net {

/// Physical delay model from the paper's evaluation setup:
/// signal velocity in fibre 2*10^8 m/s, link bandwidth 100 Mbps.
/// delay = propagation (distance / velocity) + transmission (bytes / bandwidth).
struct LinkModel {
  double velocity_m_per_s = 2.0e8;
  double bandwidth_bps = 100.0e6;
  /// Fixed per-hop processing overhead (NIC + kernel), applied once per
  /// message. Zero by default; benches set small values for realism.
  sim::SimTime per_message_overhead = sim::SimTime::zero();

  [[nodiscard]] sim::SimTime propagation_delay(double distance_km) const {
    return sim::SimTime::from_seconds_f(distance_km * 1000.0 / velocity_m_per_s);
  }

  [[nodiscard]] sim::SimTime transmission_delay(std::size_t bytes) const {
    return sim::SimTime::from_seconds_f(static_cast<double>(bytes) * 8.0 / bandwidth_bps);
  }

  [[nodiscard]] sim::SimTime delay(double distance_km, std::size_t bytes) const {
    return propagation_delay(distance_km) + transmission_delay(bytes) + per_message_overhead;
  }

  bool operator==(const LinkModel&) const = default;
};

}  // namespace curb::net
