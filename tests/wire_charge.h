#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "simnet/network.h"
#include "util/status.h"

namespace mmlib {

/// What one remote store operation puts on the simulated link: its
/// messages, the bytes of its delivered messages, and the OpScope label its
/// faults are tallied under ("" when it draws no faults, as the stats
/// queries do).
struct WireCharge {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::string label;

  bool operator==(const WireCharge& other) const {
    return messages == other.messages && bytes == other.bytes &&
           label == other.label;
  }
};

inline std::ostream& operator<<(std::ostream& out, const WireCharge& charge) {
  return out << "{" << charge.messages << " messages, " << charge.bytes
             << " bytes, label \"" << charge.label << "\"}";
}

/// Runs `op` (returning Status) once on `network`'s fault-free link and
/// measures it, then once more with every message dropped so its faults
/// name the operation's label. A dropped request never reaches the
/// backend, so the second run leaves the store as the first one left it.
template <typename Op>
WireCharge Charge(simnet::Network* network, Op op) {
  WireCharge charge;
  const uint64_t messages = network->MessageCount();
  const uint64_t bytes = network->TotalBytes();
  const Status status = op();
  EXPECT_TRUE(status.ok()) << status;
  charge.messages = network->MessageCount() - messages;
  charge.bytes = network->TotalBytes() - bytes;

  simnet::FaultPlan drop_all;
  drop_all.drop_probability = 1.0;
  network->set_fault_plan(drop_all);
  (void)op();
  for (const auto& [label, faults] : network->PerOpFaultCounters()) {
    charge.label += label;
  }
  network->set_fault_plan(simnet::FaultPlan{});
  return charge;
}

}  // namespace mmlib
