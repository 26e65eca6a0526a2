#include "simnet/network.h"

#include <algorithm>

namespace mmlib::simnet {

namespace {

std::string MemberName(Space space, size_t id) {
  static constexpr const char* kNames[] = {"node", "replica", "worker"};
  return std::string(kNames[static_cast<size_t>(space)]) + " " +
         std::to_string(id);
}

std::string PairUnreachable(const char* members, size_t from, size_t to) {
  return std::string(members) + " " + std::to_string(from) + " and " +
         std::to_string(to) + " cannot reach each other";
}

}  // namespace

void Network::set_fault_plan(const FaultPlan& plan) {
  fault_plan_ = plan;
  fault_rng_ = Rng(plan.seed);
  ResetFaultCounters();
}

double Network::Transfer(uint64_t bytes) {
  const double seconds = link_.TransferSeconds(bytes);
  clock_.AdvanceSeconds(seconds);
  total_bytes_ += bytes;
  ++message_count_;
  return seconds;
}

void Network::CountFault(FaultCounters* replica_faults,
                         uint64_t FaultCounters::* kind) {
  ++(faults_.*kind);
  if (current_op_ != nullptr) {
    ++(per_op_faults_[current_op_].*kind);
  }
  if (replica_faults != nullptr) {
    ++(replica_faults->*kind);
  }
}

TransferAttempt Network::AttemptWithPlan(const FaultPlan& plan, Rng* rng,
                                         uint64_t bytes,
                                         FaultCounters* node_faults) {
  TransferAttempt attempt;
  if (!plan.active()) {
    attempt.seconds = Transfer(bytes);
    return attempt;
  }
  ++message_count_;
  // One uniform draw per message keeps the fault stream's consumption a pure
  // function of the message sequence, whatever the outcome.
  const double u = rng->NextDouble();
  if (u < plan.drop_probability) {
    CountFault(node_faults, &FaultCounters::drops);
    attempt.seconds = link_.latency_seconds;
    clock_.AdvanceSeconds(attempt.seconds);
    attempt.status = Status::Unavailable("message dropped in flight");
    return attempt;
  }
  if (u < plan.drop_probability + plan.timeout_probability) {
    CountFault(node_faults, &FaultCounters::timeouts);
    attempt.seconds = plan.timeout_seconds;
    clock_.AdvanceSeconds(attempt.seconds);
    attempt.status = Status::DeadlineExceeded("message timed out");
    return attempt;
  }
  attempt.seconds = link_.TransferSeconds(bytes);
  clock_.AdvanceSeconds(attempt.seconds);
  total_bytes_ += bytes;
  if (u < plan.drop_probability + plan.timeout_probability +
              plan.corrupt_probability) {
    CountFault(node_faults, &FaultCounters::corruptions);
    attempt.corrupted = true;
  }
  return attempt;
}

TransferAttempt Network::TryTransfer(uint64_t bytes) {
  return AttemptWithPlan(fault_plan_, &fault_rng_, bytes, nullptr);
}

void Network::CorruptPayload(Bytes* payload) {
  if (payload == nullptr || payload->empty()) {
    return;
  }
  const size_t position = fault_rng_.NextBelow(payload->size());
  (*payload)[position] ^= static_cast<uint8_t>(1 + fault_rng_.NextBelow(255));
}

void Network::ChargeSeconds(double seconds) {
  clock_.AdvanceSeconds(seconds);
}

void Network::ResetFaultCounters() {
  faults_ = FaultCounters{};
  per_op_faults_.clear();
  for (std::vector<Member>& space : spaces_) {
    for (Member& member : space) {
      member.counters = MemberCounters{};
    }
  }
  partition_count_ = 0;
  heal_count_ = 0;
}

void Network::Configure(Space space, size_t count) {
  members(space).assign(count, Member{});
  if (space == Space::kReplica) {
    replica_events_.clear();
  }
}

Status Network::CheckConfigured(Space space, size_t id) const {
  if (id >= members(space).size()) {
    return Status::InvalidArgument(MemberName(space, id) +
                                   " is not configured");
  }
  return Status::OK();
}

Status Network::Crash(Space space, size_t id) {
  MMLIB_RETURN_IF_ERROR(CheckConfigured(space, id));
  Member& member = members(space)[id];
  if (!member.up) {
    return Status::FailedPrecondition(MemberName(space, id) +
                                      " is already down");
  }
  member.up = false;
  ++member.counters.crashes;
  clock_.AdvanceSeconds(kCrashDetectSeconds);
  return Status::OK();
}

Status Network::Restart(Space space, size_t id) {
  MMLIB_RETURN_IF_ERROR(CheckConfigured(space, id));
  Member& member = members(space)[id];
  if (member.up) {
    return Status::FailedPrecondition(MemberName(space, id) +
                                      " is already up");
  }
  member.up = true;
  ++member.counters.restarts;
  clock_.AdvanceSeconds(kRestartSeconds);
  return Status::OK();
}

Status Network::Partition(Space space,
                          const std::vector<std::vector<size_t>>& groups) {
  std::vector<Member>& table = members(space);
  std::vector<int> assignment(table.size(), 0);
  std::vector<bool> seen(table.size(), false);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t id : groups[g]) {
      MMLIB_RETURN_IF_ERROR(CheckConfigured(space, id));
      if (seen[id]) {
        return Status::InvalidArgument(MemberName(space, id) +
                                       " listed in more than one group");
      }
      seen[id] = true;
      assignment[id] = static_cast<int>(g) + 1;
    }
  }
  for (size_t i = 0; i < table.size(); ++i) {
    table[i].group = assignment[i];
  }
  ++partition_count_;
  return Status::OK();
}

void Network::Heal(Space space) {
  for (Member& member : members(space)) {
    member.group = 0;
  }
  ++heal_count_;
}

Result<MemberCounters> Network::Counters(Space space, size_t id) const {
  MMLIB_RETURN_IF_ERROR(CheckConfigured(space, id));
  return members(space)[id].counters;
}

TransferAttempt Network::Reject(Space space, size_t to,
                                const std::string& why) {
  // The sender learns nothing until its message goes unanswered; charge
  // one latency like a dropped message. No fault-rng draw: each fault
  // stream stays a pure function of the *delivered* message sequence, so a
  // crash or partition window does not shift later fault decisions.
  TransferAttempt attempt;
  ++message_count_;
  if (to < members(space).size()) {
    ++members(space)[to].counters.rejects;
  }
  attempt.seconds = link_.latency_seconds;
  clock_.AdvanceSeconds(attempt.seconds);
  attempt.status = Status::Unavailable(why);
  return attempt;
}

Status Network::SetReplicaFaultPlan(size_t replica, const FaultPlan& plan) {
  MMLIB_RETURN_IF_ERROR(CheckConfigured(Space::kReplica, replica));
  Member& member = members(Space::kReplica)[replica];
  member.has_plan = plan.active();
  member.plan = plan;
  member.rng = Rng(plan.seed);
  return Status::OK();
}

void Network::Schedule(ReplicaEvent event) {
  replica_events_.push_back(std::move(event));
  std::stable_sort(replica_events_.begin(), replica_events_.end(),
                   [](const ReplicaEvent& a, const ReplicaEvent& b) {
                     return a.at_seconds < b.at_seconds;
                   });
}

void Network::ApplyDueReplicaEvents() {
  // Applying a crash/restart charges detection/restart time, which can make
  // further events due; loop until the front of the queue is in the future.
  while (!replica_events_.empty() &&
         replica_events_.front().at_seconds <= clock_.NowSeconds()) {
    ReplicaEvent event = std::move(replica_events_.front());
    replica_events_.erase(replica_events_.begin());
    switch (event.kind) {
      case ReplicaEvent::kCrash:
        // Crashing an already-down replica is a no-op, not an error: a
        // schedule derived from a random seed may race its own restarts.
        (void)Crash(Space::kReplica, event.replica);
        break;
      case ReplicaEvent::kRestart:
        (void)Restart(Space::kReplica, event.replica);
        break;
      case ReplicaEvent::kPartition:
        (void)Partition(Space::kReplica, event.groups);
        break;
      case ReplicaEvent::kHeal:
        Heal(Space::kReplica);
        break;
    }
  }
}

TransferAttempt Network::TryTransferToReplica(size_t replica, uint64_t bytes) {
  ApplyDueReplicaEvents();
  if (!IsReachable(Space::kReplica, replica)) {
    return Reject(Space::kReplica, replica,
                  MemberName(Space::kReplica, replica) + " is unreachable");
  }
  Member& member = members(Space::kReplica)[replica];
  if (member.has_plan) {
    return AttemptWithPlan(member.plan, &member.rng, bytes,
                           &member.counters.faults);
  }
  return AttemptWithPlan(fault_plan_, &fault_rng_, bytes,
                         &member.counters.faults);
}

TransferAttempt Network::TryTransferBetweenReplicas(size_t from, size_t to,
                                                    uint64_t bytes) {
  ApplyDueReplicaEvents();
  if (!PairReachable(Space::kReplica, from, to)) {
    return Reject(Space::kReplica, to, PairUnreachable("replicas", from, to));
  }
  TransferAttempt attempt;
  attempt.seconds = Transfer(bytes);
  return attempt;
}

void Network::set_collective_fault_plan(const FaultPlan& plan) {
  collective_fault_plan_ = plan;
  collective_fault_rng_ = Rng(plan.seed);
}

TransferAttempt Network::TryTransferBetweenWorkers(size_t from, size_t to,
                                                   uint64_t bytes) {
  if (!PairReachable(Space::kWorker, from, to)) {
    return Reject(Space::kWorker, to, PairUnreachable("workers", from, to));
  }
  TransferAttempt attempt =
      AttemptWithPlan(collective_fault_plan_, &collective_fault_rng_, bytes,
                      &members(Space::kWorker)[to].counters.faults);
  if (attempt.corrupted) {
    // Link-level retransmission: the damaged frame is detected and resent,
    // so the payload the receiver reduces is always intact — arithmetic is
    // never perturbed by the fault plan. The resend costs one more full
    // transfer (no fault draw: retransmissions ride the reliable path).
    attempt.corrupted = false;
    attempt.seconds += Transfer(bytes);
  }
  return attempt;
}

void Network::Reset() {
  clock_ = VirtualClock();
  fault_rng_ = Rng(fault_plan_.seed);
  collective_fault_rng_ = Rng(collective_fault_plan_.seed);
  for (std::vector<Member>& space : spaces_) {
    for (Member& member : space) {
      Member fresh;
      if (member.has_plan) {
        fresh.has_plan = true;
        fresh.plan = member.plan;
        fresh.rng = Rng(member.plan.seed);
      }
      member = fresh;
    }
  }
  replica_events_.clear();
  total_bytes_ = 0;
  message_count_ = 0;
  faults_ = FaultCounters{};
  per_op_faults_.clear();
  partition_count_ = 0;
  heal_count_ = 0;
}

}  // namespace mmlib::simnet
