#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"

namespace mmlib::simnet {

/// Bandwidth/latency cost model of one network link.
struct Link {
  double bandwidth_bytes_per_second = 12.5e9;  // 100 Gbit/s InfiniBand
  double latency_seconds = 2e-6;

  /// Time to move `bytes` over this link (one message).
  double TransferSeconds(uint64_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / bandwidth_bytes_per_second;
  }

  /// The paper's evaluation link: 100G InfiniBand.
  static Link InfiniBand100G() { return Link{}; }

  /// A constrained uplink, e.g. a vehicle's cellular connection — the
  /// motivating scenario where saving bytes matters most (Section 1).
  static Link Cellular50M() { return Link{6.25e6, 30e-3}; }
};

/// Deterministic failure model for the simulated network: every message
/// draws one uniform sample from a seeded Rng and either succeeds, is
/// dropped (transient Unavailable), times out (DeadlineExceeded, charged
/// `timeout_seconds` of virtual time), or arrives with a corrupted payload.
/// The draw sequence depends only on the order of Transfer calls — the
/// save/recover pipeline issues them serially — so the exact same faults
/// fire on every run with the same seed, at any thread-pool size.
struct FaultPlan {
  /// Probability a message is lost in flight (receiver never sees it).
  /// Charged link latency only.
  double drop_probability = 0.0;
  /// Probability a message exceeds its deadline. Charged `timeout_seconds`.
  double timeout_probability = 0.0;
  /// Probability a delivered payload is damaged in flight. Charged the full
  /// transfer time; the payload has one deterministic byte flipped.
  double corrupt_probability = 0.0;
  /// Virtual time consumed by a timed-out message before the sender gives
  /// up on it.
  double timeout_seconds = 0.5;
  /// Seed of the fault-decision stream.
  uint64_t seed = 0x5eedfa17;

  bool active() const {
    return drop_probability > 0.0 || timeout_probability > 0.0 ||
           corrupt_probability > 0.0;
  }
};

/// Per-kind fault tally. Kept globally, per operation type (see
/// Network::OpScope), and per member of a node space, so a multi-flow
/// experiment can attribute faults to one flow and one operation instead of
/// reading a counter that is cumulative across the whole process.
struct FaultCounters {
  uint64_t drops = 0;
  uint64_t timeouts = 0;
  uint64_t corruptions = 0;

  uint64_t Total() const { return drops + timeouts + corruptions; }

  bool operator==(const FaultCounters& other) const {
    return drops == other.drops && timeouts == other.timeouts &&
           corruptions == other.corruptions;
  }
};

/// Outcome of one message attempt under the active fault plan.
struct TransferAttempt {
  /// OK, Unavailable (dropped), or DeadlineExceeded (timed out).
  Status status = Status::OK();
  /// True when the message was delivered but its payload was damaged in
  /// flight. Only meaningful when `status` is OK.
  bool corrupted = false;
  /// Virtual time charged for this attempt.
  double seconds = 0.0;
};

/// Replica node id meaning "not bound to a simulated replica" (clients that
/// model a store without per-replica lifecycle).
inline constexpr size_t kNoReplica = static_cast<size_t>(-1);

/// The node spaces of one Network. Each is its own membership table with
/// ids 0..n-1: the participant nodes of a DIST flow, the storage replicas
/// of mmlib::repl, and the ring workers of mmlib::collective.
enum class Space { kNode, kReplica, kWorker };

/// One member's tallies: fault draws on messages addressed to it, messages
/// rejected because it was unreachable, and its crashes and restarts.
struct MemberCounters {
  FaultCounters faults;
  uint64_t rejects = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
};

/// A replica-space lifecycle change armed on the virtual clock
/// (Network::Schedule).
struct ReplicaEvent {
  enum Kind { kCrash, kRestart, kPartition, kHeal };

  ReplicaEvent(double at, Kind what, size_t id = 0,
               std::vector<std::vector<size_t>> partition = {})
      : at_seconds(at), kind(what), replica(id), groups(std::move(partition)) {}

  double at_seconds;
  Kind kind;
  /// The replica a kCrash or kRestart applies to.
  size_t replica;
  /// The groups of a kPartition, as Network::Partition takes them.
  std::vector<std::vector<size_t>> groups;
};

/// Simulated network shared by the hosts of a distributed evaluation flow.
/// Every transfer advances a virtual clock and is accounted, so experiments
/// are deterministic and instantaneous regardless of modeled data volume.
///
/// The three node spaces (Space) share one membership type: every member
/// is up or down, sits in a partition group (0 is the flow coordinator's
/// side), and keeps MemberCounters. Crash/Restart, Partition/Heal,
/// IsUp/IsReachable/PairReachable and Counters work the same in every
/// space, and a message to an unreachable member fails Unavailable after
/// one latency charge, with no fault draw. The spaces differ only in how
/// their transfers draw faults:
///   - replicas draw from their own plan when one is set, else from the
///     global plan, and apply due scheduled events first;
///   - workers draw from the one collective stream, and a corruption draw
///     becomes a retransmission;
///   - nodes use the global plan (TryTransfer); nothing addresses a
///     message to one node.
class Network {
 public:
  explicit Network(Link link) : link_(link), fault_rng_(FaultPlan{}.seed) {}
  Network() : Network(Link::InfiniBand100G()) {}

  const Link& link() const { return link_; }

  /// Installs a failure model and reseeds the fault stream; replaces any
  /// previous plan. Pass a default-constructed FaultPlan to disable faults.
  void set_fault_plan(const FaultPlan& plan);

  /// Charges one message of `bytes` to the virtual clock; returns the
  /// transfer time in seconds. Never fails — the fault-free cost-model path
  /// used by callers that only model bandwidth (benchmarks, stats queries).
  double Transfer(uint64_t bytes);

  /// Attempts one message of `bytes` under the fault plan. On success
  /// charges the transfer time; a drop charges latency only; a timeout
  /// charges `timeout_seconds`. With no active plan this is exactly
  /// Transfer.
  TransferAttempt TryTransfer(uint64_t bytes);

  /// Deterministically flips one byte of `payload` (no-op when empty);
  /// called by remote-store clients when TryTransfer reports corruption on
  /// a payload-carrying response.
  void CorruptPayload(Bytes* payload);

  /// Advances the virtual clock without sending a message — models a sender
  /// waiting out a retry backoff.
  void ChargeSeconds(double seconds);

  /// --- Per-operation fault attribution. ---
  /// Scoped label naming the storage operation whose messages are in
  /// flight; faults that fire while a scope is open are also tallied under
  /// its label (PerOpFaultCounters). Scopes nest; the innermost label wins.
  class OpScope {
   public:
    OpScope(Network* network, const char* op) : network_(network) {
      if (network_ != nullptr) {
        previous_ = network_->current_op_;
        network_->current_op_ = op;
      }
    }
    ~OpScope() {
      if (network_ != nullptr) {
        network_->current_op_ = previous_;
      }
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Network* network_;
    const char* previous_ = nullptr;
  };

  /// Fault tallies per operation label since the last
  /// ResetFaultCounters/set_fault_plan/Reset.
  const std::map<std::string, FaultCounters>& PerOpFaultCounters() const {
    return per_op_faults_;
  }

  /// --- Request-deadline propagation (serving front end, src/serve). ---
  /// Scoped absolute virtual-clock deadline of the request whose backend
  /// work is in flight. While a scope is open, every Retrier on this network
  /// abandons an operation whose deadline is already hopeless instead of
  /// walking the full backoff ladder — the client has given up, so the work
  /// is wasted either way. Scopes nest; the innermost (tightest-owning)
  /// deadline wins. 0 means "no deadline".
  class DeadlineScope {
   public:
    DeadlineScope(Network* network, double deadline_seconds)
        : network_(network) {
      if (network_ != nullptr) {
        previous_ = network_->request_deadline_seconds_;
        network_->request_deadline_seconds_ = deadline_seconds;
      }
    }
    ~DeadlineScope() {
      if (network_ != nullptr) {
        network_->request_deadline_seconds_ = previous_;
      }
    }
    DeadlineScope(const DeadlineScope&) = delete;
    DeadlineScope& operator=(const DeadlineScope&) = delete;

   private:
    Network* network_;
    double previous_ = 0.0;
  };

  /// True when a request deadline is set and the virtual clock has passed
  /// it — any further backend work for this request is already wasted.
  bool RequestDeadlineExpired() const {
    return request_deadline_seconds_ > 0.0 &&
           clock_.NowSeconds() >= request_deadline_seconds_;
  }

  /// Zeroes every counter — the global and per-operation fault tallies,
  /// each member's MemberCounters in every space, and PartitionCount and
  /// HealCount — without touching the virtual clock, TotalBytes,
  /// MessageCount, membership (up/down, groups), the fault plans, or the
  /// fault-decision streams. Flows call this on entry so their reported
  /// accounting is per-flow, not cumulative across an experiment run.
  void ResetFaultCounters();

  /// --- Membership: one table per node space. ---
  /// Declares `count` members of `space`, all up, all in group 0, with zero
  /// counters. Replaces the space's previous state; for the replica space
  /// this also drops per-replica fault plans and scheduled events.
  void Configure(Space space, size_t count);
  size_t MemberCount(Space space) const { return members(space).size(); }

  /// True when `id` is configured in `space` and currently up.
  bool IsUp(Space space, size_t id) const {
    return id < members(space).size() && members(space)[id].up;
  }

  /// True when the member is up and in the coordinator's partition group
  /// (group 0) — i.e. a client request can reach it right now.
  bool IsReachable(Space space, size_t id) const {
    return IsUp(space, id) && members(space)[id].group == 0;
  }

  /// True when two distinct members of `space` can talk to each other: both
  /// up and in the same partition group (anti-entropy sessions and ring
  /// neighbours need this).
  bool PairReachable(Space space, size_t a, size_t b) const {
    return a != b && IsUp(space, a) && IsUp(space, b) &&
           members(space)[a].group == members(space)[b].group;
  }

  /// Kills a member: charges the failure-detection time and marks it down,
  /// so messages to it fail Unavailable (feeding the Retrier).
  /// InvalidArgument for an unconfigured id, FailedPrecondition when
  /// already down.
  Status Crash(Space space, size_t id);

  /// Brings a crashed member back: charges the restart time and marks it
  /// up. InvalidArgument / FailedPrecondition mirror Crash.
  Status Restart(Space space, size_t id);

  /// Virtual-time cost of member lifecycle events, the same in every
  /// space. Detection models the failure detector noticing a dead peer;
  /// restart models reboot plus process start-up before the member serves
  /// again.
  static constexpr double kCrashDetectSeconds = 0.05;
  static constexpr double kRestartSeconds = 0.5;

  /// Splits the members of `space` into partition groups: `groups[i]` lists
  /// the ids cut off into group i+1; members not listed stay in group 0,
  /// the side the flow coordinator is on. Messages across group boundaries
  /// fail Unavailable after one latency charge. InvalidArgument when an id
  /// is unconfigured or listed twice. Other spaces are untouched.
  Status Partition(Space space, const std::vector<std::vector<size_t>>& groups);

  /// Heals all partitions of `space`: every member rejoins group 0.
  void Heal(Space space);

  /// The member's tallies since its space was configured or the last
  /// ResetFaultCounters/Reset. InvalidArgument for an unconfigured id.
  Result<MemberCounters> Counters(Space space, size_t id) const;

  /// Partition/Heal transitions applied in any space (direct calls and due
  /// events).
  uint64_t PartitionCount() const { return partition_count_; }
  uint64_t HealCount() const { return heal_count_; }

  /// --- Replica transfers (replicated storage, mmlib::repl). ---
  /// Installs an independent failure model for one replica's link. The
  /// replica draws fault decisions from its own stream seeded by
  /// `plan.seed`, so faults on one replica never shift another replica's
  /// fault sequence. Pass an inactive plan to fall back to the global plan.
  Status SetReplicaFaultPlan(size_t replica, const FaultPlan& plan);

  /// Queues a replica crash/restart/partition/heal to fire once the
  /// virtual clock reaches `event.at_seconds`. Due events are applied, in
  /// schedule order, at the start of the next replica-addressed transfer,
  /// so a flow's storage traffic drives its own degradation
  /// deterministically. A scheduled crash of an already-down replica (or
  /// restart of an up one) is a no-op.
  void Schedule(ReplicaEvent event);

  /// Applies every scheduled replica event due at the current virtual time;
  /// called automatically by the replica transfer paths.
  void ApplyDueReplicaEvents();

  /// Attempts one message of `bytes` addressed to `replica`. Unreachable
  /// replicas (down or partitioned away from the coordinator) are rejected.
  /// Reachable replicas draw from their own fault plan when one is set,
  /// otherwise from the global plan.
  TransferAttempt TryTransferToReplica(size_t replica, uint64_t bytes);

  /// Attempts one replica-to-replica message of `bytes` (anti-entropy
  /// traffic). Rejected when the pair cannot reach each other. The
  /// replication channel is modeled with link-level retransmission, so a
  /// delivered message is never corrupted; the cost is still charged.
  TransferAttempt TryTransferBetweenReplicas(size_t from, size_t to,
                                             uint64_t bytes);

  /// --- Worker transfers (data-parallel training, mmlib::collective). ---
  /// Installs the failure model of the collective channel and reseeds its
  /// fault stream. Pass an inactive plan to disable collective faults. All
  /// workers share this one stream (a plan per worker would let the worker
  /// count change the draw sequence), and it is separate from the storage
  /// stream, so collective faults never shift storage fault decisions.
  void set_collective_fault_plan(const FaultPlan& plan);

  /// Attempts one worker-to-worker message of `bytes` (gradient-exchange
  /// traffic). Rejected when the pair cannot reach each other, so
  /// crash/partition windows never shift later collective fault decisions.
  /// Reachable pairs draw from the collective fault stream; the collective
  /// channel is modeled with link-level retransmission, so a delivered
  /// payload is never corrupted — a corruption draw (counted in the
  /// receiver's faults.corruptions) is charged one extra transfer instead.
  TransferAttempt TryTransferBetweenWorkers(size_t from, size_t to,
                                            uint64_t bytes);

  /// Total simulated time spent in transfers (including faulted attempts
  /// and backoff waits).
  double TotalTransferSeconds() const { return clock_.NowSeconds(); }

  /// Total bytes moved by successful messages.
  uint64_t TotalBytes() const { return total_bytes_; }

  /// Number of messages attempted (successful or faulted).
  uint64_t MessageCount() const { return message_count_; }

  /// Fault counters since the last ResetFaultCounters/set_fault_plan/Reset.
  uint64_t DropCount() const { return faults_.drops; }
  uint64_t TimeoutCount() const { return faults_.timeouts; }
  uint64_t CorruptionCount() const { return faults_.corruptions; }
  uint64_t FaultCount() const { return faults_.Total(); }

  /// Rewinds the clock and every counter, brings every member back up in
  /// group 0 and reseeds every fault stream. Member counts, fault plans
  /// (global, collective and per-replica) are kept; scheduled events are
  /// dropped.
  void Reset();

 private:
  struct Member {
    bool up = true;
    int group = 0;
    MemberCounters counters;
    /// Replica space only (SetReplicaFaultPlan): the member's own plan and
    /// fault-decision stream.
    bool has_plan = false;
    FaultPlan plan;
    Rng rng{0};
  };

  std::vector<Member>& members(Space space) {
    return spaces_[static_cast<size_t>(space)];
  }
  const std::vector<Member>& members(Space space) const {
    return spaces_[static_cast<size_t>(space)];
  }
  /// InvalidArgument unless `id` is configured in `space`.
  Status CheckConfigured(Space space, size_t id) const;

  /// One fault-plan decision over `bytes`; draws from `rng`, tallies into
  /// the global, per-op, and (when given) per-member counters.
  TransferAttempt AttemptWithPlan(const FaultPlan& plan, Rng* rng,
                                  uint64_t bytes, FaultCounters* member_faults);
  void CountFault(FaultCounters* member_faults,
                  uint64_t FaultCounters::* kind);
  /// A message to an unreachable member of `space`: one latency charge,
  /// no fault draw, Unavailable with `why`. Tallied as a reject of `to`
  /// when that id is configured.
  TransferAttempt Reject(Space space, size_t to, const std::string& why);

  Link link_;
  VirtualClock clock_;
  FaultPlan fault_plan_;
  Rng fault_rng_;
  FaultPlan collective_fault_plan_;
  Rng collective_fault_rng_{FaultPlan{}.seed};
  std::array<std::vector<Member>, 3> spaces_;
  std::vector<ReplicaEvent> replica_events_;  // sorted by at_seconds, stable
  const char* current_op_ = nullptr;
  double request_deadline_seconds_ = 0.0;
  std::map<std::string, FaultCounters> per_op_faults_;
  uint64_t total_bytes_ = 0;
  uint64_t message_count_ = 0;
  FaultCounters faults_;
  uint64_t partition_count_ = 0;
  uint64_t heal_count_ = 0;
};

}  // namespace mmlib::simnet
