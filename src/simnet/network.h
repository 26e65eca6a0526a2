#pragma once

#include <cstdint>
#include <map>
#include <string>
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

/// Per-kind fault tally. Kept both globally, per operation type (see
/// Network::OpScope), and per storage replica, so a multi-flow experiment
/// can attribute faults to one flow and one operation instead of reading a
/// counter that is cumulative across the whole process.
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

/// Virtual-time cost of node lifecycle events. Detection models the failure
/// detector noticing a dead peer; restart models reboot plus process
/// start-up before the node serves again.
struct NodeCosts {
  double crash_detect_seconds = 0.05;
  double restart_seconds = 0.5;
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

/// Simulated network shared by the hosts of a distributed evaluation flow.
/// Every transfer advances a virtual clock and is accounted, so experiments
/// are deterministic and instantaneous regardless of modeled data volume.
///
/// Two independent node spaces exist: *participant nodes* (the training
/// nodes of a DIST flow, ConfigureNodes) and *replica nodes* (the storage
/// replicas of mmlib::repl, ConfigureReplicas). Replica nodes additionally
/// support partition groups, per-replica fault plans with independent
/// fault-decision streams, and crash/partition schedules driven by the
/// virtual clock.
class Network {
 public:
  explicit Network(Link link) : link_(link), fault_rng_(FaultPlan{}.seed) {}
  Network() : Network(Link::InfiniBand100G()) {}

  const Link& link() const { return link_; }

  /// Installs a failure model and reseeds the fault stream; replaces any
  /// previous plan. Pass a default-constructed FaultPlan to disable faults.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return fault_plan_; }

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

  /// Absolute virtual-clock deadline of the in-flight request; 0 when no
  /// DeadlineScope is open.
  double RequestDeadlineSeconds() const { return request_deadline_seconds_; }

  /// True when a request deadline is set and the virtual clock has passed
  /// it — any further backend work for this request is already wasted.
  bool RequestDeadlineExpired() const {
    return request_deadline_seconds_ > 0.0 &&
           clock_.NowSeconds() >= request_deadline_seconds_;
  }

  /// Zeroes every fault counter — global, per-operation, and per-replica —
  /// without touching the virtual clock, the fault plans, or the
  /// fault-decision streams. Flows call this on entry so their reported
  /// fault accounting is per-flow, not cumulative across an experiment run.
  void ResetFaultCounters();

  /// --- Node lifecycle (crash-tolerant distributed flows). ---
  /// Declares `count` participant nodes, all up. Replaces previous state.
  void ConfigureNodes(size_t count);
  size_t NodeCount() const { return node_up_.size(); }

  /// True when `node` is configured and currently up.
  bool IsNodeUp(size_t node) const {
    return node < node_up_.size() && node_up_[node];
  }

  /// Kills a node: charges the failure-detection time and marks the node
  /// down, so messages to it fail Unavailable (feeding the Retrier).
  /// InvalidArgument for an unconfigured node, FailedPrecondition when
  /// already down.
  Status CrashNode(size_t node);

  /// Brings a crashed node back: charges the restart time and marks the
  /// node up. InvalidArgument / FailedPrecondition mirror CrashNode.
  Status RestartNode(size_t node);

  const NodeCosts& node_costs() const { return node_costs_; }

  /// Attempts one message of `bytes` addressed to `node`. While the node is
  /// down the message fails Unavailable after one latency charge — the
  /// sender's Retrier backs off and retries until the node restarts (or its
  /// attempts run out). An up node behaves exactly like TryTransfer.
  TransferAttempt TryTransferToNode(size_t node, uint64_t bytes);

  /// --- Replica nodes (replicated storage, mmlib::repl). ---
  /// Declares `count` storage replicas, all up, all reachable (group 0),
  /// with no per-replica fault plans. Replaces previous replica state and
  /// drops any scheduled replica events.
  void ConfigureReplicas(size_t count);
  size_t ReplicaCount() const { return replicas_.size(); }

  /// Installs an independent failure model for one replica's link. The
  /// replica draws fault decisions from its own stream seeded by
  /// `plan.seed`, so faults on one replica never shift another replica's
  /// fault sequence. Pass an inactive plan to fall back to the global plan.
  Status SetReplicaFaultPlan(size_t replica, const FaultPlan& plan);

  bool IsReplicaUp(size_t replica) const {
    return replica < replicas_.size() && replicas_[replica].up;
  }

  /// True when the replica is up and in the coordinator's partition group
  /// (group 0) — i.e. a client request can reach it right now.
  bool IsReplicaReachable(size_t replica) const {
    return replica < replicas_.size() && replicas_[replica].up &&
           replicas_[replica].group == 0;
  }

  /// True when two distinct replicas can talk to each other: both up and in
  /// the same partition group (anti-entropy sessions need this).
  bool ReplicaPairReachable(size_t a, size_t b) const {
    return a < replicas_.size() && b < replicas_.size() && a != b &&
           replicas_[a].up && replicas_[b].up &&
           replicas_[a].group == replicas_[b].group;
  }

  /// Kills / restarts a replica; charges the node costs like
  /// CrashNode/RestartNode. Errors mirror the participant-node variants.
  Status CrashReplica(size_t replica);
  Status RestartReplica(size_t replica);

  /// Splits the replicas into partition groups: `groups[i]` lists the
  /// replicas cut off into group i+1; replicas not listed stay in group 0,
  /// the side the flow coordinator is on. Messages across group boundaries
  /// fail Unavailable after one latency charge. InvalidArgument when a
  /// replica id is unconfigured or listed twice.
  Status Partition(const std::vector<std::vector<size_t>>& groups);

  /// Heals all partitions: every replica rejoins group 0.
  void Heal();

  /// --- Replica event schedule (virtual clock). ---
  /// Queues a crash/restart/partition/heal to fire once the virtual clock
  /// reaches `at_seconds`. Due events are applied, in schedule order, at
  /// the start of the next replica-addressed transfer, so a flow's storage
  /// traffic drives its own degradation deterministically. A scheduled
  /// crash of an already-down replica (or restart of an up one) is a no-op.
  void ScheduleReplicaCrash(size_t replica, double at_seconds);
  void ScheduleReplicaRestart(size_t replica, double at_seconds);
  void SchedulePartition(double at_seconds,
                         std::vector<std::vector<size_t>> groups);
  void ScheduleHeal(double at_seconds);

  /// Applies every scheduled replica event due at the current virtual time;
  /// called automatically by the replica transfer paths.
  void ApplyDueReplicaEvents();

  /// Attempts one message of `bytes` addressed to `replica`. Unreachable
  /// replicas (down or partitioned away from the coordinator) fail
  /// Unavailable after one latency charge without consuming a fault draw.
  /// Reachable replicas draw from their own fault plan when one is set,
  /// otherwise from the global plan.
  TransferAttempt TryTransferToReplica(size_t replica, uint64_t bytes);

  /// Attempts one replica-to-replica message of `bytes` (anti-entropy
  /// traffic). Fails Unavailable when the pair cannot reach each other.
  /// The replication channel is modeled with link-level retransmission, so
  /// a delivered message is never corrupted; the cost is still charged.
  TransferAttempt TryTransferBetweenReplicas(size_t from, size_t to,
                                             uint64_t bytes);

  /// --- Worker nodes (data-parallel training, mmlib::collective). ---
  /// A third node space, independent of participant and replica nodes: the
  /// ring-all-reduce workers of a data-parallel flow. Workers share the
  /// membership primitives of replicas (crash/restart, partition groups)
  /// but their gradient-exchange traffic draws fault decisions from a
  /// dedicated collective stream, so collective faults never shift the
  /// storage fault sequence (and vice versa) — the flow's fault-RNG draws
  /// stay bit-identical across worker counts.
  /// Declares `count` workers, all up, all in group 0. Replaces previous
  /// worker state.
  void ConfigureWorkers(size_t count);
  size_t WorkerCount() const { return workers_.size(); }

  /// Installs the failure model of the collective channel and reseeds its
  /// fault stream. Pass an inactive plan to disable collective faults.
  void set_collective_fault_plan(const FaultPlan& plan);
  const FaultPlan& collective_fault_plan() const {
    return collective_fault_plan_;
  }

  bool IsWorkerUp(size_t worker) const {
    return worker < workers_.size() && workers_[worker].up;
  }

  /// True when the worker is up and on the flow coordinator's side of any
  /// worker partition (group 0) — i.e. it can take part in a collective
  /// step right now.
  bool IsWorkerReachable(size_t worker) const {
    return worker < workers_.size() && workers_[worker].up &&
           workers_[worker].group == 0;
  }

  /// True when two distinct workers can talk to each other: both up and in
  /// the same partition group (ring neighbours need this).
  bool WorkerPairReachable(size_t a, size_t b) const {
    return a < workers_.size() && b < workers_.size() && a != b &&
           workers_[a].up && workers_[b].up &&
           workers_[a].group == workers_[b].group;
  }

  /// Kills / restarts a worker; charges the node costs like
  /// CrashNode/RestartNode. Errors mirror the participant-node variants.
  Status CrashWorker(size_t worker);
  Status RestartWorker(size_t worker);

  /// Splits the workers into partition groups, same contract as
  /// Partition(): `groups[i]` lists the workers cut into group i+1,
  /// unlisted workers stay in group 0 (the majority side the flow
  /// coordinator observes). Replica partitions are untouched.
  Status PartitionWorkers(const std::vector<std::vector<size_t>>& groups);

  /// Heals all worker partitions: every worker rejoins group 0.
  void HealWorkers();

  /// Attempts one worker-to-worker message of `bytes` (gradient-exchange
  /// traffic). Fails Unavailable after one latency charge when the pair
  /// cannot reach each other — no fault draw, so crash/partition windows
  /// never shift later collective fault decisions. Reachable pairs draw
  /// from the collective fault stream; the collective channel is modeled
  /// with link-level retransmission, so a delivered payload is never
  /// corrupted — a corruption draw is charged one extra retransmission
  /// instead.
  TransferAttempt TryTransferBetweenWorkers(size_t from, size_t to,
                                            uint64_t bytes);

  /// Per-worker tallies since the last ResetFaultCounters/Reset.
  Result<FaultCounters> WorkerFaultCounters(size_t worker) const;
  /// Messages rejected because the worker pair was unreachable.
  Result<uint64_t> WorkerRejectCount(size_t worker) const;
  Result<uint64_t> WorkerCrashCount(size_t worker) const;
  Result<uint64_t> WorkerRestartCount(size_t worker) const;
  /// Messages rejected across all workers.
  uint64_t WorkerRejectCount() const { return worker_reject_count_; }
  /// Collective-channel retransmissions charged for corruption draws.
  uint64_t WorkerRetransmitCount() const { return worker_retransmit_count_; }

  /// Per-replica tallies since the last ResetFaultCounters/Reset.
  Result<FaultCounters> ReplicaFaultCounters(size_t replica) const;
  /// Messages rejected because the replica was down or partitioned.
  Result<uint64_t> ReplicaRejectCount(size_t replica) const;
  Result<uint64_t> ReplicaCrashCount(size_t replica) const;
  Result<uint64_t> ReplicaRestartCount(size_t replica) const;

  /// Lifecycle counters since the last Reset.
  uint64_t CrashCount() const { return crash_count_; }
  uint64_t RestartCount() const { return restart_count_; }
  /// Messages that failed because their destination node was down.
  uint64_t DownNodeRejectCount() const { return down_node_reject_count_; }
  /// Messages that failed because their destination replica was down or
  /// partitioned away from the sender.
  uint64_t ReplicaRejectCount() const { return replica_reject_count_; }
  /// Partition/Heal transitions applied (direct calls and due events).
  uint64_t PartitionCount() const { return partition_count_; }
  uint64_t HealCount() const { return heal_count_; }

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

  void Reset();

 private:
  struct ReplicaState {
    bool up = true;
    int group = 0;
    bool has_plan = false;
    FaultPlan plan;
    Rng rng{0};
    FaultCounters faults;
    uint64_t rejects = 0;
    uint64_t crashes = 0;
    uint64_t restarts = 0;
  };

  /// Workers reuse the replica state shape minus the per-node fault plan:
  /// all workers share the one collective stream (a plan per worker would
  /// let worker count change the draw sequence).
  struct WorkerState {
    bool up = true;
    int group = 0;
    FaultCounters faults;
    uint64_t rejects = 0;
    uint64_t crashes = 0;
    uint64_t restarts = 0;
  };

  struct ReplicaEvent {
    enum class Kind { kCrash, kRestart, kPartition, kHeal };
    double at_seconds = 0.0;
    Kind kind = Kind::kCrash;
    size_t replica = 0;
    std::vector<std::vector<size_t>> groups;
  };

  /// One fault-plan decision over `bytes`; draws from `rng`, tallies into
  /// the global, per-op, and (when given) per-node counters.
  TransferAttempt AttemptWithPlan(const FaultPlan& plan, Rng* rng,
                                  uint64_t bytes, FaultCounters* node_faults);
  void CountFault(FaultCounters* replica_faults,
                  uint64_t FaultCounters::* kind);

  Link link_;
  VirtualClock clock_;
  FaultPlan fault_plan_;
  Rng fault_rng_;
  FaultPlan collective_fault_plan_;
  Rng collective_fault_rng_{FaultPlan{}.seed};
  NodeCosts node_costs_;
  std::vector<bool> node_up_;
  std::vector<ReplicaState> replicas_;
  std::vector<WorkerState> workers_;
  std::vector<ReplicaEvent> replica_events_;  // sorted by at_seconds, stable
  const char* current_op_ = nullptr;
  double request_deadline_seconds_ = 0.0;
  std::map<std::string, FaultCounters> per_op_faults_;
  uint64_t total_bytes_ = 0;
  uint64_t message_count_ = 0;
  FaultCounters faults_;
  uint64_t crash_count_ = 0;
  uint64_t restart_count_ = 0;
  uint64_t down_node_reject_count_ = 0;
  uint64_t replica_reject_count_ = 0;
  uint64_t worker_reject_count_ = 0;
  uint64_t worker_retransmit_count_ = 0;
  uint64_t partition_count_ = 0;
  uint64_t heal_count_ = 0;
};

}  // namespace mmlib::simnet
