#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "hash/sha256.h"
#include "simnet/network.h"
#include "simnet/retry.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/status.h"

namespace mmlib::simnet {

/// Charge for a fixed-size control message (an 8-byte ack, count or size).
inline constexpr uint64_t kScalarResponseBytes = sizeof(uint64_t);

/// Bytes a reply carrying `value` puts on the wire: a generated id or a
/// payload its own length, a size or count one scalar, a digest its 32
/// bytes, and an id listing (length-prefixed and self-describing) the sum
/// of its ids.
struct WireBytes {
  uint64_t operator()(const std::string& id) const { return id.size(); }
  uint64_t operator()(const Bytes& payload) const { return payload.size(); }
  uint64_t operator()(size_t) const { return kScalarResponseBytes; }
  uint64_t operator()(const Digest& digest) const {
    return sizeof(digest.bytes);
  }
  uint64_t operator()(const std::vector<std::string>& ids) const {
    uint64_t bytes = 0;
    for (const std::string& id : ids) {
      bytes += id.size();
    }
    return bytes;
  }
};

/// How the reply of a RemoteEndpoint::Call travels back to the client.
enum class Reply {
  /// Reliable (Network::Transfer): a completed write is never retried into
  /// a duplicate. Saves, inserts, allocations, writes and deletes.
  kAck,
  /// Faultable; the client rejects a corrupted reply as Unavailable and the
  /// call is retried. Sizes, listings, digests and documents.
  kChecked,
  /// Faultable; a corrupted payload is delivered with one byte flipped.
  /// End-to-end integrity is the caller's (per-chunk CRC-32s in the chunked
  /// frame; the recoverer re-fetches on mismatch). File loads only.
  kDamaged,
};

/// The client end of one simulated storage server, shared by the remote
/// file and document stores: every operation is one request/response
/// exchange through Call, and every stats query one fault-free pair
/// through Query. Under an active FaultPlan messages can drop, time out or
/// corrupt; transient failures are retried by a Retrier (deterministic
/// backoff charged to the virtual clock).
class RemoteEndpoint {
 public:
  explicit RemoteEndpoint(Network* network)
      : network_(network), retrier_(network) {}

  /// Routes every faultable message to simnet replica node `replica`;
  /// while it is down or partitioned away, calls fail Unavailable.
  void BindReplica(size_t replica) { replica_ = replica; }

  /// Retries performed (attempts beyond the first) across all calls.
  uint64_t retry_count() const { return retrier_.retry_count(); }

  /// One remote operation, retried as a whole, with its faults tallied
  /// under `op`. Each attempt sends a faultable request of `request_bytes`;
  /// a corrupted one is rejected before `serve` runs, so writes stay
  /// at-most-once. Then `serve` runs the backend call (returning Status or
  /// Result<T>) and a successful outcome travels back as a `kReply` leg of
  /// `reply_bytes(value)` bytes; a Status travels back as a scalar ack.
  template <Reply kReply, typename Serve, typename Size = WireBytes>
  auto Call(const char* op, uint64_t request_bytes, Serve&& serve,
            Size reply_bytes = Size{}) -> decltype(serve()) {
    using Outcome = decltype(serve());
    constexpr bool kStatusOnly = std::is_same_v<Outcome, Status>;
    static_assert(!kStatusOnly || kReply == Reply::kAck,
                  "a bare Status is answered by an ack");
    static_assert(kReply != Reply::kDamaged ||
                      std::is_same_v<Outcome, Result<Bytes>>,
                  "only a byte payload can be delivered damaged");
    Network::OpScope scope(network_, op);
    return retrier_.Run([&]() -> Outcome {
      const TransferAttempt request = Attempt(request_bytes);
      MMLIB_RETURN_IF_ERROR(request.status);
      if (request.corrupted) {
        return Status::Unavailable("request corrupted in flight");
      }
      Outcome outcome = serve();
      if (!outcome.ok()) {
        return outcome;
      }
      if constexpr (kStatusOnly) {
        network_->Transfer(kScalarResponseBytes);
      } else if constexpr (kReply == Reply::kAck) {
        network_->Transfer(reply_bytes(*outcome));
      } else {
        const TransferAttempt response = Attempt(reply_bytes(*outcome));
        MMLIB_RETURN_IF_ERROR(response.status);
        if (response.corrupted) {
          if constexpr (kReply == Reply::kChecked) {
            return Status::Unavailable("reply corrupted in flight");
          } else {
            network_->CorruptPayload(&*outcome);
          }
        }
      }
      return outcome;
    });
  }

  /// A stats query: a scalar request/response pair that is charged but
  /// never faulted, so a flaky link cannot poison the experiment's cost
  /// metering with failed metric reads. Returns `serve()`.
  template <typename Serve>
  auto Query(Serve&& serve) const -> decltype(serve()) {
    network_->Transfer(kScalarResponseBytes);
    network_->Transfer(kScalarResponseBytes);
    return serve();
  }

 private:
  /// One faultable message of `bytes` to the server: the bound replica
  /// node when set, the anonymous shared server otherwise.
  TransferAttempt Attempt(uint64_t bytes) {
    if (replica_ != kNoReplica) {
      return network_->TryTransferToReplica(replica_, bytes);
    }
    return network_->TryTransfer(bytes);
  }

  Network* network_;
  Retrier retrier_;
  size_t replica_ = kNoReplica;
};

}  // namespace mmlib::simnet
