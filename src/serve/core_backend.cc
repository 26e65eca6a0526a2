#include "serve/core_backend.h"

#include "core/types.h"
#include "simnet/arrivals.h"

namespace mmlib::serve {
namespace {

/// Primary-read cost past which an inference read hedges to a second
/// replica.
constexpr double kHedgeThresholdSeconds = 0.050;
/// Arithmetic cost of the forward pass after an inference read.
constexpr double kInferenceForwardSeconds = 0.002;

StatusCode CodeOf(const Status& status) {
  return status.ok() ? StatusCode::kOk : status.code();
}

}  // namespace

CoreBackend::CoreBackend(const CoreBackendContext& context)
    : context_(context) {
  if (context_.files != nullptr) {
    base_hedged_reads_ = context_.files->hedged_read_count();
    base_hedge_wins_ = context_.files->hedge_win_count();
  }
}

StatusCode CoreBackend::CountCoreOp(const Status& status) {
  ++core_ops_;
  return CodeOf(status);
}

uint64_t CoreBackend::hedged_reads() const {
  return context_.files != nullptr
             ? context_.files->hedged_read_count() - base_hedged_reads_
             : 0;
}

uint64_t CoreBackend::hedge_wins() const {
  return context_.files != nullptr
             ? context_.files->hedge_win_count() - base_hedge_wins_
             : 0;
}

BackendOutcome CoreBackend::Execute(const Request& request, size_t batch_size,
                                    double now_seconds) {
  (void)now_seconds;
  // Propagate the client's absolute deadline into every store client this
  // op touches: their Retriers stop retrying once it has passed.
  simnet::Network::DeadlineScope deadline(context_.network,
                                          request.deadline_seconds);
  const double start = context_.network != nullptr
                           ? context_.network->TotalTransferSeconds()
                           : 0.0;
  BackendOutcome outcome;
  switch (request.kind) {
    case RequestKind::kSave:
      outcome = ExecuteSave(request);
      break;
    case RequestKind::kRecover:
      outcome = ExecuteRecover(request);
      break;
    case RequestKind::kProbe:
      outcome = ExecuteProbe(request);
      break;
    case RequestKind::kInference:
      outcome = ExecuteInference(request, batch_size);
      break;
  }
  if (context_.network != nullptr) {
    outcome.service_seconds +=
        context_.network->TotalTransferSeconds() - start;
  }
  return outcome;
}

BackendOutcome CoreBackend::ExecuteSave(const Request& request) {
  (void)request;
  BackendOutcome outcome;
  core::SaveRequest save;
  save.model = context_.model;
  save.code = context_.code;
  save.environment = context_.environment;
  auto result = context_.save_service->SaveModel(save);
  outcome.code = CountCoreOp(result.status());
  if (result.ok() && result.value().storage_bytes > 0) {
    outcome.bytes = static_cast<uint64_t>(result.value().storage_bytes);
  }
  return outcome;
}

BackendOutcome CoreBackend::ExecuteRecover(const Request& request) {
  BackendOutcome outcome;
  if (context_.model_ids.empty()) {
    outcome.code = StatusCode::kNotFound;
    return outcome;
  }
  const std::string& id = context_.model_ids[simnet::MixHash(
      context_.seed ^ simnet::MixHash(request.sequence)) %
                                          context_.model_ids.size()];
  core::RecoverOptions options;
  options.verify_checksum = true;
  auto result = context_.recoverer->Recover(id, options);
  outcome.code = CountCoreOp(result.status());
  if (result.ok()) {
    outcome.bytes = result.value().model.ParamByteSize();
  }
  return outcome;
}

BackendOutcome CoreBackend::ExecuteProbe(const Request& request) {
  BackendOutcome outcome;
  if (context_.model_ids.empty()) {
    outcome.code = StatusCode::kNotFound;
    return outcome;
  }
  const std::string& id = context_.model_ids[simnet::MixHash(
      context_.seed ^ simnet::MixHash(request.sequence) ^ 0x9bULL) %
                                          context_.model_ids.size()];
  auto doc = context_.docs->Get(core::kModelsCollection, id);
  outcome.code = CodeOf(doc.status());
  return outcome;
}

BackendOutcome CoreBackend::ExecuteInference(const Request& request,
                                             size_t batch_size) {
  BackendOutcome outcome;
  if (context_.files == nullptr || context_.file_ids.empty()) {
    // No replicated file store wired: inference degenerates to the
    // arithmetic forward cost alone.
    outcome.service_seconds =
        kInferenceForwardSeconds * static_cast<double>(batch_size);
    return outcome;
  }
  const std::string& file_id = context_.file_ids[simnet::MixHash(
      context_.seed ^ simnet::MixHash(request.sequence) ^ 0x1fULL) %
                                           context_.file_ids.size()];
  auto payload =
      context_.files->LoadFileHedged(file_id, kHedgeThresholdSeconds);
  outcome.code = CodeOf(payload.status());
  if (payload.ok()) {
    outcome.bytes = payload.value().size();
    // One model pass serves the whole batch; the read is shared.
    outcome.service_seconds =
        kInferenceForwardSeconds *
        (1.0 + 0.25 * (static_cast<double>(batch_size) - 1.0));
  }
  return outcome;
}

}  // namespace mmlib::serve
