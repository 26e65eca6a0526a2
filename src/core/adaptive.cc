#include "core/adaptive.h"

#include <utility>

#include "core/fetch.h"

namespace mmlib::core {

AdaptiveSaveService::AdaptiveSaveService(StorageBackends backends,
                                         ProvenanceOptions provenance)
    : SaveService(backends),
      baseline_(backends),
      param_update_(backends),
      provenance_service_(backends, std::move(provenance)) {}

Result<size_t> AdaptiveSaveService::EstimateUpdateBytes(
    const SaveRequest& request) {
  MMLIB_ASSIGN_OR_RETURN(
      json::Value base_doc,
      backends_.docs->Get(kModelsCollection, request.base_model_id));
  MMLIB_ASSIGN_OR_RETURN(std::string merkle_file,
                         base_doc.GetString("merkle_file"));
  MMLIB_ASSIGN_OR_RETURN(
      MerkleTree base_tree,
      FetchDecoded(backends_.files, merkle_file, [](Bytes bytes) {
        return MerkleTree::Deserialize(bytes);
      }));
  MMLIB_ASSIGN_OR_RETURN(MerkleTree tree, request.model->BuildMerkleTree());
  MMLIB_ASSIGN_OR_RETURN(MerkleDiff diff, MerkleTree::Diff(base_tree, tree));

  size_t bytes = 0;
  for (size_t index : diff.changed_leaves) {
    bytes += static_cast<size_t>(
                 request.model->layer(index)->TotalParamCount()) *
             sizeof(float);
  }
  return bytes;
}

Result<SaveResult> AdaptiveSaveService::SaveModel(const SaveRequest& request) {
  if (request.model == nullptr) {
    return Status::InvalidArgument("SaveRequest requires a model");
  }
  if (request.base_model_id.empty()) {
    // Initial models are full snapshots under every approach; use the PUA
    // path so the Merkle tree needed by later updates is persisted.
    last_choice_ = param_update_.approach();
    last_estimates_ = Estimates{};
    return param_update_.SaveModel(request);
  }

  last_estimates_.baseline = request.model->ParamByteSize();
  auto update_estimate = EstimateUpdateBytes(request);
  last_estimates_.param_update = update_estimate.ok()
                                     ? update_estimate.value()
                                     : last_estimates_.baseline;
  const bool has_provenance = request.provenance != nullptr &&
                              request.provenance->dataset != nullptr;
  last_estimates_.provenance =
      has_provenance ? request.provenance->dataset->TotalByteSize() : 0;

  SaveService* chosen = &param_update_;
  double best = static_cast<double>(last_estimates_.param_update);
  if (static_cast<double>(last_estimates_.baseline) < best) {
    chosen = &baseline_;
    best = static_cast<double>(last_estimates_.baseline);
  }
  if (has_provenance) {
    const double mpa_cost = static_cast<double>(last_estimates_.provenance);
    if (mpa_cost < best) {
      chosen = &provenance_service_;
      best = mpa_cost;
    }
  }
  last_choice_ = chosen->approach();
  return chosen->SaveModel(request);
}

}  // namespace mmlib::core
