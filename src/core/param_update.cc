#include "core/param_update.h"

#include "core/fetch.h"

namespace mmlib::core {

Result<SaveResult> ParamUpdateSaveService::SaveModel(
    const SaveRequest& request) {
  CostMeter meter(backends_);
  SaveTransaction txn(backends_);

  // MakeModelDoc persists this model's Merkle tree so that the *next*
  // derived save can find changed layers without recovering this model.
  MerkleTree tree;
  MMLIB_ASSIGN_OR_RETURN(json::Value doc, MakeModelDoc(request, txn, &tree));

  if (request.base_model_id.empty()) {
    // Initial model: full snapshot, exactly like the baseline approach.
    Bytes params = request.model->SerializeParams();
    MMLIB_ASSIGN_OR_RETURN(Bytes encoded, EncodeParams(params));
    MMLIB_ASSIGN_OR_RETURN(std::string params_file, txn.SaveFile(encoded));
    doc.Set("params_file", params_file);
  } else {
    // Derived model: load only the base's Merkle tree and save the layers
    // whose hashes changed. The tree's serialization is self-checking, so a
    // payload damaged in flight deserializes as Corruption and is re-fetched.
    MMLIB_ASSIGN_OR_RETURN(
        json::Value base_doc,
        backends_.docs->Get(kModelsCollection, request.base_model_id));
    MMLIB_ASSIGN_OR_RETURN(std::string base_merkle_file,
                           base_doc.GetString("merkle_file"));
    MMLIB_ASSIGN_OR_RETURN(
        MerkleTree base_tree,
        FetchDecoded(
            backends_.files, base_merkle_file,
            [](Bytes bytes) { return MerkleTree::Deserialize(bytes); },
            &corruption_refetches_));
    MMLIB_ASSIGN_OR_RETURN(MerkleDiff diff,
                           MerkleTree::Diff(base_tree, tree));

    last_diff_stats_.changed_layers = diff.changed_leaves.size();
    last_diff_stats_.total_layers = tree.leaf_count();
    last_diff_stats_.merkle_comparisons = diff.comparisons;

    Bytes update =
        request.model->SerializeLayerSubset(diff.changed_leaves);
    MMLIB_ASSIGN_OR_RETURN(Bytes encoded, EncodeParams(update));
    MMLIB_ASSIGN_OR_RETURN(std::string update_file, txn.SaveFile(encoded));
    doc.Set("update_file", update_file);
  }

  MMLIB_ASSIGN_OR_RETURN(std::string model_id,
                         txn.Insert(kModelsCollection, std::move(doc)));
  MMLIB_RETURN_IF_ERROR(txn.Commit());
  SaveResult result;
  result.model_id = model_id;
  result.tts_seconds = meter.ElapsedSeconds();
  result.storage_bytes = meter.StoredBytesDelta();
  return result;
}

}  // namespace mmlib::core
