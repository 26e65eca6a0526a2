#include "core/baseline.h"

namespace mmlib::core {

Result<SaveResult> BaselineSaveService::SaveModel(const SaveRequest& request) {
  CostMeter meter(backends_);
  SaveTransaction txn(backends_);

  // Extract: serialize the full parameter snapshot and encode it as a
  // chunked frame (parallel, thread-count-independent bytes).
  Bytes params = request.model->SerializeParams();
  MMLIB_ASSIGN_OR_RETURN(Bytes encoded, EncodeParams(params));

  // Persist: parameters to the file store, metadata to the document store.
  MMLIB_ASSIGN_OR_RETURN(std::string params_file, txn.SaveFile(encoded));
  MMLIB_ASSIGN_OR_RETURN(json::Value doc, MakeModelDoc(request, txn));
  doc.Set("params_file", params_file);
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
