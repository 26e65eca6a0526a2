#include "core/provenance.h"

#include <utility>

#include "data/archive.h"

namespace mmlib::core {

Result<SaveResult> ProvenanceSaveService::SaveModel(
    const SaveRequest& request) {
  CostMeter meter(backends_);
  SaveTransaction txn(backends_);

  MMLIB_ASSIGN_OR_RETURN(json::Value doc, MakeModelDoc(request, txn));

  if (request.base_model_id.empty()) {
    // Initial model: full snapshot, exactly like the baseline approach.
    Bytes params = request.model->SerializeParams();
    MMLIB_ASSIGN_OR_RETURN(Bytes encoded, EncodeParams(params));
    MMLIB_ASSIGN_OR_RETURN(std::string params_file, txn.SaveFile(encoded));
    doc.Set("params_file", params_file);
  } else {
    if (request.provenance == nullptr ||
        request.provenance->dataset == nullptr) {
      return Status::InvalidArgument(
          "provenance approach requires ProvenanceData for derived models");
    }
    const ProvenanceData& prov = *request.provenance;

    json::Value prov_doc = json::Value::MakeObject();
    prov_doc.Set("train_service", prov.train_service_doc);

    // Stateful wrapper state files (paper Figure 5: the optimizer's state
    // is saved in a state file referenced from its wrapper).
    if (!prov.optimizer_state.empty()) {
      MMLIB_ASSIGN_OR_RETURN(std::string state_file,
                             txn.SaveFile(prov.optimizer_state));
      prov_doc.Set("optimizer_state_file", state_file);
    }

    // Training data: compressed to a single file and referenced — or, with
    // an external dataset manager, referenced by content hash only.
    const data::Dataset& dataset = *prov.dataset;
    const Digest content_hash = dataset.ContentHash();
    if (options_.external_dataset_manager) {
      prov_doc.Set("dataset_ref", content_hash.ToHex());
      prov_doc.Set("dataset_name", dataset.name());
    } else {
      if (memo_archive_.empty() || memo_hash_ != content_hash ||
          memo_name_ != dataset.name()) {
        data::DatasetArchiver archiver(
            Codec::ForKind(options_.dataset_codec));
        MMLIB_ASSIGN_OR_RETURN(Bytes archive,
                               archiver.Archive(dataset, content_hash));
        memo_name_ = dataset.name();
        memo_hash_ = content_hash;
        memo_archive_ = std::move(archive);
      }
      MMLIB_ASSIGN_OR_RETURN(std::string dataset_file,
                             txn.SaveFile(memo_archive_));
      prov_doc.Set("dataset_file", dataset_file);
    }

    MMLIB_ASSIGN_OR_RETURN(
        std::string prov_id,
        txn.Insert(kProvenanceCollection, std::move(prov_doc)));
    doc.Set("provenance_doc", prov_id);
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
