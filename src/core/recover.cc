#include "core/recover.h"

#include "compress/chunked.h"
#include "core/fetch.h"
#include "core/model_code.h"
#include "core/train_service.h"
#include "data/archive.h"

namespace mmlib::core {

namespace {

constexpr int kMaxChainDepth = 4096;

}  // namespace

Result<Bytes> ModelRecoverer::FetchParamsPayload(const std::string& file_id) {
  // The per-chunk CRC-32 of the chunked frame catches payloads damaged in
  // flight; the stored copy is intact, so the cure is a re-fetch, not an
  // abort. Damage to the frame header itself (magic, sizes) is Corruption
  // too and heals the same way.
  return FetchDecoded(
      backends_.files, file_id,
      [this](Bytes raw) { return ChunkedUnframe(raw, backends_.pool); },
      &corruption_refetches_);
}

Result<size_t> ModelRecoverer::BaseChainLength(const std::string& id) {
  size_t length = 0;
  std::string current = id;
  while (true) {
    MMLIB_ASSIGN_OR_RETURN(json::Value doc,
                           backends_.docs->Get(kModelsCollection, current));
    const json::Value* base = doc.FindMember("base_model");
    if (base == nullptr || !base->is_string()) {
      return length;
    }
    current = base->as_string();
    if (++length > kMaxChainDepth) {
      return Status::Corruption("base model chain too long (cycle?)");
    }
  }
}

Result<nn::Model> ModelRecoverer::RecoverInternal(const std::string& id,
                                                  RecoverBreakdown* breakdown,
                                                  int depth) {
  if (depth > kMaxChainDepth) {
    return Status::Corruption("base model chain too long (cycle?)");
  }

  PhaseTimer doc_timer(backends_.network);
  MMLIB_ASSIGN_OR_RETURN(json::Value doc,
                         backends_.docs->Get(kModelsCollection, id));
  MMLIB_ASSIGN_OR_RETURN(std::string approach, doc.GetString("approach"));
  breakdown->load_seconds += doc_timer.ElapsedSeconds();

  // Full snapshot (baseline saves, and the initial model of PUA/MPA chains).
  if (doc.FindMember("params_file") != nullptr) {
    PhaseTimer load_timer(backends_.network);
    MMLIB_ASSIGN_OR_RETURN(std::string params_file,
                           doc.GetString("params_file"));
    MMLIB_ASSIGN_OR_RETURN(std::string code_id, doc.GetString("code_doc"));
    MMLIB_ASSIGN_OR_RETURN(json::Value code_doc,
                           backends_.docs->Get(kCodeCollection, code_id));
    MMLIB_ASSIGN_OR_RETURN(Bytes params, FetchParamsPayload(params_file));
    breakdown->load_seconds += load_timer.ElapsedSeconds();

    PhaseTimer recover_timer(backends_.network);
    MMLIB_ASSIGN_OR_RETURN(const json::Value* descriptor,
                           code_doc.GetMember("descriptor"));
    MMLIB_ASSIGN_OR_RETURN(nn::Model model,
                           BuildModelFromCode(*descriptor, params));
    breakdown->recover_seconds += recover_timer.ElapsedSeconds();
    return model;
  }

  // Derived model: recover the base first (recursive).
  const json::Value* base = doc.FindMember("base_model");
  if (base == nullptr || !base->is_string()) {
    return Status::Corruption("model " + id +
                              " has neither parameters nor a base model");
  }
  MMLIB_ASSIGN_OR_RETURN(
      nn::Model model, RecoverInternal(base->as_string(), breakdown,
                                       depth + 1));

  if (approach == kApproachParamUpdate) {
    PhaseTimer load_timer(backends_.network);
    MMLIB_ASSIGN_OR_RETURN(std::string update_file,
                           doc.GetString("update_file"));
    MMLIB_ASSIGN_OR_RETURN(Bytes update, FetchParamsPayload(update_file));
    breakdown->load_seconds += load_timer.ElapsedSeconds();

    PhaseTimer recover_timer(backends_.network);
    MMLIB_RETURN_IF_ERROR(model.MergeLayerSubset(update));
    breakdown->recover_seconds += recover_timer.ElapsedSeconds();
    return model;
  }

  if (approach == kApproachProvenance) {
    PhaseTimer load_timer(backends_.network);
    MMLIB_ASSIGN_OR_RETURN(std::string prov_id,
                           doc.GetString("provenance_doc"));
    MMLIB_ASSIGN_OR_RETURN(
        json::Value prov_doc,
        backends_.docs->Get(kProvenanceCollection, prov_id));

    Bytes optimizer_state;
    if (const json::Value* state_ref =
            prov_doc.FindMember("optimizer_state_file");
        state_ref != nullptr) {
      MMLIB_ASSIGN_OR_RETURN(optimizer_state,
                             backends_.files->LoadFile(state_ref->as_string()));
    }

    std::unique_ptr<data::Dataset> dataset;
    if (const json::Value* dataset_ref = prov_doc.FindMember("dataset_file");
        dataset_ref != nullptr) {
      // The archive's content-hash check detects in-flight damage; re-fetch
      // instead of aborting, like parameter payloads.
      MMLIB_ASSIGN_OR_RETURN(
          dataset,
          FetchDecoded(
              backends_.files, dataset_ref->as_string(),
              [](Bytes archive) {
                return data::DatasetArchiver::Extract(archive);
              },
              &corruption_refetches_));
    } else {
      if (dataset_resolver_ == nullptr) {
        return Status::FailedPrecondition(
            "model was saved with an external dataset manager but no "
            "DatasetResolver is configured");
      }
      MMLIB_ASSIGN_OR_RETURN(std::string name,
                             prov_doc.GetString("dataset_name"));
      MMLIB_ASSIGN_OR_RETURN(std::string hash,
                             prov_doc.GetString("dataset_ref"));
      MMLIB_ASSIGN_OR_RETURN(dataset, dataset_resolver_->Resolve(name, hash));
      if (dataset->ContentHash().ToHex() != hash) {
        return Status::Corruption("resolved dataset hash mismatch for " +
                                  name);
      }
    }
    breakdown->load_seconds += load_timer.ElapsedSeconds();

    // Reproduce the training step-by-step (deterministic execution).
    PhaseTimer recover_timer(backends_.network);
    MMLIB_ASSIGN_OR_RETURN(const json::Value* service_doc,
                           prov_doc.GetMember("train_service"));
    MMLIB_ASSIGN_OR_RETURN(
        std::unique_ptr<TrainService> service,
        RestoreTrainService(*service_doc, std::move(optimizer_state),
                            std::move(dataset)));
    MMLIB_RETURN_IF_ERROR(service
                              ->Train(&model, /*deterministic=*/true,
                                      /*scheduler_seed=*/0)
                              .status());
    breakdown->recover_seconds += recover_timer.ElapsedSeconds();
    return model;
  }

  return Status::Corruption("model " + id + ": unknown approach " + approach);
}

Result<RecoveredModel> ModelRecoverer::Recover(const std::string& id,
                                               const RecoverOptions& options) {
  RecoveredModel result;
  result.model_id = id;

  MMLIB_ASSIGN_OR_RETURN(nn::Model model,
                         RecoverInternal(id, &result.breakdown, 0));
  result.model = std::move(model);

  // Load the top-level document again for verification metadata (cheap: the
  // metadata documents are tiny compared to parameter payloads).
  MMLIB_ASSIGN_OR_RETURN(json::Value doc,
                         backends_.docs->Get(kModelsCollection, id));

  if (options.check_environment) {
    PhaseTimer env_timer(backends_.network);
    MMLIB_ASSIGN_OR_RETURN(std::string env_id, doc.GetString("env_doc"));
    MMLIB_ASSIGN_OR_RETURN(json::Value env_doc,
                           backends_.docs->Get(kEnvironmentsCollection,
                                               env_id));
    MMLIB_ASSIGN_OR_RETURN(env::EnvironmentInfo saved,
                           env::EnvironmentInfo::FromJson(env_doc));
    const env::EnvironmentInfo current = env::CollectEnvironment();
    result.environment_diffs = saved.DiffAgainst(current);
    result.environment_matches = result.environment_diffs.empty();
    result.breakdown.check_env_seconds += env_timer.ElapsedSeconds();
  }

  if (options.verify_checksum) {
    PhaseTimer verify_timer(backends_.network);
    MMLIB_ASSIGN_OR_RETURN(const json::Value* checksum,
                           doc.GetMember("checksum"));
    MMLIB_ASSIGN_OR_RETURN(std::string expected,
                           checksum->GetString("params_hash"));
    const std::string actual = result.model.ParamsHash().ToHex();
    result.breakdown.verify_seconds += verify_timer.ElapsedSeconds();
    if (actual != expected) {
      return Status::Corruption("model " + id +
                                ": recovered parameter hash mismatch");
    }
    result.checksum_verified = true;
  }

  return result;
}

}  // namespace mmlib::core
