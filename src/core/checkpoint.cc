#include "core/checkpoint.h"

#include <utility>
#include <vector>

#include "core/save_txn.h"
#include "json/json.h"
#include "simnet/network.h"
#include "util/crash_point.h"

namespace mmlib::core {

namespace {

constexpr uint32_t kStateMagic = 0x4d4d434bu;  // "MMCK"
constexpr uint32_t kStateVersion = 1;

/// Binary state file: exact u64/f32 round-trips for the RNG words, which a
/// JSON double could not represent.
Bytes EncodeState(const TrainCheckpoint& checkpoint) {
  BytesWriter writer;
  writer.WriteU32(kStateMagic);
  writer.WriteU32(kStateVersion);
  writer.WriteI64(checkpoint.step);
  writer.WriteI64(checkpoint.epoch);
  writer.WriteI64(checkpoint.next_batch);
  for (uint64_t word : checkpoint.rng.s) {
    writer.WriteU64(word);
  }
  writer.WriteU8(checkpoint.rng.have_cached_gaussian ? 1 : 0);
  writer.WriteF32(checkpoint.rng.cached_gaussian);
  writer.WriteF32(checkpoint.last_loss);
  writer.WriteBlob(checkpoint.optimizer_state);
  return writer.TakeBytes();
}

Status DecodeState(const Bytes& data, TrainCheckpoint* out) {
  BytesReader reader(data);
  MMLIB_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  MMLIB_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (magic != kStateMagic || version != kStateVersion) {
    return Status::Corruption("not a checkpoint state file");
  }
  MMLIB_ASSIGN_OR_RETURN(out->step, reader.ReadI64());
  MMLIB_ASSIGN_OR_RETURN(out->epoch, reader.ReadI64());
  MMLIB_ASSIGN_OR_RETURN(out->next_batch, reader.ReadI64());
  for (uint64_t& word : out->rng.s) {
    MMLIB_ASSIGN_OR_RETURN(word, reader.ReadU64());
  }
  MMLIB_ASSIGN_OR_RETURN(uint8_t have_gaussian, reader.ReadU8());
  out->rng.have_cached_gaussian = have_gaussian != 0;
  MMLIB_ASSIGN_OR_RETURN(out->rng.cached_gaussian, reader.ReadF32());
  MMLIB_ASSIGN_OR_RETURN(out->last_loss, reader.ReadF32());
  MMLIB_ASSIGN_OR_RETURN(out->optimizer_state, reader.ReadBlob());
  return Status::OK();
}

}  // namespace

CheckpointManager::CheckpointManager(const StorageBackends& backends,
                                     int64_t every_steps)
    : backends_(backends), every_steps_(every_steps) {}

void CheckpointManager::ChargeCompute(double seconds) {
  if (seconds > 0.0 && backends_.network != nullptr) {
    backends_.network->ChargeSeconds(seconds);
  }
}

Result<std::string> CheckpointManager::Write(
    const TrainCheckpoint& checkpoint) {
  SaveTransaction txn(backends_);
  MMLIB_CRASH_POINT("checkpoint.write");
  MMLIB_ASSIGN_OR_RETURN(std::string params_file,
                         txn.SaveFile(checkpoint.model_params));
  MMLIB_ASSIGN_OR_RETURN(std::string state_file,
                         txn.SaveFile(EncodeState(checkpoint)));
  json::Value doc = json::Value::MakeObject();
  doc.Set("kind", "checkpoint");
  doc.Set("run_id", checkpoint.run_id);
  doc.Set("step", checkpoint.step);
  doc.Set("params_file", params_file);
  doc.Set("state_file", state_file);
  MMLIB_ASSIGN_OR_RETURN(std::string doc_id,
                         txn.Insert(kCheckpointsCollection, std::move(doc)));
  MMLIB_RETURN_IF_ERROR(txn.Commit());
  ++checkpoints_written_;

  // Older checkpoints of the run are superseded the moment the new one is
  // durable. Pruning after the commit is crash-safe in the lazy sense: a
  // kill mid-prune leaves stale-but-complete checkpoints that the next
  // prune or DeleteRun removes, never a dangling latest.
  MMLIB_ASSIGN_OR_RETURN(
      std::vector<std::string> ids,
      backends_.docs->FindByField(kCheckpointsCollection, "run_id",
                                  checkpoint.run_id));
  for (const std::string& id : ids) {
    if (id != doc_id) {
      MMLIB_RETURN_IF_ERROR(DeleteCheckpointDoc(id));
    }
  }
  return doc_id;
}

Status CheckpointManager::DeleteCheckpointDoc(const std::string& doc_id) {
  MMLIB_ASSIGN_OR_RETURN(json::Value doc,
                         backends_.docs->Get(kCheckpointsCollection, doc_id));
  MMLIB_ASSIGN_OR_RETURN(std::string params_file,
                         doc.GetString("params_file"));
  MMLIB_ASSIGN_OR_RETURN(std::string state_file, doc.GetString("state_file"));
  for (const std::string& file_id : {params_file, state_file}) {
    const Status status = backends_.files->Delete(file_id);
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      return status;
    }
  }
  return backends_.docs->Delete(kCheckpointsCollection, doc_id);
}

Result<bool> CheckpointManager::LoadLatest(const std::string& run_id,
                                           TrainCheckpoint* out) {
  MMLIB_ASSIGN_OR_RETURN(
      std::vector<std::string> ids,
      backends_.docs->FindByField(kCheckpointsCollection, "run_id", run_id));
  // The scan keeps the winning document, so resuming reads it once.
  json::Value best;
  int64_t best_step = -1;
  for (const std::string& id : ids) {
    MMLIB_ASSIGN_OR_RETURN(json::Value doc,
                           backends_.docs->Get(kCheckpointsCollection, id));
    MMLIB_ASSIGN_OR_RETURN(int64_t step, doc.GetInt("step"));
    if (step > best_step) {
      best_step = step;
      best = std::move(doc);
    }
  }
  if (best_step < 0) {
    return false;
  }
  MMLIB_ASSIGN_OR_RETURN(std::string params_file,
                         best.GetString("params_file"));
  MMLIB_ASSIGN_OR_RETURN(std::string state_file, best.GetString("state_file"));
  out->run_id = run_id;
  MMLIB_ASSIGN_OR_RETURN(out->model_params,
                         backends_.files->LoadFile(params_file));
  MMLIB_ASSIGN_OR_RETURN(Bytes state, backends_.files->LoadFile(state_file));
  MMLIB_RETURN_IF_ERROR(DecodeState(state, out));
  return true;
}

Status CheckpointManager::DeleteRun(const std::string& run_id) {
  MMLIB_ASSIGN_OR_RETURN(
      std::vector<std::string> ids,
      backends_.docs->FindByField(kCheckpointsCollection, "run_id", run_id));
  for (const std::string& id : ids) {
    MMLIB_RETURN_IF_ERROR(DeleteCheckpointDoc(id));
  }
  return Status::OK();
}

}  // namespace mmlib::core
