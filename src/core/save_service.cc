#include "core/save_service.h"

#include "compress/chunked.h"

namespace mmlib::core {

Result<Bytes> SaveService::EncodeParams(const Bytes& params) const {
  return ChunkedFrame(params, CodecKind::kIdentity, kDefaultChunkSize,
                      backends_.pool);
}

Result<std::string> SaveService::SaveEnvironment(
    const env::EnvironmentInfo& info, SaveTransaction& txn) {
  return txn.Insert(kEnvironmentsCollection, info.ToJson());
}

Result<std::string> SaveService::SaveCode(const json::Value& code,
                                          SaveTransaction& txn) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("descriptor", code);
  return txn.Insert(kCodeCollection, std::move(doc));
}

Result<json::Value> SaveService::MakeModelDoc(const SaveRequest& request,
                                              SaveTransaction& txn,
                                              MerkleTree* tree_out) {
  if (request.model == nullptr || request.environment == nullptr) {
    return Status::InvalidArgument("SaveRequest requires model and env");
  }
  MMLIB_ASSIGN_OR_RETURN(std::string env_id,
                         SaveEnvironment(*request.environment, txn));
  MMLIB_ASSIGN_OR_RETURN(std::string code_id, SaveCode(request.code, txn));

  json::Value doc = json::Value::MakeObject();
  doc.Set("approach", std::string(approach()));
  if (request.base_model_id.empty()) {
    doc.Set("base_model", json::Value());
  } else {
    doc.Set("base_model", request.base_model_id);
  }
  doc.Set("env_doc", env_id);
  doc.Set("code_doc", code_id);
  doc.Set("architecture",
          request.model->ArchitectureFingerprint().ToHex());

  // Layer-hash Merkle tree: the root doubles as a cheap whole-model equality
  // checksum, and the persisted tree lets any later parameter-update save
  // find this model's changed layers without recovering its parameters
  // (paper Section 3.2).
  MMLIB_ASSIGN_OR_RETURN(MerkleTree tree,
                         request.model->BuildMerkleTree(backends_.pool));
  MMLIB_ASSIGN_OR_RETURN(std::string merkle_file,
                         txn.SaveFile(tree.Serialize()));
  doc.Set("merkle_file", merkle_file);

  // Model::ParamsHash() is by definition the hash of the per-layer digests,
  // which are exactly the tree's leaves — computing it from the tree avoids
  // hashing every parameter a second time.
  Sha256 params_hasher;
  for (size_t i = 0; i < tree.leaf_count(); ++i) {
    params_hasher.Update(tree.leaf(i).bytes.data(),
                         tree.leaf(i).bytes.size());
  }
  json::Value checksum = json::Value::MakeObject();
  checksum.Set("params_hash", params_hasher.Finish().ToHex());
  checksum.Set("merkle_root", tree.root().ToHex());
  doc.Set("checksum", std::move(checksum));
  if (tree_out != nullptr) {
    *tree_out = std::move(tree);
  }
  return doc;
}

}  // namespace mmlib::core
