#include "core/export.h"

#include "core/model_code.h"
#include "hash/sha256.h"

namespace mmlib::core {

namespace {
constexpr int kFormatVersion = 1;
}  // namespace

Bytes PortableBundle::Serialize() const {
  BytesWriter writer;
  writer.WriteString(manifest.Dump());
  writer.WriteBlob(parameters);
  return writer.TakeBytes();
}

Result<PortableBundle> PortableBundle::Deserialize(const Bytes& data) {
  BytesReader reader(data);
  MMLIB_ASSIGN_OR_RETURN(std::string manifest_text, reader.ReadString());
  PortableBundle bundle;
  MMLIB_ASSIGN_OR_RETURN(bundle.manifest, json::Parse(manifest_text));
  MMLIB_ASSIGN_OR_RETURN(bundle.parameters, reader.ReadBlob());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after portable bundle");
  }
  return bundle;
}

Result<PortableBundle> ExportPortable(const nn::Model& model,
                                      const json::Value& code) {
  PortableBundle bundle;
  bundle.parameters = model.SerializeParams();

  json::Value manifest = json::Value::MakeObject();
  manifest.Set("format", "mmlib-portable");
  manifest.Set("version", kFormatVersion);
  manifest.Set("code", code);
  manifest.Set("architecture", model.ArchitectureFingerprint().ToHex());
  manifest.Set("params_hash", model.ParamsHash().ToHex());
  manifest.Set("params_bytes", static_cast<int64_t>(
                                   bundle.parameters.size()));
  bundle.manifest = std::move(manifest);
  return bundle;
}

Result<nn::Model> ImportPortable(const PortableBundle& bundle) {
  MMLIB_ASSIGN_OR_RETURN(std::string format,
                         bundle.manifest.GetString("format"));
  if (format != "mmlib-portable") {
    return Status::InvalidArgument("not a portable model bundle");
  }
  MMLIB_ASSIGN_OR_RETURN(int64_t version, bundle.manifest.GetInt("version"));
  if (version != kFormatVersion) {
    return Status::Unimplemented("unsupported bundle version " +
                                 std::to_string(version));
  }
  MMLIB_ASSIGN_OR_RETURN(const json::Value* code,
                         bundle.manifest.GetMember("code"));
  MMLIB_ASSIGN_OR_RETURN(nn::Model model,
                         BuildModelFromCode(*code, bundle.parameters));

  MMLIB_ASSIGN_OR_RETURN(std::string expected_arch,
                         bundle.manifest.GetString("architecture"));
  if (model.ArchitectureFingerprint().ToHex() != expected_arch) {
    return Status::Corruption("bundle architecture fingerprint mismatch");
  }
  MMLIB_ASSIGN_OR_RETURN(std::string expected_hash,
                         bundle.manifest.GetString("params_hash"));
  if (model.ParamsHash().ToHex() != expected_hash) {
    return Status::Corruption("bundle parameter hash mismatch");
  }
  return model;
}

}  // namespace mmlib::core
