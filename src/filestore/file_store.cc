#include "filestore/file_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "check/validators.h"
#include "util/crash_point.h"
#include "util/fs.h"
#include "util/strings.h"

namespace mmlib::filestore {

namespace {

/// Suffix of persisted file-store entries; only these count as stored data.
constexpr const char* kBinSuffix = ".bin";

}  // namespace

Result<Digest> FileStore::ContentDigest(const std::string& id) {
  MMLIB_ASSIGN_OR_RETURN(Bytes content, LoadFile(id));
  return Sha256::Hash(content);
}

InMemoryFileStore::InMemoryFileStore() : id_generator_(0xf17e) {}

Result<std::string> InMemoryFileStore::SaveFile(const Bytes& content) {
  const std::string id = id_generator_.Next("file");
  files_[id] = content;
  return id;
}

Result<std::string> InMemoryFileStore::AllocateFileId() {
  return id_generator_.Next("file");
}

Status InMemoryFileStore::WriteAllocated(const std::string& id,
                                         const Bytes& content) {
  files_[id] = content;
  return Status::OK();
}

Result<Bytes> InMemoryFileStore::LoadFile(const std::string& id) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("no file " + id);
  }
  return it->second;
}

Status InMemoryFileStore::Delete(const std::string& id) {
  if (files_.erase(id) == 0) {
    return Status::NotFound("no file " + id);
  }
  return Status::OK();
}

Result<size_t> InMemoryFileStore::FileSize(const std::string& id) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("no file " + id);
  }
  return it->second.size();
}

Result<std::vector<std::string>> InMemoryFileStore::ListFileIds() {
  std::vector<std::string> ids;
  ids.reserve(files_.size());
  for (const auto& [id, content] : files_) {
    ids.push_back(id);
  }
  return ids;  // std::map iterates in sorted key order
}

size_t InMemoryFileStore::TotalStoredBytes() const {
  size_t total = 0;
  for (const auto& [id, content] : files_) {
    total += content.size();
  }
  return total;
}

LocalDirFileStore::LocalDirFileStore(std::string root)
    : root_(std::move(root)), id_generator_(0xf17f) {}

Result<std::unique_ptr<LocalDirFileStore>> LocalDirFileStore::Open(
    const std::string& root, persist::SaveJournal* journal) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return Status::IoError("cannot create " + root + ": " + ec.message());
  }
  std::unique_ptr<LocalDirFileStore> store(new LocalDirFileStore(root));
  // Leftover temporaries are writes that died before their rename; they
  // were never visible as stored data, discard them.
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (EndsWith(entry.path().filename().string(), util::kTmpSuffix)) {
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
  if (journal != nullptr) {
    MMLIB_RETURN_IF_ERROR(journal->Replay(
        persist::kJournalFileStore, [&store](const persist::JournalOp& op) {
          return store->Delete(op.id);
        }));
  }
  return store;
}

Result<std::string> LocalDirFileStore::PathFor(const std::string& id) const {
  MMLIB_RETURN_IF_ERROR(
      check::ValidateResourceName(id, /*allow_dot=*/false, "file id"));
  return root_ + "/" + id + kBinSuffix;
}

Result<std::string> LocalDirFileStore::SaveFile(const Bytes& content) {
  MMLIB_ASSIGN_OR_RETURN(std::string id, AllocateFileId());
  MMLIB_RETURN_IF_ERROR(WriteAllocated(id, content));
  return id;
}

Result<std::string> LocalDirFileStore::AllocateFileId() {
  std::string id = id_generator_.Next("file");
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(id));
  // A reopened store restarts the deterministic id stream at zero; skip
  // ids whose destination already exists instead of overwriting them.
  while (std::filesystem::exists(path)) {
    id = id_generator_.Next("file");
    MMLIB_ASSIGN_OR_RETURN(path, PathFor(id));
  }
  return id;
}

Status LocalDirFileStore::WriteAllocated(const std::string& id,
                                         const Bytes& content) {
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(id));
  MMLIB_CRASH_POINT("filestore.write");
  return util::AtomicWriteFile(path, content.data(), content.size());
}

Result<Bytes> LocalDirFileStore::LoadFile(const std::string& id) {
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(id));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no file " + id);
  }
  in.seekg(0, std::ios::end);
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size < 0) {
    // tellg() reports -1 on failure; without this check the cast below
    // requests a SIZE_MAX-byte allocation.
    return Status::IoError("cannot determine size of " + path);
  }
  Bytes content(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(content.data()), size);
  if (!in) {
    return Status::IoError("failed reading " + path);
  }
  return content;
}

Status LocalDirFileStore::Delete(const std::string& id) {
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(id));
  return util::RemoveFileStrict(path, "file " + id);
}

Result<size_t> LocalDirFileStore::FileSize(const std::string& id) {
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(id));
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::NotFound("no file " + id);
  }
  return static_cast<size_t>(size);
}

Result<std::vector<std::string>> LocalDirFileStore::ListFileIds() {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    const std::string name = entry.path().filename().string();
    if (EndsWith(name, kBinSuffix)) {
      ids.push_back(name.substr(0, name.size() - std::strlen(kBinSuffix)));
    }
  }
  if (ec) {
    return Status::IoError("cannot list " + root_ + ": " + ec.message());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t LocalDirFileStore::TotalStoredBytes() const {
  return util::TotalBytesWithSuffix(root_, kBinSuffix);
}

size_t LocalDirFileStore::FileCount() const {
  return util::CountFilesWithSuffix(root_, kBinSuffix);
}

using simnet::Reply;

Result<std::string> RemoteFileStore::SaveFile(const Bytes& content) {
  return endpoint_.Call<Reply::kAck>("file.save", content.size(), [&] {
    return backend_->SaveFile(content);
  });
}

Result<std::string> RemoteFileStore::AllocateFileId() {
  // A lost request burns an id on the backend's generator; ids are never
  // reused, so a re-sent allocation is harmless.
  return endpoint_.Call<Reply::kAck>(
      "file.alloc", simnet::kScalarResponseBytes,
      [&] { return backend_->AllocateFileId(); });
}

Status RemoteFileStore::WriteAllocated(const std::string& id,
                                       const Bytes& content) {
  // Writing a pre-allocated id is idempotent (same id, same content), so
  // unlike SaveFile a retried upload cannot create a duplicate.
  return endpoint_.Call<Reply::kAck>(
      "file.write", id.size() + content.size(),
      [&] { return backend_->WriteAllocated(id, content); });
}

Result<Bytes> RemoteFileStore::LoadFile(const std::string& id) {
  return endpoint_.Call<Reply::kDamaged>(
      "file.load", id.size(), [&] { return backend_->LoadFile(id); });
}

Status RemoteFileStore::Delete(const std::string& id) {
  return endpoint_.Call<Reply::kAck>("file.delete", id.size(),
                                     [&] { return backend_->Delete(id); });
}

Result<size_t> RemoteFileStore::FileSize(const std::string& id) {
  return endpoint_.Call<Reply::kChecked>(
      "file.size", id.size(), [&] { return backend_->FileSize(id); });
}

Result<std::vector<std::string>> RemoteFileStore::ListFileIds() {
  return endpoint_.Call<Reply::kChecked>(
      "file.list", simnet::kScalarResponseBytes,
      [&] { return backend_->ListFileIds(); });
}

Result<Digest> RemoteFileStore::ContentDigest(const std::string& id) {
  // The server hashes where the bytes live; only the 32-byte digest
  // travels. This is what makes anti-entropy probes cheap.
  return endpoint_.Call<Reply::kChecked>(
      "file.digest", id.size(), [&] { return backend_->ContentDigest(id); });
}

size_t RemoteFileStore::TotalStoredBytes() const {
  return endpoint_.Query([&] { return backend_->TotalStoredBytes(); });
}

size_t RemoteFileStore::FileCount() const {
  return endpoint_.Query([&] { return backend_->FileCount(); });
}

}  // namespace mmlib::filestore
