#include "traced_stores.h"

#include <utility>

namespace perfbench {

using mmlib::Bytes;
using mmlib::Digest;
using mmlib::Result;
using mmlib::Status;

Result<std::string> TracedFileStore::SaveFile(const Bytes& content) {
  ScopedSpan span(tracer_, "filestore.SaveFile");
  ++counters_.calls;
  counters_.bytes_written += content.size();
  return inner_->SaveFile(content);
}

Result<std::string> TracedFileStore::AllocateFileId() {
  ScopedSpan span(tracer_, "filestore.AllocateFileId");
  ++counters_.calls;
  return inner_->AllocateFileId();
}

Status TracedFileStore::WriteAllocated(const std::string& id,
                                       const Bytes& content) {
  ScopedSpan span(tracer_, "filestore.WriteAllocated");
  ++counters_.calls;
  counters_.bytes_written += content.size();
  return inner_->WriteAllocated(id, content);
}

Result<Bytes> TracedFileStore::LoadFile(const std::string& id) {
  ScopedSpan span(tracer_, "filestore.LoadFile");
  ++counters_.calls;
  Result<Bytes> content = inner_->LoadFile(id);
  if (content.ok()) {
    counters_.bytes_read += content.value().size();
  }
  return content;
}

Status TracedFileStore::Delete(const std::string& id) {
  ScopedSpan span(tracer_, "filestore.Delete");
  ++counters_.calls;
  return inner_->Delete(id);
}

Result<size_t> TracedFileStore::FileSize(const std::string& id) {
  ScopedSpan span(tracer_, "filestore.FileSize");
  ++counters_.calls;
  return inner_->FileSize(id);
}

Result<std::vector<std::string>> TracedFileStore::ListFileIds() {
  ScopedSpan span(tracer_, "filestore.ListFileIds");
  ++counters_.calls;
  return inner_->ListFileIds();
}

Result<Digest> TracedFileStore::ContentDigest(const std::string& id) {
  ScopedSpan span(tracer_, "filestore.ContentDigest");
  ++counters_.calls;
  return inner_->ContentDigest(id);
}

void TracedFileStore::ReportDamaged(const std::string& id) {
  ScopedSpan span(tracer_, "filestore.ReportDamaged");
  ++counters_.calls;
  inner_->ReportDamaged(id);
}

size_t TracedFileStore::TotalStoredBytes() const {
  ScopedSpan span(tracer_, "filestore.TotalStoredBytes");
  ++counters_.calls;
  return inner_->TotalStoredBytes();
}

size_t TracedFileStore::FileCount() const {
  ScopedSpan span(tracer_, "filestore.FileCount");
  ++counters_.calls;
  return inner_->FileCount();
}

Result<std::string> TracedDocumentStore::Insert(const std::string& collection,
                                                mmlib::json::Value doc) {
  ScopedSpan span(tracer_, "docstore.Insert");
  ++counters_.calls;
  return inner_->Insert(collection, std::move(doc));
}

Result<std::string> TracedDocumentStore::AllocateDocId(
    const std::string& collection) {
  ScopedSpan span(tracer_, "docstore.AllocateDocId");
  ++counters_.calls;
  return inner_->AllocateDocId(collection);
}

Status TracedDocumentStore::InsertWithId(const std::string& collection,
                                         const std::string& id,
                                         mmlib::json::Value doc) {
  ScopedSpan span(tracer_, "docstore.InsertWithId");
  ++counters_.calls;
  return inner_->InsertWithId(collection, id, std::move(doc));
}

Result<mmlib::json::Value> TracedDocumentStore::Get(
    const std::string& collection, const std::string& id) {
  ScopedSpan span(tracer_, "docstore.Get");
  ++counters_.calls;
  return inner_->Get(collection, id);
}

Status TracedDocumentStore::Delete(const std::string& collection,
                                   const std::string& id) {
  ScopedSpan span(tracer_, "docstore.Delete");
  ++counters_.calls;
  return inner_->Delete(collection, id);
}

Result<std::vector<std::string>> TracedDocumentStore::ListIds(
    const std::string& collection) {
  ScopedSpan span(tracer_, "docstore.ListIds");
  ++counters_.calls;
  return inner_->ListIds(collection);
}

Result<std::vector<std::string>> TracedDocumentStore::FindByField(
    const std::string& collection, const std::string& key,
    const std::string& value) {
  ScopedSpan span(tracer_, "docstore.FindByField");
  ++counters_.calls;
  return inner_->FindByField(collection, key, value);
}

Result<std::vector<std::string>> TracedDocumentStore::ListCollections() {
  ScopedSpan span(tracer_, "docstore.ListCollections");
  ++counters_.calls;
  return inner_->ListCollections();
}

Result<Digest> TracedDocumentStore::DocumentDigest(
    const std::string& collection, const std::string& id) {
  ScopedSpan span(tracer_, "docstore.DocumentDigest");
  ++counters_.calls;
  return inner_->DocumentDigest(collection, id);
}

size_t TracedDocumentStore::TotalStoredBytes() const {
  ScopedSpan span(tracer_, "docstore.TotalStoredBytes");
  ++counters_.calls;
  return inner_->TotalStoredBytes();
}

size_t TracedDocumentStore::DocumentCount() const {
  ScopedSpan span(tracer_, "docstore.DocumentCount");
  ++counters_.calls;
  return inner_->DocumentCount();
}

}  // namespace perfbench
