#pragma once

#include <memory>
#include <string>

#include "compress/codec.h"
#include "data/dataset.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mmlib::data {

/// Compresses a dataset into a single self-contained file and restores it.
///
/// This implements the paper's dataset handling for the model provenance
/// approach (Section 3.3 "Managing Data sets": "MMlib compresses datasets to
/// a file, saves the file, and references it in the provenance data").
class DatasetArchiver {
 public:
  explicit DatasetArchiver(const Codec* codec) : codec_(codec) {}

  /// Serializes every image and label of `dataset` and compresses the
  /// payload with the configured codec. The archive embeds the dataset name
  /// and `content_hash`, which must be dataset.ContentHash() (callers have
  /// it already), for post-extraction verification.
  Result<Bytes> Archive(const Dataset& dataset,
                        const Digest& content_hash) const;

  /// Restores the dataset from an archive; verifies the embedded content
  /// hash and fails with Corruption on any mismatch.
  static Result<std::unique_ptr<InMemoryDataset>> Extract(
      const Bytes& archive);

 private:
  const Codec* codec_;
};

}  // namespace mmlib::data

