#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/preprocess.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/result.h"

namespace mmlib::data {

/// One training batch.
struct Batch {
  Tensor images;                // [N, 3, H, W], float in [-0.5, 0.5]
  std::vector<int64_t> labels;  // size N, in [0, num_classes)
};

/// Configuration of a DataLoader. The loader is a *stateless* parametrized
/// object in the paper's provenance terminology (Section 3.3): recreating it
/// with the same options over the same dataset reproduces the exact same
/// batch sequence.
struct DataLoaderOptions {
  int64_t batch_size = 16;
  int64_t image_size = 56;    // images are resized to image_size^2
  int64_t num_classes = 250;  // labels are mapped into [0, num_classes)
  bool shuffle = true;
  bool augment = false;       // random horizontal flip
  uint64_t seed = 1;          // shuffle/augmentation seed
  /// Crop/normalization pipeline (tracked provenance, see data/preprocess.h).
  PreprocessorConfig preprocess;
};

/// Deterministic batched loader with nearest-neighbor resize, label
/// remapping, normalization, optional seeded shuffle and flip augmentation.
class DataLoader {
 public:
  DataLoader(const Dataset* dataset, DataLoaderOptions options);

  const Dataset* dataset() const { return dataset_; }

  /// Number of batches per epoch (last partial batch included).
  size_t BatchesPerEpoch() const;

  /// Starts epoch `epoch`; reshuffles deterministically from (seed, epoch).
  void StartEpoch(uint64_t epoch);

  /// Loads batch `batch_index` of the current epoch.
  Result<Batch> GetBatch(size_t batch_index) const;

  /// Fills `out` with batch `batch_index` of the current epoch, reusing its
  /// existing tensor/label storage when the shapes match — the allocation-
  /// free path the training loop fills its one batch through. Contents are
  /// identical to GetBatch(batch_index).
  Status FillBatch(size_t batch_index, Batch* out) const;

 private:
  const Dataset* dataset_;
  DataLoaderOptions options_;
  Preprocessor preprocessor_;
  std::vector<size_t> order_;
  uint64_t epoch_ = 0;
};

}  // namespace mmlib::data

