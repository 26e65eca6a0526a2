/// Google-benchmark micro suite for the substrate libraries: hashing,
/// serialization, compression, JSON, document store, Merkle trees, and
/// deterministic-vs-plain convolution kernels.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "data/archive.h"
#include "data/dataset.h"
#include "docstore/document_store.h"
#include "hash/merkle_tree.h"
#include "hash/sha256.h"
#include "json/json.h"
#include "nn/conv2d.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

Bytes RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = RandomBytes(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Range(1 << 10, 1 << 22);

void BM_Crc32(benchmark::State& state) {
  const Bytes data = RandomBytes(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Range(1 << 10, 1 << 22);

/// Chunked framing of a 4 MiB snapshot-sized payload with the identity
/// codec (the parameter codec of every save) in default 1 MiB chunks, on a
/// one-thread pool like perfbench's.
constexpr size_t kFramePayload = size_t{4} << 20;

void BM_ChunkedFrame(benchmark::State& state) {
  const Bytes data = RandomBytes(kFramePayload, 7);
  util::ThreadPool pool(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ChunkedFrame(data, CodecKind::kIdentity, kDefaultChunkSize, &pool));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ChunkedFrame);

void BM_ChunkedUnframe(benchmark::State& state) {
  util::ThreadPool pool(1);
  const Bytes frame = ChunkedFrame(RandomBytes(kFramePayload, 8),
                                   CodecKind::kIdentity, kDefaultChunkSize,
                                   &pool)
                          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChunkedUnframe(frame, &pool));
  }
  state.SetBytesProcessed(state.iterations() * kFramePayload);
}
BENCHMARK(BM_ChunkedUnframe);

void BM_SerializeParams(benchmark::State& state) {
  // ResNet-152 at the retraining figures' scale: ~4 MB of parameters.
  const nn::Model model =
      models::BuildModel(
          bench::TrainScaleModel(models::Architecture::kResNet152))
          .value();
  size_t bytes = 0;
  for (auto _ : state) {
    const Bytes params = model.SerializeParams();
    bytes = params.size();
    benchmark::DoNotOptimize(params.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_SerializeParams);

void BM_TensorSerialize(benchmark::State& state) {
  Rng rng(3);
  const Tensor tensor =
      Tensor::Gaussian(Shape{state.range(0)}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor.Serialize());
  }
  state.SetBytesProcessed(state.iterations() * tensor.byte_size());
}
BENCHMARK(BM_TensorSerialize)->Range(1 << 12, 1 << 20);

void BM_TensorContentHash(benchmark::State& state) {
  Rng rng(4);
  const Tensor tensor =
      Tensor::Gaussian(Shape{state.range(0)}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor.ContentHash());
  }
  state.SetBytesProcessed(state.iterations() * tensor.byte_size());
}
BENCHMARK(BM_TensorContentHash)->Range(1 << 12, 1 << 20);

void BM_Lz77Compress(benchmark::State& state) {
  // Text-like payload: repeated vocabulary.
  Bytes data;
  Rng rng(5);
  const std::string words[] = {"baseline ", "update ", "provenance ",
                               "recover ", "model "};
  while (data.size() < static_cast<size_t>(state.range(0))) {
    const std::string& w = words[rng.NextBelow(5)];
    data.insert(data.end(), w.begin(), w.end());
  }
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Compress(data));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Lz77Compress)->Range(1 << 14, 1 << 20);

void BM_DatasetArchive(benchmark::State& state) {
  // Photo-like payload: the LZ77 archive of CO-512 at byte divisor 512
  // (140,832 payload bytes) that every MPA save of perfbench's mpa_replay
  // writes.
  const auto dataset = data::Materialize(data::SyntheticImageDataset(
      data::PaperDatasetId::kCocoOutdoor512, 512));
  const data::DatasetArchiver archiver(Codec::ForKind(CodecKind::kLz77));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        archiver.Archive(*dataset, dataset->ContentHash()));
  }
  state.SetBytesProcessed(state.iterations() * dataset->TotalByteSize());
}
BENCHMARK(BM_DatasetArchive)->Unit(benchmark::kMillisecond);

void BM_JsonParse(benchmark::State& state) {
  json::Value doc = json::Value::MakeObject();
  for (int i = 0; i < 64; ++i) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("layer", "layer" + std::to_string(i));
    entry.Set("params", i * 1000);
    entry.Set("hash", std::string(64, 'a'));
    doc.Set("k" + std::to_string(i), std::move(entry));
  }
  const std::string text = doc.Dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::Parse(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_JsonParse);

void BM_DocStoreInsertGet(benchmark::State& state) {
  docstore::InMemoryDocumentStore store;
  json::Value doc = json::Value::MakeObject();
  doc.Set("approach", "baseline");
  doc.Set("checksum", std::string(64, 'f'));
  for (auto _ : state) {
    const std::string id = store.Insert("models", doc).value();
    benchmark::DoNotOptimize(store.Get("models", id));
  }
}
BENCHMARK(BM_DocStoreInsertGet);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Digest> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Build(leaves));
  }
}
BENCHMARK(BM_MerkleBuild)->Range(8, 512);

void BM_MerkleDiff(benchmark::State& state) {
  std::vector<Digest> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash("leaf" + std::to_string(i)));
  }
  const MerkleTree before = MerkleTree::Build(leaves).value();
  leaves.back() = Sha256::Hash("changed");
  const MerkleTree after = MerkleTree::Build(leaves).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Diff(before, after));
  }
}
BENCHMARK(BM_MerkleDiff)->Range(8, 512);

void ConvForward(benchmark::State& state, bool deterministic,
                 int64_t kernel) {
  Rng rng(6);
  nn::Conv2d conv("c", 16, 16, kernel, 1, kernel / 2, 1, &rng);
  const Tensor input = Tensor::Gaussian(Shape{1, 16, 14, 14}, 1.0f, &rng);
  for (auto _ : state) {
    nn::ExecutionContext ctx =
        deterministic ? nn::ExecutionContext::Deterministic(1)
                      : nn::ExecutionContext::NonDeterministic(1, 2);
    benchmark::DoNotOptimize(conv.Forward({&input}, &ctx));
  }
}

void BM_Conv3x3_Plain(benchmark::State& state) {
  ConvForward(state, false, 3);
}
void BM_Conv3x3_Deterministic(benchmark::State& state) {
  ConvForward(state, true, 3);
}
void BM_Conv1x1_Plain(benchmark::State& state) {
  ConvForward(state, false, 1);
}
void BM_Conv1x1_Deterministic(benchmark::State& state) {
  ConvForward(state, true, 1);
}
BENCHMARK(BM_Conv3x3_Plain);
BENCHMARK(BM_Conv3x3_Deterministic);
BENCHMARK(BM_Conv1x1_Plain);
BENCHMARK(BM_Conv1x1_Deterministic);

}  // namespace
}  // namespace mmlib

BENCHMARK_MAIN();
