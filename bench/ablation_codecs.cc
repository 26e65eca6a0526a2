/// Ablation (paper Section 3.3, "Managing Data sets"): codec choice for
/// archiving a training dataset to a single file — size and time trade-off.
#include <cstdio>

#include "bench/bench_common.h"
#include "compress/codec.h"
#include "data/archive.h"
#include "util/clock.h"

using namespace mmlib;
using namespace mmlib::bench;

int main() {
  PrintHeader("Ablation", "Dataset-archive codec choice",
              "Archiving CF-512 (1/64 scale) with each codec.");

  data::SyntheticImageDataset dataset(data::PaperDatasetId::kCocoFood512,
                                      data::kDefaultDatasetDivisor);
  const size_t raw = dataset.TotalByteSize();
  std::printf("raw dataset payload: %s\n\n", Mb(raw).c_str());

  TablePrinter table({"codec", "archive size", "ratio", "archive time",
                      "extract time"});
  for (CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kLz77, CodecKind::kLz77Huffman}) {
    const Codec* codec = Codec::ForKind(kind);
    data::DatasetArchiver archiver(codec);

    Stopwatch archive_watch;
    const Bytes archive =
        archiver.Archive(dataset, dataset.ContentHash()).value();
    const double archive_seconds = archive_watch.ElapsedSeconds();

    Stopwatch extract_watch;
    auto restored = data::DatasetArchiver::Extract(archive).value();
    const double extract_seconds = extract_watch.ElapsedSeconds();
    if (restored->ContentHash() != dataset.ContentHash()) {
      std::fprintf(stderr, "extract mismatch for %s\n",
                   std::string(codec->name()).c_str());
      return 1;
    }

    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2f",
                  static_cast<double>(archive.size()) / raw);
    table.AddRow({std::string(codec->name()), Mb(archive.size()), ratio,
                  Secs(archive_seconds), Secs(extract_seconds)});
  }
  table.Print(std::cout);
  std::printf(
      "\nLZ77 (the MPA default) trades archive time for the smallest\n"
      "dataset payload — the term that dominates MPA storage and TTS.\n");
  return 0;
}
