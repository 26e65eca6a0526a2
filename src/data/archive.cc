#include "data/archive.h"

#include <cstring>

namespace mmlib::data {

Result<Bytes> DatasetArchiver::Archive(const Dataset& dataset,
                                       const Digest& content_hash) const {
  BytesWriter payload;
  payload.WriteString(dataset.name());
  payload.WriteU64(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Image image = dataset.GetImage(i);
    payload.WriteI64(image.height);
    payload.WriteI64(image.width);
    payload.WriteI64(image.label);
    payload.WriteBlob(image.pixels.data(), image.pixels.size());
  }

  BytesWriter archive;
  archive.WriteRaw(content_hash.bytes.data(), content_hash.bytes.size());
  MMLIB_ASSIGN_OR_RETURN(Bytes framed, codec_->Frame(payload.bytes()));
  archive.WriteBlob(framed);
  return archive.TakeBytes();
}

Result<std::unique_ptr<InMemoryDataset>> DatasetArchiver::Extract(
    const Bytes& archive) {
  BytesReader reader(archive);
  Digest expected_hash;
  MMLIB_RETURN_IF_ERROR(
      reader.ReadRaw(expected_hash.bytes.data(), expected_hash.bytes.size()));
  MMLIB_ASSIGN_OR_RETURN(Bytes framed, reader.ReadBlob());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after dataset archive");
  }
  MMLIB_ASSIGN_OR_RETURN(Bytes payload, Codec::Unframe(framed));

  BytesReader body(payload);
  MMLIB_ASSIGN_OR_RETURN(std::string name, body.ReadString());
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, body.ReadU64());
  std::vector<Image> images;
  images.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Image image;
    MMLIB_ASSIGN_OR_RETURN(image.height, body.ReadI64());
    MMLIB_ASSIGN_OR_RETURN(image.width, body.ReadI64());
    MMLIB_ASSIGN_OR_RETURN(image.label, body.ReadI64());
    MMLIB_ASSIGN_OR_RETURN(image.pixels, body.ReadBlob());
    if (static_cast<int64_t>(image.pixels.size()) !=
        image.height * image.width * 3) {
      return Status::Corruption("image pixel size does not match dimensions");
    }
    images.push_back(std::move(image));
  }
  if (!body.AtEnd()) {
    return Status::Corruption("trailing bytes in dataset payload");
  }
  auto dataset =
      std::make_unique<InMemoryDataset>(std::move(name), std::move(images));
  if (dataset->ContentHash() != expected_hash) {
    return Status::Corruption("dataset content hash mismatch after extract");
  }
  return dataset;
}

}  // namespace mmlib::data
