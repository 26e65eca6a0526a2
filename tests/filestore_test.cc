#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "filestore/file_store.h"
#include "wire_charge.h"

namespace mmlib::filestore {
namespace {

enum class StoreKind { kInMemory, kLocalDir };

class FileStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    if (GetParam() == StoreKind::kInMemory) {
      store_ = std::make_unique<InMemoryFileStore>();
    } else {
      root_ = ::testing::TempDir() + "/filestore-" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
      std::filesystem::remove_all(root_);
      auto opened = LocalDirFileStore::Open(root_);
      ASSERT_TRUE(opened.ok()) << opened.status();
      store_ = std::move(opened).value();
    }
  }

  void TearDown() override {
    store_.reset();
    if (!root_.empty()) {
      std::filesystem::remove_all(root_);
    }
  }

  std::unique_ptr<FileStore> store_;
  std::string root_;
};

TEST_P(FileStoreTest, SaveLoadRoundtrip) {
  const Bytes content{1, 2, 3, 255, 0, 128};
  const std::string id = store_->SaveFile(content).value();
  EXPECT_EQ(store_->LoadFile(id).value(), content);
  EXPECT_EQ(store_->FileSize(id).value(), content.size());
}

TEST_P(FileStoreTest, EmptyFile) {
  const std::string id = store_->SaveFile(Bytes{}).value();
  EXPECT_TRUE(store_->LoadFile(id).value().empty());
  EXPECT_EQ(store_->FileSize(id).value(), 0u);
}

TEST_P(FileStoreTest, LargeBinaryFile) {
  Bytes content(1 << 20);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  const std::string id = store_->SaveFile(content).value();
  EXPECT_EQ(store_->LoadFile(id).value(), content);
}

TEST_P(FileStoreTest, MissingFileFails) {
  EXPECT_EQ(store_->LoadFile("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->FileSize("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->Delete("nope").code(), StatusCode::kNotFound);
}

TEST_P(FileStoreTest, DeleteRemoves) {
  const std::string id = store_->SaveFile(Bytes{9}).value();
  ASSERT_TRUE(store_->Delete(id).ok());
  EXPECT_FALSE(store_->LoadFile(id).ok());
}

TEST_P(FileStoreTest, AccountsBytesAndCount) {
  EXPECT_EQ(store_->FileCount(), 0u);
  EXPECT_EQ(store_->TotalStoredBytes(), 0u);
  store_->SaveFile(Bytes(100)).value();
  const std::string id = store_->SaveFile(Bytes(50)).value();
  EXPECT_EQ(store_->FileCount(), 2u);
  EXPECT_EQ(store_->TotalStoredBytes(), 150u);
  store_->Delete(id).ok();
  EXPECT_EQ(store_->TotalStoredBytes(), 100u);
}

TEST_P(FileStoreTest, IdsAreUnique) {
  const std::string a = store_->SaveFile(Bytes{1}).value();
  const std::string b = store_->SaveFile(Bytes{1}).value();
  EXPECT_NE(a, b);
}

INSTANTIATE_TEST_SUITE_P(Stores, FileStoreTest,
                         ::testing::Values(StoreKind::kInMemory,
                                           StoreKind::kLocalDir),
                         [](const ::testing::TestParamInfo<StoreKind>& info) {
                           return info.param == StoreKind::kInMemory
                                      ? "InMemory"
                                      : "LocalDir";
                         });

TEST(LocalDirFileStoreTest, RejectsUnsafeIds) {
  const std::string root = ::testing::TempDir() + "/filestore-unsafe";
  std::filesystem::remove_all(root);
  auto store = LocalDirFileStore::Open(root).value();
  EXPECT_FALSE(store->LoadFile("../../etc/passwd").ok());
  EXPECT_FALSE(store->LoadFile("a/b").ok());
  EXPECT_FALSE(store->LoadFile("").ok());
  std::filesystem::remove_all(root);
}

TEST(RemoteFileStoreTest, ChargesPayloadBytes) {
  InMemoryFileStore backend;
  simnet::Network network(simnet::Link{1e6, 1e-3});
  RemoteFileStore remote(&backend, &network);

  const Bytes payload(10000, 0x42);
  const std::string id = remote.SaveFile(payload).value();
  // Save is a request (payload) + acknowledgement (generated id) pair.
  EXPECT_EQ(network.TotalBytes(), payload.size() + id.size());
  EXPECT_EQ(network.MessageCount(), 2u);
  // Request: latency + bytes/bandwidth = 1ms + 10ms; ack: 1ms + id bytes.
  EXPECT_NEAR(network.TotalTransferSeconds(),
              0.012 + static_cast<double>(id.size()) * 1e-6, 1e-9);
  remote.LoadFile(id).value();
  // Load is a request (id) + response (payload) pair.
  EXPECT_EQ(network.TotalBytes(), 2 * (payload.size() + id.size()));
  EXPECT_EQ(network.MessageCount(), 4u);
}

TEST(RemoteFileStoreTest, EveryOperationIsARequestResponsePair) {
  InMemoryFileStore backend;
  simnet::Network network(simnet::Link{1e6, 1e-3});
  RemoteFileStore remote(&backend, &network);
  constexpr uint64_t kScalar = sizeof(uint64_t);
  constexpr uint64_t kDigest = sizeof(Digest{}.bytes);

  // Upload of the payload, acknowledged with the generated id.
  std::string id;
  const WireCharge save = Charge(&network, [&]() -> Status {
    MMLIB_ASSIGN_OR_RETURN(id, remote.SaveFile(Bytes(64, 1)));
    return Status::OK();
  });
  EXPECT_EQ(save, (WireCharge{2, 64 + id.size(), "file.save"}));

  std::string allocated;
  const WireCharge alloc = Charge(&network, [&]() -> Status {
    MMLIB_ASSIGN_OR_RETURN(allocated, remote.AllocateFileId());
    return Status::OK();
  });
  EXPECT_EQ(alloc, (WireCharge{2, kScalar + allocated.size(), "file.alloc"}));

  EXPECT_EQ(Charge(&network,
                   [&] { return remote.WriteAllocated(allocated, Bytes(32, 2)); }),
            (WireCharge{2, allocated.size() + 32 + kScalar, "file.write"}));
  EXPECT_EQ(Charge(&network, [&] { return remote.LoadFile(id).status(); }),
            (WireCharge{2, id.size() + 64, "file.load"}));
  EXPECT_EQ(Charge(&network, [&] { return remote.FileSize(id).status(); }),
            (WireCharge{2, id.size() + kScalar, "file.size"}));
  EXPECT_EQ(Charge(&network, [&] { return remote.ListFileIds().status(); }),
            (WireCharge{2, kScalar + id.size() + allocated.size(),
                        "file.list"}));
  EXPECT_EQ(
      Charge(&network, [&] { return remote.ContentDigest(id).status(); }),
      (WireCharge{2, id.size() + kDigest, "file.digest"}));

  // Stats pass-throughs are charged too (metric reads are not free), but
  // never fault: even a link that drops everything answers them.
  size_t stored = 0;
  EXPECT_EQ(Charge(&network,
                   [&] {
                     stored = remote.TotalStoredBytes();
                     return Status::OK();
                   }),
            (WireCharge{2, 2 * kScalar, ""}));
  EXPECT_EQ(stored, 64u + 32u);
  size_t count = 0;
  EXPECT_EQ(Charge(&network,
                   [&] {
                     count = remote.FileCount();
                     return Status::OK();
                   }),
            (WireCharge{2, 2 * kScalar, ""}));
  EXPECT_EQ(count, 2u);

  EXPECT_EQ(Charge(&network, [&] { return remote.Delete(id); }),
            (WireCharge{2, id.size() + kScalar, "file.delete"}));
  EXPECT_EQ(backend.FileCount(), 1u);
}

}  // namespace
}  // namespace mmlib::filestore
