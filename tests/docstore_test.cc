#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "docstore/document_store.h"
#include "wire_charge.h"

namespace mmlib::docstore {
namespace {

json::Value MakeDoc(const std::string& key, int value) {
  json::Value doc = json::Value::MakeObject();
  doc.Set(key, value);
  return doc;
}

/// Parameterized over store implementations.
enum class StoreKind { kInMemory, kPersistent };

class DocumentStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    if (GetParam() == StoreKind::kInMemory) {
      store_ = std::make_unique<InMemoryDocumentStore>();
    } else {
      root_ = ::testing::TempDir() + "/docstore-" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
      std::filesystem::remove_all(root_);
      auto opened = PersistentDocumentStore::Open(root_);
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

  std::unique_ptr<DocumentStore> store_;
  std::string root_;
};

TEST_P(DocumentStoreTest, InsertGetRoundtrip) {
  const std::string id = store_->Insert("models", MakeDoc("x", 1)).value();
  auto doc = store_->Get("models", id);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetInt("x").value(), 1);
  EXPECT_EQ(doc->GetString("_id").value(), id);
}

TEST_P(DocumentStoreTest, IdsAreUniqueAndPrefixed) {
  const std::string a = store_->Insert("models", MakeDoc("x", 1)).value();
  const std::string b = store_->Insert("models", MakeDoc("x", 2)).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("models", 0), 0u);
}

TEST_P(DocumentStoreTest, GetMissingFails) {
  EXPECT_EQ(store_->Get("models", "nope").status().code(),
            StatusCode::kNotFound);
  store_->Insert("models", MakeDoc("x", 1)).value();
  EXPECT_EQ(store_->Get("other", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST_P(DocumentStoreTest, DeleteRemoves) {
  const std::string id = store_->Insert("models", MakeDoc("x", 1)).value();
  ASSERT_TRUE(store_->Delete("models", id).ok());
  EXPECT_FALSE(store_->Get("models", id).ok());
  EXPECT_EQ(store_->Delete("models", id).code(), StatusCode::kNotFound);
}

TEST_P(DocumentStoreTest, ListIdsSorted) {
  std::vector<std::string> inserted;
  for (int i = 0; i < 5; ++i) {
    inserted.push_back(store_->Insert("c", MakeDoc("i", i)).value());
  }
  auto ids = store_->ListIds("c").value();
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_TRUE(store_->ListIds("missing").value().empty());
}

TEST_P(DocumentStoreTest, CollectionsAreIsolated) {
  const std::string id = store_->Insert("a", MakeDoc("x", 1)).value();
  EXPECT_FALSE(store_->Get("b", id).ok());
}

TEST_P(DocumentStoreTest, RejectsNonObjectDocuments) {
  EXPECT_FALSE(store_->Insert("c", json::Value(3)).ok());
  EXPECT_FALSE(store_->Insert("c", json::Value::MakeArray()).ok());
}

TEST_P(DocumentStoreTest, AccountsStoredBytes) {
  EXPECT_EQ(store_->DocumentCount(), 0u);
  store_->Insert("c", MakeDoc("payload", 12345)).value();
  EXPECT_EQ(store_->DocumentCount(), 1u);
  EXPECT_GT(store_->TotalStoredBytes(), 10u);
}

TEST_P(DocumentStoreTest, NestedDocumentsSurviveRoundtrip) {
  json::Value doc = json::Value::MakeObject();
  json::Value inner = json::Value::MakeObject();
  inner.Set("list", json::Value::Array{json::Value(1), json::Value("two")});
  doc.Set("inner", std::move(inner));
  const std::string id = store_->Insert("c", doc).value();
  auto loaded = store_->Get("c", id).value();
  EXPECT_EQ(loaded.FindMember("inner")
                ->FindMember("list")
                ->as_array()[1]
                .as_string(),
            "two");
}

TEST_P(DocumentStoreTest, FindByFieldMatchesStringEquality) {
  json::Value a = json::Value::MakeObject();
  a.Set("base_model", "root-1");
  const std::string a_id = store_->Insert("models", a).value();
  json::Value b = json::Value::MakeObject();
  b.Set("base_model", "root-1");
  const std::string b_id = store_->Insert("models", b).value();
  json::Value c = json::Value::MakeObject();
  c.Set("base_model", "other");
  store_->Insert("models", c).value();
  json::Value d = json::Value::MakeObject();
  d.Set("unrelated", 7);
  store_->Insert("models", d).value();

  auto matches = store_->FindByField("models", "base_model", "root-1").value();
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_TRUE((matches[0] == a_id && matches[1] == b_id) ||
              (matches[0] == b_id && matches[1] == a_id));
  EXPECT_TRUE(
      store_->FindByField("models", "base_model", "nope").value().empty());
  EXPECT_TRUE(
      store_->FindByField("empty-coll", "k", "v").value().empty());
}

INSTANTIATE_TEST_SUITE_P(Stores, DocumentStoreTest,
                         ::testing::Values(StoreKind::kInMemory,
                                           StoreKind::kPersistent),
                         [](const ::testing::TestParamInfo<StoreKind>& info) {
                           return info.param == StoreKind::kInMemory
                                      ? "InMemory"
                                      : "Persistent";
                         });

TEST(PersistentDocumentStoreTest, SurvivesReopen) {
  const std::string root = ::testing::TempDir() + "/docstore-reopen";
  std::filesystem::remove_all(root);
  std::string id;
  {
    auto store = PersistentDocumentStore::Open(root).value();
    id = store->Insert("models", MakeDoc("x", 42)).value();
  }
  {
    auto store = PersistentDocumentStore::Open(root).value();
    EXPECT_EQ(store->Get("models", id).value().GetInt("x").value(), 42);
    EXPECT_EQ(store->ListIds("models").value().size(), 1u);
    // The reopened store restarts its id stream but must not overwrite
    // documents written before the reopen.
    const std::string id2 = store->Insert("models", MakeDoc("x", 43)).value();
    EXPECT_NE(id2, id);
    EXPECT_EQ(store->Get("models", id).value().GetInt("x").value(), 42);
    EXPECT_EQ(store->ListIds("models").value().size(), 2u);
  }
  std::filesystem::remove_all(root);
}

TEST(PersistentDocumentStoreTest, RejectsUnsafeNames) {
  const std::string root = ::testing::TempDir() + "/docstore-unsafe";
  std::filesystem::remove_all(root);
  auto store = PersistentDocumentStore::Open(root).value();
  EXPECT_FALSE(store->Insert("../evil", MakeDoc("x", 1)).ok());
  EXPECT_FALSE(store->Get("models", "../../etc/passwd").ok());
  EXPECT_FALSE(store->Get("a/b", "id").ok());
  std::filesystem::remove_all(root);
}

TEST(RemoteDocumentStoreTest, ChargesNetworkPerOperation) {
  InMemoryDocumentStore backend;
  simnet::Network network(simnet::Link{1000.0, 0.0});  // 1000 B/s, no latency
  RemoteDocumentStore remote(&backend, &network);

  const std::string id = remote.Insert("c", MakeDoc("x", 1)).value();
  const uint64_t after_insert = network.TotalBytes();
  EXPECT_GT(after_insert, 0u);
  remote.Get("c", id).value();
  EXPECT_GT(network.TotalBytes(), after_insert);
  EXPECT_GT(network.TotalTransferSeconds(), 0.0);
  // The backing store actually holds the document.
  EXPECT_EQ(backend.DocumentCount(), 1u);
}

TEST(RemoteDocumentStoreTest, EveryOperationIsARequestResponsePair) {
  InMemoryDocumentStore backend;
  simnet::Network network(simnet::Link{1000.0, 0.0});
  RemoteDocumentStore remote(&backend, &network);
  constexpr uint64_t kScalar = sizeof(uint64_t);
  constexpr uint64_t kDigest = sizeof(Digest{}.bytes);

  // Document upload, acknowledged with the generated id.
  const json::Value doc = MakeDoc("x", 1);
  std::string id;
  const WireCharge insert = Charge(&network, [&]() -> Status {
    MMLIB_ASSIGN_OR_RETURN(id, remote.Insert("c", doc));
    return Status::OK();
  });
  EXPECT_EQ(insert, (WireCharge{2, 1 + doc.Dump().size() + id.size(),
                                "doc.insert"}));

  std::string allocated;
  const WireCharge alloc = Charge(&network, [&]() -> Status {
    MMLIB_ASSIGN_OR_RETURN(allocated, remote.AllocateDocId("c"));
    return Status::OK();
  });
  EXPECT_EQ(alloc, (WireCharge{2, 1 + allocated.size(), "doc.alloc"}));

  json::Value tagged = json::Value::MakeObject();
  tagged.Set("tag", "a");
  EXPECT_EQ(
      Charge(&network,
             [&] { return remote.InsertWithId("c", allocated, tagged); }),
      (WireCharge{2, 1 + allocated.size() + tagged.Dump().size() + kScalar,
                  "doc.insert"}));

  const size_t stored_doc_bytes = backend.Get("c", id)->Dump().size();
  EXPECT_EQ(Charge(&network, [&] { return remote.Get("c", id).status(); }),
            (WireCharge{2, 1 + id.size() + stored_doc_bytes, "doc.get"}));
  EXPECT_EQ(Charge(&network, [&] { return remote.ListIds("c").status(); }),
            (WireCharge{2, 1 + id.size() + allocated.size(), "doc.list"}));
  // The query runs on the database host; only the matching id travels.
  EXPECT_EQ(Charge(&network,
                   [&] { return remote.FindByField("c", "tag", "a").status(); }),
            (WireCharge{2, 1 + 3 + 1 + allocated.size(), "doc.find"}));
  EXPECT_EQ(
      Charge(&network, [&] { return remote.ListCollections().status(); }),
      (WireCharge{2, kScalar + 1, "doc.list"}));
  EXPECT_EQ(Charge(&network,
                   [&] { return remote.DocumentDigest("c", id).status(); }),
            (WireCharge{2, 1 + id.size() + kDigest, "doc.digest"}));

  // Stats pass-throughs are charged too (metric reads are not free), but
  // never fault: even a link that drops everything answers them.
  size_t count = 0;
  EXPECT_EQ(Charge(&network,
                   [&] {
                     count = remote.DocumentCount();
                     return Status::OK();
                   }),
            (WireCharge{2, 2 * kScalar, ""}));
  EXPECT_EQ(count, 2u);
  size_t stored = 0;
  EXPECT_EQ(Charge(&network,
                   [&] {
                     stored = remote.TotalStoredBytes();
                     return Status::OK();
                   }),
            (WireCharge{2, 2 * kScalar, ""}));
  EXPECT_GT(stored, 0u);

  EXPECT_EQ(Charge(&network, [&] { return remote.Delete("c", id); }),
            (WireCharge{2, 1 + id.size() + kScalar, "doc.delete"}));
  EXPECT_EQ(backend.DocumentCount(), 1u);
}

}  // namespace
}  // namespace mmlib::docstore
