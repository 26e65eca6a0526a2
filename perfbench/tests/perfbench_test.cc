// Tests of the benchmark's own helpers: the nearest-rank percentile, span
// self time, the tracing store decorators, and that tracing does not change
// any deterministic number of a workload.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "traced_stores.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheSampleAtRankCeilPN) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);  // unsorted on purpose
  }
  EXPECT_EQ(NearestRank(values, 50), 50);
  EXPECT_EQ(NearestRank(values, 90), 90);
  EXPECT_EQ(NearestRank(values, 100), 100);
  EXPECT_EQ(NearestRank({7, 3, 5}, 50), 5);
  EXPECT_EQ(NearestRank({1, 2, 3, 4}, 50), 2);  // rank ceil(2.0) = 2
  EXPECT_EQ(NearestRank({4, 1, 3, 2, 5}, 90), 5);  // rank ceil(4.5) = 5
  EXPECT_EQ(NearestRank({42}, 1), 42);
  EXPECT_EQ(NearestRank({}, 50), 0);
}

TEST(NearestRank, CountsSamplesBeyondThePercentile) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(SamplesBeyond(10, 50), 5u);
  EXPECT_EQ(MinSamplesFor(90, 10), 100u);
  EXPECT_EQ(MinSamplesFor(50, 10), 20u);
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t start, uint64_t end) {
  Span span;
  span.name = "s" + std::to_string(id);
  span.id = id;
  span.parent = parent;
  span.wall_start_ns = start;
  span.wall_end_ns = end;
  return span;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // 1 [0,100): children 2 [10,40) and 4 [50,70); 3 [20,30) is a grandchild
  // inside 2 and must not be subtracted from 1 a second time.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40), MakeSpan(3, 2, 20, 30),
      MakeSpan(4, 1, 50, 70)};
  EXPECT_EQ(SelfWallNs(spans, 1), 50u);
  EXPECT_EQ(SelfWallNs(spans, 2), 20u);
  EXPECT_EQ(SelfWallNs(spans, 3), 10u);
  EXPECT_EQ(ChildWallNs(spans, 1, "s"), 50u);
  EXPECT_EQ(ChildWallNs(spans, 1, "s4"), 20u);
}

TEST(SelfTime, MergesOverlappingChildren) {
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 100),
                                   MakeSpan(2, 1, 10, 60),
                                   MakeSpan(3, 1, 40, 80)};
  EXPECT_EQ(SelfWallNs(spans, 1), 30u);
}

TEST(Tracer, NestsByCallOrderAndRecordsBothClocks) {
  mmlib::simnet::Network network(mmlib::simnet::Link{1e6, 0.0});
  Tracer tracer(&network);
  {
    ScopedSpan outer(&tracer, "outer");
    {
      ScopedSpan inner(&tracer, "inner");
      network.Transfer(1000);  // 1 ms of virtual time
    }
    ScopedSpan sibling(&tracer, "sibling");
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[1].VirtualNs(), 1000000u);
  EXPECT_EQ(spans[0].VirtualNs(), 1000000u);
  EXPECT_EQ(spans[2].VirtualNs(), 0u);
  EXPECT_GE(spans[0].WallNs(), spans[1].WallNs());
  EXPECT_EQ(tracer.misnested(), 0u);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"virtual_ns\":1000000"), std::string::npos);
}

/// In-memory file store that records which virtuals reached it.
class RecordingFileStore : public mmlib::filestore::InMemoryFileStore {
 public:
  std::map<std::string, int> calls;

  mmlib::Result<std::string> SaveFile(const mmlib::Bytes& c) override {
    ++calls["SaveFile"];
    return InMemoryFileStore::SaveFile(c);
  }
  mmlib::Result<std::string> AllocateFileId() override {
    ++calls["AllocateFileId"];
    return InMemoryFileStore::AllocateFileId();
  }
  mmlib::Status WriteAllocated(const std::string& id,
                               const mmlib::Bytes& c) override {
    ++calls["WriteAllocated"];
    return InMemoryFileStore::WriteAllocated(id, c);
  }
  mmlib::Result<mmlib::Bytes> LoadFile(const std::string& id) override {
    ++calls["LoadFile"];
    return InMemoryFileStore::LoadFile(id);
  }
  mmlib::Status Delete(const std::string& id) override {
    ++calls["Delete"];
    return InMemoryFileStore::Delete(id);
  }
  mmlib::Result<size_t> FileSize(const std::string& id) override {
    ++calls["FileSize"];
    return InMemoryFileStore::FileSize(id);
  }
  mmlib::Result<std::vector<std::string>> ListFileIds() override {
    ++calls["ListFileIds"];
    return InMemoryFileStore::ListFileIds();
  }
  mmlib::Result<mmlib::Digest> ContentDigest(const std::string& id) override {
    ++calls["ContentDigest"];
    return InMemoryFileStore::ContentDigest(id);
  }
  void ReportDamaged(const std::string& id) override {
    ++calls["ReportDamaged"];
    InMemoryFileStore::ReportDamaged(id);
  }
};

TEST(TracedFileStore, ForwardsEveryVirtual) {
  RecordingFileStore inner;
  Tracer tracer(nullptr);
  TracedFileStore traced(&inner, &tracer);
  const mmlib::Bytes content = {1, 2, 3, 4, 5};

  mmlib::Result<std::string> id = traced.SaveFile(content);
  ASSERT_TRUE(id.ok());
  mmlib::Result<std::string> allocated = traced.AllocateFileId();
  ASSERT_TRUE(allocated.ok());
  ASSERT_TRUE(traced.WriteAllocated(allocated.value(), content).ok());
  EXPECT_EQ(traced.LoadFile(id.value()).value(), content);
  EXPECT_EQ(traced.FileSize(id.value()).value(), content.size());
  EXPECT_EQ(traced.ListFileIds().value(), inner.ListFileIds().value());
  EXPECT_EQ(traced.ContentDigest(id.value()).value(),
            mmlib::Sha256::Hash(content));
  traced.ReportDamaged(id.value());
  EXPECT_EQ(traced.TotalStoredBytes(), inner.TotalStoredBytes());
  EXPECT_EQ(traced.FileCount(), 2u);
  ASSERT_TRUE(traced.Delete(allocated.value()).ok());
  EXPECT_FALSE(traced.LoadFile(allocated.value()).ok());

  for (const char* op :
       {"SaveFile", "AllocateFileId", "WriteAllocated", "LoadFile", "Delete",
        "FileSize", "ContentDigest", "ReportDamaged"}) {
    EXPECT_GE(inner.calls[op], 1) << op;
  }
  EXPECT_EQ(traced.counters().bytes_written, 2 * content.size());
  EXPECT_EQ(traced.counters().bytes_read, content.size());
  EXPECT_EQ(traced.counters().calls, tracer.spans().size());
  EXPECT_EQ(tracer.spans().front().name, "filestore.SaveFile");
}

/// In-memory document store that records which virtuals reached it.
class RecordingDocumentStore : public mmlib::docstore::InMemoryDocumentStore {
 public:
  std::map<std::string, int> calls;

  mmlib::Result<std::string> Insert(const std::string& c,
                                    mmlib::json::Value doc) override {
    ++calls["Insert"];
    return InMemoryDocumentStore::Insert(c, std::move(doc));
  }
  mmlib::Result<std::string> AllocateDocId(const std::string& c) override {
    ++calls["AllocateDocId"];
    return InMemoryDocumentStore::AllocateDocId(c);
  }
  mmlib::Status InsertWithId(const std::string& c, const std::string& id,
                             mmlib::json::Value doc) override {
    ++calls["InsertWithId"];
    return InMemoryDocumentStore::InsertWithId(c, id, std::move(doc));
  }
  mmlib::Result<mmlib::json::Value> Get(const std::string& c,
                                        const std::string& id) override {
    ++calls["Get"];
    return InMemoryDocumentStore::Get(c, id);
  }
  mmlib::Status Delete(const std::string& c, const std::string& id) override {
    ++calls["Delete"];
    return InMemoryDocumentStore::Delete(c, id);
  }
  mmlib::Result<std::vector<std::string>> ListIds(
      const std::string& c) override {
    ++calls["ListIds"];
    return InMemoryDocumentStore::ListIds(c);
  }
  mmlib::Result<std::vector<std::string>> FindByField(
      const std::string& c, const std::string& key,
      const std::string& value) override {
    ++calls["FindByField"];
    return InMemoryDocumentStore::FindByField(c, key, value);
  }
  mmlib::Result<std::vector<std::string>> ListCollections() override {
    ++calls["ListCollections"];
    return InMemoryDocumentStore::ListCollections();
  }
  mmlib::Result<mmlib::Digest> DocumentDigest(const std::string& c,
                                              const std::string& id) override {
    ++calls["DocumentDigest"];
    return InMemoryDocumentStore::DocumentDigest(c, id);
  }
};

TEST(TracedDocumentStore, ForwardsEveryVirtual) {
  RecordingDocumentStore inner;
  Tracer tracer(nullptr);
  TracedDocumentStore traced(&inner, &tracer);
  mmlib::json::Value doc = mmlib::json::Value::MakeObject();
  doc.Set("kind", "a");

  mmlib::Result<std::string> id = traced.Insert("c", doc);
  ASSERT_TRUE(id.ok());
  mmlib::Result<std::string> allocated = traced.AllocateDocId("c");
  ASSERT_TRUE(allocated.ok());
  ASSERT_TRUE(traced.InsertWithId("c", allocated.value(), doc).ok());
  EXPECT_EQ(traced.Get("c", id.value()).value().GetString("kind").value(),
            "a");
  EXPECT_EQ(traced.ListIds("c").value().size(), 2u);
  EXPECT_EQ(traced.FindByField("c", "kind", "a").value().size(), 2u);
  EXPECT_EQ(traced.ListCollections().value(),
            std::vector<std::string>{"c"});
  EXPECT_EQ(traced.DocumentDigest("c", id.value()).value(),
            inner.DocumentDigest("c", id.value()).value());
  EXPECT_EQ(traced.TotalStoredBytes(), inner.TotalStoredBytes());
  EXPECT_EQ(traced.DocumentCount(), 2u);
  ASSERT_TRUE(traced.Delete("c", allocated.value()).ok());
  EXPECT_EQ(traced.DocumentCount(), 1u);

  for (const char* op :
       {"Insert", "AllocateDocId", "InsertWithId", "Get", "Delete", "ListIds",
        "FindByField", "ListCollections", "DocumentDigest"}) {
    EXPECT_GE(inner.calls[op], 1) << op;
  }
  EXPECT_EQ(traced.counters().calls, tracer.spans().size());
}

/// The numbers of a set-up plus a few iterations that must repeat for one
/// seed.
struct RunNumbers {
  std::vector<int64_t> deterministic;  // Iteration::Deterministic()
  std::vector<int64_t> store_work;     // Iteration::StoreWork()
};

RunNumbers DeterministicRun(WorkloadKind kind, bool traced,
                            mmlib::util::ThreadPool* pool) {
  Stores stores(pool, traced);
  mmlib::Result<std::unique_ptr<Workload>> workload =
      Workload::Create(kind, /*seed=*/7, pool, &stores);
  EXPECT_TRUE(workload.ok()) << workload.status();
  RunNumbers out;
  if (!workload.ok()) {
    return out;
  }
  for (size_t i = 0; i < 3; ++i) {
    Iteration it = workload.value()->Run(i);
    EXPECT_EQ(it.failed, 0) << it.error;
    EXPECT_EQ(it.attempted, 2);
    EXPECT_TRUE(it.error.empty()) << it.error;
    if (traced) {
      EXPECT_GT(it.save.files.calls, 0u);
      EXPECT_GT(it.recover.docs.calls, 0u);
    }
    for (int64_t value : it.Deterministic()) {
      out.deterministic.push_back(value);
    }
    for (int64_t value : it.StoreWork()) {
      out.store_work.push_back(value);
    }
  }
  return out;
}

class TracedEqualsUntraced : public testing::TestWithParam<WorkloadKind> {};

TEST_P(TracedEqualsUntraced, DeterministicNumbersMatch) {
  mmlib::util::ThreadPool pool(2);
  const RunNumbers plain =
      DeterministicRun(GetParam(), /*traced=*/false, &pool);
  const RunNumbers traced =
      DeterministicRun(GetParam(), /*traced=*/true, &pool);
  ASSERT_FALSE(plain.deterministic.empty());
  EXPECT_EQ(plain.deterministic, traced.deterministic);
  // And they repeat for the same seed.
  EXPECT_EQ(plain.deterministic,
            DeterministicRun(GetParam(), /*traced=*/false, &pool)
                .deterministic);
}

TEST_P(TracedEqualsUntraced, StoreCallsAndBytesRepeat) {
  mmlib::util::ThreadPool pool(2);
  const RunNumbers first = DeterministicRun(GetParam(), /*traced=*/true, &pool);
  const RunNumbers second =
      DeterministicRun(GetParam(), /*traced=*/true, &pool);
  ASSERT_FALSE(first.store_work.empty());
  EXPECT_EQ(first.store_work, second.store_work);
  // Untraced stores count nothing.
  const RunNumbers plain =
      DeterministicRun(GetParam(), /*traced=*/false, &pool);
  for (int64_t value : plain.store_work) {
    EXPECT_EQ(value, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedEqualsUntraced,
                         testing::Values(WorkloadKind::kBaSnapshot,
                                         WorkloadKind::kPuaChain,
                                         WorkloadKind::kMpaReplay),
                         [](const testing::TestParamInfo<WorkloadKind>& info) {
                           return std::string(WorkloadName(info.param));
                         });

}  // namespace
}  // namespace perfbench
