// Paper-path benchmark: time-to-save (TTS), time-to-recover (TTR) and
// storage of the BA, PUA and MPA on one seeded workload, measured as a
// single-client closed loop over the public core API.
//
//   perfbench --workload <ba_snapshot|pua_chain|mpa_replay> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then through the tracing store decorators and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for what each metric means and why each workload exists.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/chunked.h"
#include "data/dataloader.h"
#include "env/environment.h"
#include "hash/sha256.h"
#include "kernels/plan_cache.h"
#include "nn/execution_context.h"
#include "nn/loss.h"
#include "stats.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Threads of the pool passed to core through StorageBackends::pool, and
/// of the process-wide pool (pinned through MMLIB_THREADS before first
/// use, since MPA recovery replays training on it). A fixed size, never
/// derived from the host, so runs on different hosts do the same work.
/// One thread: on a shared host a second core comes and goes, and a pool
/// that relies on it swung PUA save time 1.6x from run to run (README.md).
constexpr size_t kPoolThreads = 1;
/// Set-ups per end-to-end run; setup_s is their median. The first comes
/// before the timed phase, the others are spread evenly over it, so the
/// median samples the host across the whole run as the op timings do.
constexpr size_t kSetups = 9;
/// Warm-up iterations at the end of every set-up (counted in setup_s,
/// excluded from every timed population).
constexpr size_t kWarmup = 2;
/// The deterministic metrics come from the first kPrefix timed iterations,
/// so they do not depend on how many iterations fit into a run.
constexpr size_t kPrefix = 30;
/// Timed iterations every end-to-end run collects at least, so each p90
/// has ten samples beyond it (nearest rank).
const size_t kMinSamples = MinSamplesFor(90, 10);
/// Repetitions of each per-layer probe; the median is reported.
constexpr int kProbeReps = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    flags[argv[i]] = argv[i + 1];
  }
  if (argc % 2 != 1 || flags.count("--workload") == 0) {
    return false;
  }
  try {
    args->workload = flags["--workload"];
    if (flags.count("--seed") != 0) {
      args->seed = std::stoull(flags["--seed"]);
    }
    if (flags.count("--seconds") != 0) {
      args->seconds = std::stod(flags["--seconds"]);
    }
    if (flags.count("--trace") != 0) {
      args->trace = std::stoi(flags["--trace"]) != 0;
    }
    if (flags.count("--trace-out") != 0) {
      args->trace_out = flags["--trace-out"];
    }
  } catch (const std::exception&) {
    return false;
  }
  return args->seconds > 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::string L2Size() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index2/size");
  std::string size;
  return (in >> size) ? size : "unknown";
}

/// Median wall ms of kProbeReps calls of `fn`.
double ProbeMs(const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int r = 0; r < kProbeReps; ++r) {
    const uint64_t start = SteadyNowNs();
    fn();
    ms.push_back((SteadyNowNs() - start) / 1e6);
  }
  return NearestRank(ms, 50);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Output of the run: human-readable lines, then the JSON result line.
class Report {
 public:
  void Fail(const std::string& why) {
    correct_ = false;
    std::cout << "CHECK FAILED: " << why << "\n";
  }
  void Count(const Iteration& it) {
    attempted_ += it.attempted;
    failed_ += it.failed;
    if (!it.error.empty()) {
      Fail(it.error);
    }
  }
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Prints the metrics; the verdict travels in the result line, so the
  /// process exits 0 either way.
  void Print() const {
    char buffer[64];
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buffer, sizeof(buffer), "%.17g", m.value);
      std::printf("%-34s %20s %s\n", m.name.c_str(), buffer, m.unit.c_str());
      json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
              buffer + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
  }

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// A set-up workload on its own stores.
struct Prepared {
  std::unique_ptr<Stores> stores;
  std::unique_ptr<Workload> workload;
  /// Iteration::Deterministic() and StoreWork() of the warm-up iterations.
  std::vector<int64_t> warmup_deterministic;
  std::vector<int64_t> warmup_store_work;
};

mmlib::Result<Prepared> Prepare(WorkloadKind kind, uint64_t seed,
                                mmlib::util::ThreadPool* pool, bool traced) {
  Prepared prepared;
  prepared.stores = std::make_unique<Stores>(pool, traced);
  ScopedSpan span(prepared.stores->tracer(), "bench.setup");
  MMLIB_ASSIGN_OR_RETURN(prepared.workload,
                         Workload::Create(kind, seed, pool,
                                          prepared.stores.get()));
  for (size_t w = 0; w < kWarmup; ++w) {
    Iteration it = prepared.workload->Run(w);
    if (!it.error.empty()) {
      return mmlib::Status::Internal("warm-up failed: " + it.error);
    }
    for (int64_t value : it.Deterministic()) {
      prepared.warmup_deterministic.push_back(value);
    }
    for (int64_t value : it.StoreWork()) {
      prepared.warmup_store_work.push_back(value);
    }
  }
  return prepared;
}

/// Runs timed iterations until `seconds` have passed and at least
/// `min_samples` iterations are done (never beyond 3 x `seconds`). Between
/// two iterations it calls `between` `between_count` times, spread evenly
/// over the first `seconds`.
std::vector<Iteration> RunTimed(Workload* workload, double seconds,
                                size_t min_samples, Report* report,
                                size_t between_count = 0,
                                const std::function<void()>& between = {}) {
  std::vector<Iteration> iterations;
  size_t between_done = 0;
  const uint64_t start = SteadyNowNs();
  for (size_t i = kWarmup;; ++i) {
    const double elapsed = (SteadyNowNs() - start) / 1e9;
    if (between_done < between_count &&
        elapsed >= seconds * static_cast<double>(between_done + 1) /
                       static_cast<double>(between_count + 1)) {
      between();
      ++between_done;
      continue;
    }
    if ((elapsed >= seconds && iterations.size() >= min_samples) ||
        elapsed >= 3 * seconds) {
      break;
    }
    iterations.push_back(workload->Run(i));
    report->Count(iterations.back());
  }
  if (iterations.size() < min_samples) {
    report->Fail("only " + std::to_string(iterations.size()) +
                 " timed iterations, need " + std::to_string(min_samples));
  }
  return iterations;
}

std::vector<double> WallMs(const std::vector<Iteration>& its, bool save) {
  std::vector<double> ms;
  for (const Iteration& it : its) {
    if (it.failed == 0) {
      ms.push_back((save ? it.save : it.recover).wall_ns / 1e6);
    }
  }
  return ms;
}

/// Median of `field` over the first kPrefix iterations (deterministic).
double PrefixMedian(const std::vector<Iteration>& its,
                    const std::function<double(const Iteration&)>& field) {
  std::vector<double> values;
  for (size_t i = 0; i < its.size() && i < kPrefix; ++i) {
    values.push_back(field(its[i]));
  }
  return NearestRank(values, 50);
}

std::vector<int64_t> PrefixDeterministic(const std::vector<Iteration>& its) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < its.size() && i < kPrefix; ++i) {
    for (int64_t value : its[i].Deterministic()) {
      out.push_back(value);
    }
  }
  return out;
}

int RunEndToEnd(WorkloadKind kind, const Args& args,
                mmlib::util::ThreadPool* pool) {
  Report report;
  std::vector<double> setup_s;
  std::vector<int64_t> first_warmup;
  bool setup_failed = false;
  // Times one set-up, checks that its warm-up repeats the first set-up's
  // deterministic numbers, and keeps it in `kept` if given.
  auto setup = [&](Prepared* kept) {
    const uint64_t start = SteadyNowNs();
    mmlib::Result<Prepared> next = Prepare(kind, args.seed, pool, false);
    if (!next.ok()) {
      std::cerr << "set-up failed: " << next.status() << "\n";
      setup_failed = true;
      return;
    }
    setup_s.push_back((SteadyNowNs() - start) / 1e9);
    if (setup_s.size() == 1) {
      first_warmup = next.value().warmup_deterministic;
    } else if (next.value().warmup_deterministic != first_warmup) {
      report.Fail("deterministic numbers of set-up " +
                  std::to_string(setup_s.size() - 1) +
                  " differ from set-up 0");
    }
    if (kept != nullptr) {
      *kept = std::move(next).value();
    }
  };

  Prepared prepared;
  setup(&prepared);
  if (setup_failed) {
    return 1;
  }
  const std::vector<Iteration> its =
      RunTimed(prepared.workload.get(), args.seconds, kMinSamples, &report,
               kSetups - 1, [&] { setup(nullptr); });
  if (setup_failed) {
    return 1;
  }
  const std::vector<double> tts = WallMs(its, true);
  const std::vector<double> ttr = WallMs(its, false);
  double stored = 0;
  double raw = 0;
  for (size_t i = 0; i < its.size() && i < kPrefix; ++i) {
    stored += static_cast<double>(its[i].save.stored_bytes);
    raw += static_cast<double>(its[i].raw_param_bytes);
  }

  std::cout << "timed iterations: " << its.size() << " (" << tts.size()
            << " saves, " << ttr.size() << " recovers; p90 rests on "
            << SamplesBeyond(tts.size(), 90) << " samples beyond it)\n";
  std::cout << "deterministic prefix:";
  for (int64_t value : PrefixDeterministic(its)) {
    std::cout << " " << value;
  }
  std::cout << "\n";

  report.Add("setup_s", NearestRank(setup_s, 50), "s");
  report.Add("tts_p50_ms", NearestRank(tts, 50), "ms");
  report.Add("tts_p90_ms", NearestRank(tts, 90), "ms");
  report.Add("ttr_p50_ms", NearestRank(ttr, 50), "ms");
  report.Add("ttr_p90_ms", NearestRank(ttr, 90), "ms");
  report.Add("tts_net_ms",
             PrefixMedian(its, [](const Iteration& it) {
               return it.save.virtual_ns / 1e6;
             }),
             "ms");
  report.Add("ttr_net_ms",
             PrefixMedian(its, [](const Iteration& it) {
               return it.recover.virtual_ns / 1e6;
             }),
             "ms");
  report.Add("storage_ratio", raw > 0 ? stored / raw : 0.0, "ratio");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Print();
  return 0;
}

uint64_t PlanCacheMisses() {
  const mmlib::kernels::PlanCache::Stats stats =
      mmlib::kernels::PlanCache::Instance().stats();
  return stats.conv_misses + stats.linear_misses;
}

/// Per-layer probes: direct calls of the layer functions on the workload's
/// own model state and payloads.
void AddProbes(const Workload& workload, uint64_t seed,
               mmlib::util::ThreadPool* pool, Report* report) {
  const mmlib::nn::Model& model = workload.version_model(0);
  report->Add("hash.merkle_ms", ProbeMs([&] {
                if (!model.BuildMerkleTree(pool).ok()) {
                  report->Fail("BuildMerkleTree failed");
                }
              }),
              "ms");
  report->Add("hash.params_hash_ms", ProbeMs([&] { model.ParamsHash(); }),
              "ms");
  const mmlib::Bytes payload = model.SerializeParams();
  const double crc_ms = ProbeMs([&] { mmlib::Crc32(payload); });
  report->Add("hash.crc32_mb_s", payload.size() / 1e6 / (crc_ms / 1e3),
              "MB/s");
  mmlib::Bytes frame;
  report->Add("compress.frame_ms", ProbeMs([&] {
                frame = mmlib::ChunkedFrame(payload,
                                            mmlib::CodecKind::kIdentity,
                                            mmlib::kDefaultChunkSize, pool)
                            .value();
              }),
              "ms");
  report->Add("compress.unframe_ms", ProbeMs([&] {
                mmlib::Result<mmlib::Bytes> back =
                    mmlib::ChunkedUnframe(frame, pool);
                if (!back.ok() || back.value() != payload) {
                  report->Fail("ChunkedUnframe did not return the payload");
                }
              }),
              "ms");
  report->Add("env.collect_ms",
              ProbeMs([] { mmlib::env::CollectEnvironment(); }), "ms");

  // One deterministic training step: only the MPA workload runs nn, data
  // and kernels; elsewhere those layers do no work and read 0.
  double batch_ms = 0;
  double forward_ms = 0;
  double backward_ms = 0;
  if (workload.kind() == WorkloadKind::kMpaReplay) {
    mmlib::Result<mmlib::nn::Model> copy =
        mmlib::models::BuildModel(workload.model_config());
    if (!copy.ok() || !copy.value().LoadParams(payload).ok()) {
      report->Fail("could not copy the model for the nn probe");
    } else {
      mmlib::nn::Model& net = copy.value();
      mmlib::data::DataLoader loader(workload.dataset(),
                                     workload.train_config().loader);
      loader.StartEpoch(0);
      mmlib::data::Batch batch;
      batch_ms = ProbeMs([&] { batch = loader.GetBatch(0).value(); });
      mmlib::nn::ExecutionContext ctx =
          mmlib::nn::ExecutionContext::Deterministic(seed);
      ctx.set_pool(pool);
      ctx.set_training(true);
      std::vector<double> fwd;
      std::vector<double> bwd;
      for (int r = 0; r < kProbeReps; ++r) {
        net.ZeroGrad();
        uint64_t start = SteadyNowNs();
        mmlib::Result<mmlib::Tensor> logits = net.Forward(batch.images, &ctx);
        fwd.push_back((SteadyNowNs() - start) / 1e6);
        mmlib::Result<mmlib::nn::LossResult> loss =
            logits.ok() ? mmlib::nn::SoftmaxCrossEntropy(logits.value(),
                                                         batch.labels)
                        : mmlib::Result<mmlib::nn::LossResult>(
                              logits.status());
        if (!loss.ok()) {
          report->Fail("nn probe forward failed");
          break;
        }
        start = SteadyNowNs();
        if (!net.Backward(loss.value().grad_logits, &ctx).ok()) {
          report->Fail("nn probe backward failed");
          break;
        }
        bwd.push_back((SteadyNowNs() - start) / 1e6);
      }
      forward_ms = NearestRank(fwd, 50);
      backward_ms = NearestRank(bwd, 50);
    }
  }
  report->Add("nn.forward_ms", forward_ms, "ms");
  report->Add("nn.backward_ms", backward_ms, "ms");
  report->Add("data.batch_ms", batch_ms, "ms");
}

int RunTraced(WorkloadKind kind, const Args& args,
              mmlib::util::ThreadPool* pool) {
  Report report;
  // Untraced reference: the same iterations without decorators, for the
  // tracing overhead and the traced-equals-untraced check.
  std::vector<Iteration> plain;
  std::vector<int64_t> plain_warmup;
  {
    mmlib::Result<Prepared> prepared = Prepare(kind, args.seed, pool, false);
    if (!prepared.ok()) {
      std::cerr << "set-up failed: " << prepared.status() << "\n";
      return 1;
    }
    plain_warmup = prepared.value().warmup_deterministic;
    plain = RunTimed(prepared.value().workload.get(), args.seconds / 2,
                     kPrefix, &report);
  }
  // Store calls and bytes exist only traced, so a first traced set-up is
  // the reference the timed one's warm-up must repeat.
  std::vector<int64_t> first_store_work;
  {
    mmlib::Result<Prepared> first = Prepare(kind, args.seed, pool, true);
    if (!first.ok()) {
      std::cerr << "set-up failed: " << first.status() << "\n";
      return 1;
    }
    first_store_work = first.value().warmup_store_work;
  }
  mmlib::Result<Prepared> prepared = Prepare(kind, args.seed, pool, true);
  if (!prepared.ok()) {
    std::cerr << "set-up failed: " << prepared.status() << "\n";
    return 1;
  }
  Workload* workload = prepared.value().workload.get();
  Stores* stores = prepared.value().stores.get();
  const uint64_t misses_before = PlanCacheMisses();
  const std::vector<Iteration> its =
      RunTimed(workload, args.seconds / 2, kPrefix, &report);
  const uint64_t plan_misses = PlanCacheMisses() - misses_before;

  if (prepared.value().warmup_deterministic != plain_warmup ||
      PrefixDeterministic(its) != PrefixDeterministic(plain)) {
    report.Fail("traced and untraced runs differ in deterministic numbers");
  }
  if (prepared.value().warmup_store_work != first_store_work) {
    report.Fail("store calls and bytes differ between two traced set-ups");
  }
  const Tracer& tracer = *stores->tracer();
  if (tracer.misnested() != 0) {
    report.Fail("spans closed out of order");
  }
  const std::vector<Span>& spans = tracer.spans();

  auto wall_median = [&](bool save,
                         const std::function<uint64_t(const OpSample&)>& f) {
    std::vector<double> ms;
    for (const Iteration& it : its) {
      if (it.failed == 0) {
        ms.push_back(f(save ? it.save : it.recover) / 1e6);
      }
    }
    return NearestRank(ms, 50);
  };
  auto self_ms = [&](bool save) {
    return wall_median(save, [&](const OpSample& op) {
      return SelfWallNs(spans, op.span_id);
    });
  };
  auto busy_ms = [&](bool save, const char* layer) {
    return wall_median(save, [&](const OpSample& op) {
      return ChildWallNs(spans, op.span_id, layer);
    });
  };
  auto count = [&](const std::function<double(const Iteration&)>& f) {
    return PrefixMedian(its, f);
  };

  report.Add("core.save_self_ms", self_ms(true), "ms");
  report.Add("core.recover_self_ms", self_ms(false), "ms");
  report.Add("filestore.busy_ms_per_save", busy_ms(true, "filestore."), "ms");
  report.Add("filestore.busy_ms_per_recover", busy_ms(false, "filestore."),
             "ms");
  report.Add("filestore.bytes_written_per_save",
             count([](const Iteration& it) {
               return static_cast<double>(it.save.files.bytes_written);
             }),
             "B");
  report.Add("filestore.bytes_read_per_recover",
             count([](const Iteration& it) {
               return static_cast<double>(it.recover.files.bytes_read);
             }),
             "B");
  report.Add("filestore.calls_per_recover",
             count([](const Iteration& it) {
               return static_cast<double>(it.recover.files.calls);
             }),
             "count");
  report.Add("docstore.calls_per_save", count([](const Iteration& it) {
               return static_cast<double>(it.save.docs.calls);
             }),
             "count");
  report.Add("docstore.calls_per_recover", count([](const Iteration& it) {
               return static_cast<double>(it.recover.docs.calls);
             }),
             "count");
  report.Add("docstore.busy_ms_per_recover", busy_ms(false, "docstore."),
             "ms");
  report.Add("simnet.bytes_per_save", count([](const Iteration& it) {
               return static_cast<double>(it.save.net_bytes);
             }),
             "B");
  report.Add("simnet.bytes_per_recover", count([](const Iteration& it) {
               return static_cast<double>(it.recover.net_bytes);
             }),
             "B");
  AddProbes(*workload, args.seed, pool, &report);
  report.Add("kernels.plan_cache_misses", static_cast<double>(plan_misses),
             "count");
  report.Add("trace.overhead_tts_ms",
             NearestRank(WallMs(its, true), 50) -
                 NearestRank(WallMs(plain, true), 50),
             "ms");
  report.Add("trace.overhead_ttr_ms",
             NearestRank(WallMs(its, false), 50) -
                 NearestRank(WallMs(plain, false), 50),
             "ms");

  std::cout << "timed iterations: untraced " << plain.size() << ", traced "
            << its.size() << "; spans " << spans.size() << "\n";
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << tracer.ChromeTraceJson();
    if (!out) {
      report.Fail("could not write " + args.trace_out);
    } else {
      std::cout << "chrome trace: " << args.trace_out << "\n";
    }
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Before anything touches the process-wide pool.
  setenv("MMLIB_THREADS", std::to_string(kPoolThreads).c_str(), 1);

  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <ba_snapshot|pua_chain|"
                 "mpa_replay> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n";
    return 2;
  }
  mmlib::Result<WorkloadKind> kind = ParseWorkload(args.workload);
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 2;
  }
  std::cout << "workload " << args.workload << ", seed " << args.seed
            << ", seconds " << args.seconds << ", trace " << args.trace
            << "\nhost: nproc " << sysconf(_SC_NPROCESSORS_ONLN) << ", L2 "
            << L2Size() << "; pool threads " << kPoolThreads
            << ", chain depth " << Workload::ChainDepth(kind.value())
            << ", single client, closed loop\n";
  mmlib::util::ThreadPool pool(kPoolThreads);
  return args.trace ? RunTraced(kind.value(), args, &pool)
                    : RunEndToEnd(kind.value(), args, &pool);
}
