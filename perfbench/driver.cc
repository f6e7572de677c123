// sortperf_driver: one launch of one CANONICALMERGESORT of Gray100 records,
// measured from the outside. run.py starts it once per sample; it never
// loops, so every launch pays its own fork, mesh connect, PeResources and
// input generation, and its peak RSS belongs to that one sort.
//
//   sortperf_driver --mode=sort   --pes=4 --records-per-pe=250000 ...
//   sortperf_driver --mode=traced --pes=4 --pes-per-node=2 --storage=file
//                   --file-dir=DIR ...
//
// The geometry is fixed: B = 128 KiB blocks, m = 1 MiB per PE, D = 4 disks
// per PE. The flags choose only what differs between workloads.
//
// --mode=sort    calls core::CanonicalMergeSort untraced.
// --mode=traced  calls each layer's public entry point itself — FormRuns,
//                ExternalSelector::SelectAllCollective, ExternalAllToAll,
//                FinalMerge — timing every call (busy) and the barrier that
//                follows it (wait), then runs the roofline probes: memcpy,
//                par::ParallelSort / par::MultiwayMerge on the workload's own
//                records, BlockManager::WriteAsync/ReadAsync at the
//                configured queue depth, and Comm::AlltoallvStream on the
//                workload's transport.
//
// Both modes validate the output with workload::ValidateCollective. Rank 0
// gathers every rank's measurements over the transport and prints them as
// one JSON line ({"ranks": [...]}); the launching process prints a second
// line with the peak RSS of the largest process and the minor page faults
// of all of them. run.py turns these lines into the benchmark's metrics.
// Exit code 0 means the sort ran and passed validation; 1 means it failed
// validation; 2 means it could not run.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical_mergesort.h"
#include "net/cluster.h"
#include "net/hierarchical_transport.h"
#include "net/tcp_transport.h"
#include "net/topology.h"
#include "par/multiway_merge.h"
#include "par/parallel_sort.h"
#include "util/aligned_buffer.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workload/generators.h"
#include "workload/validator.h"

namespace {

using namespace demsort;
using core::Gray100;
using core::Phase;

constexpr int kNumPhases = static_cast<int>(Phase::kNumPhases);
constexpr size_t kBlockSize = 128 * 1024;
constexpr size_t kMemoryPerPe = 1024 * 1024;
constexpr uint32_t kDisksPerPe = 4;

struct Options {
  bool traced = false;
  int pes = 4;
  int pes_per_node = 0;  // 0: every PE a thread of this process
  uint64_t records_per_pe = 0;
  bool skewed = false;
  int64_t launch_ns = 0;  // the launcher's CLOCK_MONOTONIC at exec
  core::SortConfig config;
};

/// Everything one rank measured, sent to rank 0 as one trivially copyable
/// value. Times are seconds; "busy" is the time inside a layer call and
/// "wait" the barrier that follows it.
struct RankResult {
  uint8_t ok = 0;
  double setup_s = 0;     // launch -> opening barrier exit
  double sort_s = 0;      // opening barrier exit -> end of the final merge
  double generate_s = 0;  // workload::GenerateGray100
  double validate_s = 0;  // workload::ValidateCollective
  double busy_s[kNumPhases] = {};
  double wait_s[kNumPhases] = {};
  core::SortReport report;
  // Roofline probes (traced mode only); each is this rank's time for the
  // amount of work named beside it, run concurrently on every rank.
  double memcpy_s = 0;
  uint64_t memcpy_bytes = 0;
  uint64_t probe_records = 0;  // records per sort / merge probe
  double sort_1t_s = 0;
  double sort_wt_s = 0;  // at the workload's threads per PE
  double merge_1t_s = 0;
  double merge_wt_s = 0;
  uint64_t io_probe_bytes = 0;
  double io_probe_s = 0;
  uint64_t a2a_probe_bytes = 0;  // bytes this rank sent
  double a2a_probe_s = 0;
};
static_assert(std::is_trivially_copyable_v<RankResult>);

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Times `fn` between two barriers on every rank, so the probes of all
/// ranks overlap the way the phases they bound do.
template <typename Fn>
double TimedCollective(net::Comm& comm, const Fn& fn) {
  comm.Barrier();
  int64_t start = NowNanos();
  fn();
  double s = Seconds(start, NowNanos());
  comm.Barrier();
  return s;
}

/// This rank's input records, regenerated into memory with the same seed:
/// the in-memory sort and merge probes run on exactly the sort's keys.
std::vector<Gray100> ProbeRecords(const Options& options, int rank, int P) {
  io::BlockManager::Options bm_options;
  bm_options.num_disks = 1;
  bm_options.block_size = options.config.block_size;
  bm_options.async = false;
  io::BlockManager bm(bm_options);
  auto gen = workload::GenerateGray100(&bm, options.records_per_pe, rank, P,
                                       options.config.seed, options.skewed);
  const size_t epb = options.config.ElementsPerBlock<Gray100>();
  std::vector<Gray100> records(gen.input.num_elements);
  AlignedBuffer buffer(bm.block_size());
  uint64_t done = 0;
  for (io::BlockId id : gen.input.blocks) {
    bm.ReadSync(id, buffer.data());
    size_t count = static_cast<size_t>(
        std::min<uint64_t>(epb, records.size() - done));
    std::memcpy(records.data() + done, buffer.data(), count * sizeof(Gray100));
    done += count;
  }
  return records;
}

void RunProbes(core::PeContext& ctx, const Options& options,
               RankResult* result) {
  net::Comm& comm = *ctx.comm;
  using Less = core::RecordTraits<Gray100>::Less;

  // Host memcpy bandwidth, every rank at once.
  constexpr size_t kCopyBytes = 16u << 20;
  constexpr int kCopyReps = 8;
  std::vector<uint8_t> src(kCopyBytes, 1);
  std::vector<uint8_t> dst(kCopyBytes, 0);
  result->memcpy_bytes = kCopyBytes * kCopyReps;
  result->memcpy_s = TimedCollective(comm, [&] {
    for (int r = 0; r < kCopyReps; ++r) {
      src[static_cast<size_t>(r)] = static_cast<uint8_t>(r);
      std::memcpy(dst.data(), src.data(), kCopyBytes);
    }
  });
  DEMSORT_CHECK_EQ(dst[kCopyReps - 1], kCopyReps - 1);

  // par::ParallelSort on run-sized pieces of the workload's own records,
  // then par::MultiwayMerge of those pieces: the compute ceilings of run
  // formation and the final merge.
  const std::vector<Gray100> records =
      ProbeRecords(options, comm.rank(), comm.size());
  const size_t piece = std::max<size_t>(
      1, options.config.ElementsPerPeMemory<Gray100>());
  result->probe_records = records.size();
  par::ThreadPool one_thread(1);
  std::vector<Gray100> sorted;
  auto sort_pieces = [&](par::ThreadPool& pool) {
    sorted = records;
    return TimedCollective(comm, [&] {
      for (size_t lo = 0; lo < sorted.size(); lo += piece) {
        size_t n = std::min(piece, sorted.size() - lo);
        par::ParallelSort(pool, std::span<Gray100>(sorted.data() + lo, n),
                          Less());
      }
    });
  };
  result->sort_1t_s = sort_pieces(one_thread);
  result->sort_wt_s = sort_pieces(*ctx.pool);
  std::vector<std::span<const Gray100>> runs;
  for (size_t lo = 0; lo < sorted.size(); lo += piece) {
    runs.emplace_back(sorted.data() + lo, std::min(piece, sorted.size() - lo));
  }
  std::vector<Gray100> merged(sorted.size());
  result->merge_1t_s = TimedCollective(
      comm, [&] { par::MultiwayMerge(runs, merged.data(), Less()); });
  DEMSORT_CHECK(std::is_sorted(merged.begin(), merged.end(), Less()));
  result->merge_wt_s = TimedCollective(comm, [&] {
    par::ParallelMultiwayMerge(*ctx.pool, runs, merged.data(), Less());
  });
  DEMSORT_CHECK(std::is_sorted(merged.begin(), merged.end(), Less()));

  // Raw sequential bandwidth of this PE's BlockManager at the configured
  // queue depth: submit every write, reap them, then the same for reads.
  io::BlockManager* bm = ctx.bm;
  const size_t io_blocks = std::max<size_t>(
      8, (16u << 20) / bm->block_size());
  std::vector<io::BlockId> ids = bm->AllocateMany(io_blocks);
  std::vector<AlignedBuffer> buffers;
  buffers.reserve(io_blocks);
  for (size_t b = 0; b < io_blocks; ++b) {
    buffers.emplace_back(bm->block_size());
    std::memset(buffers.back().data(), static_cast<int>(b), bm->block_size());
  }
  result->io_probe_bytes = 2 * io_blocks * bm->block_size();
  result->io_probe_s = TimedCollective(comm, [&] {
    std::vector<io::Request> pending;
    pending.reserve(io_blocks);
    for (size_t b = 0; b < io_blocks; ++b) {
      pending.push_back(bm->WriteAsync(ids[b], buffers[b].data()));
    }
    io::WaitAllOk(pending);
    pending.clear();
    for (size_t b = 0; b < io_blocks; ++b) {
      pending.push_back(bm->ReadAsync(ids[b], buffers[b].data()));
    }
    io::WaitAllOk(pending);
  });
  for (io::BlockId id : ids) bm->Free(id);

  // Streaming all-to-all bandwidth on the workload's transport, with the
  // sort's own stream options.
  constexpr size_t kA2aBytes = 4u << 20;  // per destination
  constexpr int kA2aReps = 2;
  std::vector<uint8_t> payload(kA2aBytes, static_cast<uint8_t>(comm.rank()));
  uint64_t received = 0;
  const net::StreamOptions stream =
      options.config.StreamOptionsFor(sizeof(Gray100));
  result->a2a_probe_bytes =
      static_cast<uint64_t>(kA2aReps) * kA2aBytes * (comm.size() - 1);
  result->a2a_probe_s = TimedCollective(comm, [&] {
    for (int r = 0; r < kA2aReps; ++r) {
      comm.AlltoallvStream(
          [&](int) { return std::span<const uint8_t>(payload); },
          [&](int, std::span<const uint8_t> chunk, bool) {
            received += chunk.size();
          },
          nullptr, stream);
    }
  });
  DEMSORT_CHECK_EQ(received,
                   static_cast<uint64_t>(kA2aReps) * kA2aBytes * comm.size());
}

/// CanonicalMergeSort's phase sequence (core/canonical_mergesort.h, without
/// recovery), with every layer call and its closing barrier timed apart.
core::SortOutput<Gray100> TracedSort(core::PeContext& ctx,
                                     const core::SortConfig& config,
                                     const core::LocalInput& input,
                                     RankResult* result) {
  net::Comm& comm = *ctx.comm;
  core::PhaseCollector collector(ctx.comm, ctx.bm);
  auto timed = [&](Phase phase, const auto& call) {
    const int p = static_cast<int>(phase);
    collector.Begin(phase);
    int64_t start = NowNanos();
    call(&collector.stats(phase));
    int64_t done = NowNanos();
    comm.Barrier();
    result->busy_s[p] = Seconds(start, done);
    result->wait_s[p] = Seconds(done, NowNanos());
    collector.End(phase);
  };
  comm.Barrier();  // CanonicalMergeSort's own opening barrier
  core::RunFormationResult<Gray100> rf;
  timed(Phase::kRunFormation, [&](core::PhaseStats* s) {
    rf = core::FormRuns<Gray100>(ctx, config, input, s);
  });
  core::SplitterMatrix split;
  timed(Phase::kMultiwaySelection, [&](core::PhaseStats* s) {
    core::ExternalSelector<Gray100> selector(ctx, config, rf);
    split = selector.SelectAllCollective(s);
  });
  core::AllToAllResult<Gray100> redistributed;
  timed(Phase::kAllToAll, [&](core::PhaseStats* s) {
    redistributed = core::ExternalAllToAll<Gray100>(ctx, config, rf, split, s);
  });
  core::MergeOutput<Gray100> merged;
  timed(Phase::kFinalMerge, [&](core::PhaseStats* s) {
    merged = core::FinalMerge<Gray100>(
        ctx, config, std::move(redistributed.extents_per_run), s);
  });

  core::SortOutput<Gray100> out;
  out.blocks = std::move(merged.blocks);
  out.num_elements = merged.num_elements;
  out.num_runs = rf.table.num_runs();
  out.report.rank = comm.rank();
  out.report.num_pes = comm.size();
  out.report.num_runs = out.num_runs;
  out.report.peak_blocks = ctx.bm->peak_blocks_in_use();
  for (int p = 0; p < kNumPhases; ++p) {
    out.report.phase[p] = collector.stats(static_cast<Phase>(p));
  }
  return out;
}

/// The SPMD body of one PE: set-up, the sort, validation, probes.
RankResult RunOnePe(net::Comm& comm, const Options& options) {
  RankResult result;
  core::PeResources resources(&comm, options.config);
  core::PeContext& ctx = resources.ctx();
  int64_t gen_start = NowNanos();
  auto gen = workload::GenerateGray100(ctx.bm, options.records_per_pe,
                                       comm.rank(), comm.size(),
                                       options.config.seed, options.skewed);
  result.generate_s = Seconds(gen_start, NowNanos());
  comm.Barrier();  // the opening barrier: set-up ends, the sort begins
  int64_t open = NowNanos();
  result.setup_s = Seconds(options.launch_ns, open);
  core::SortOutput<Gray100> out =
      options.traced
          ? TracedSort(ctx, options.config, gen.input, &result)
          : core::CanonicalMergeSort<Gray100>(ctx, options.config, gen.input);
  result.sort_s = Seconds(open, NowNanos());
  result.report = out.report;
  int64_t validate_start = NowNanos();
  workload::ValidationResult v = workload::ValidateCollective<Gray100>(
      ctx, out.blocks, out.num_elements, gen.checksum);
  result.validate_s = Seconds(validate_start, NowNanos());
  result.ok = v.ok() && v.partition_exact ? 1 : 0;
  if (!result.ok) {
    std::fprintf(stderr, "rank %d: validation failed: %s\n", comm.rank(),
                 v.ToString().c_str());
  }
  for (io::BlockId id : out.blocks) ctx.bm->Free(id);
  if (options.traced) RunProbes(ctx, options, &result);
  return result;
}

// ------------------------------------------------------------- output ---

class JsonObject {
 public:
  void Add(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    Raw(key, buf);
  }
  void Add(const char* key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Raw(const char* key, const std::string& value) {
    text_ += text_.empty() ? "{" : ",";
    text_ += "\"";
    text_ += key;
    text_ += "\":";
    text_ += value;
  }
  std::string Close() const { return text_.empty() ? "{}" : text_ + "}"; }

 private:
  std::string text_;
};

std::string PhaseJson(const RankResult& r, int p) {
  const core::PhaseStats& s = r.report.phase[p];
  JsonObject j;
  j.Raw("name", std::string("\"") + core::PhaseName(static_cast<Phase>(p)) +
                    "\"");
  j.Add("wall_s", s.wall_s);
  j.Add("busy_s", r.busy_s[p]);
  j.Add("wait_s", r.wait_s[p]);
  j.Add("io_bytes", s.io.bytes());
  j.Add("io_ops", s.io.ops());
  j.Add("io_reads", s.io.reads);
  j.Add("io_qd_peak", s.io.queue_depth_peak);
  j.Add("io_qd_sum", s.io.queue_depth_sum);
  j.Add("io_submit_reap_ns", s.io.submit_complete_ns);
  j.Add("net_bytes", s.net.bytes_sent);
  j.Add("net_intra_bytes", s.net.intra_node_bytes);
  j.Add("net_inter_bytes", s.net.inter_node_bytes);
  j.Add("net_credit_msgs", s.net.credit_msgs);
  j.Add("net_piggybacked_credits", s.net.piggybacked_credits);
  j.Add("net_recv_buffer_peak", s.net.recv_buffer_peak_bytes);
  j.Add("net_pool_leases", s.net.pool_leases);
  j.Add("net_pool_hits", s.net.pool_hits);
  j.Add("selection_rounds", s.selection_rounds);
  j.Add("demand_fetches", s.demand_fetches);
  j.Add("merge_workers", s.merge_workers);
  j.Add("merge_cpu_ms", s.merge_cpu_ms);
  j.Add("merge_io_wait_ms", s.merge_io_wait_ms);
  return j.Close();
}

std::string RankJson(const RankResult& r) {
  JsonObject j;
  j.Add("ok", uint64_t{r.ok});
  j.Add("setup_s", r.setup_s);
  j.Add("sort_s", r.sort_s);
  j.Add("generate_s", r.generate_s);
  j.Add("validate_s", r.validate_s);
  j.Add("num_runs", r.report.num_runs);
  std::string phases = "[";
  for (int p = 0; p < kNumPhases; ++p) {
    if (p > 0) phases += ",";
    phases += PhaseJson(r, p);
  }
  j.Raw("phases", phases + "]");
  j.Add("memcpy_s", r.memcpy_s);
  j.Add("memcpy_bytes", r.memcpy_bytes);
  j.Add("probe_records", r.probe_records);
  j.Add("sort_1t_s", r.sort_1t_s);
  j.Add("sort_wt_s", r.sort_wt_s);
  j.Add("merge_1t_s", r.merge_1t_s);
  j.Add("merge_wt_s", r.merge_wt_s);
  j.Add("io_probe_bytes", r.io_probe_bytes);
  j.Add("io_probe_s", r.io_probe_s);
  j.Add("a2a_probe_bytes", r.a2a_probe_bytes);
  j.Add("a2a_probe_s", r.a2a_probe_s);
  return j.Close();
}

void PrintRanks(const std::vector<RankResult>& results) {
  std::string line = "{\"ranks\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) line += ",";
    line += RankJson(results[i]);
  }
  std::printf("%s]}\n", line.c_str());
  std::fflush(stdout);
}

/// The launch's peak RSS (largest process) and minor page faults (all
/// processes): first touches of fresh memory, which the memory backend's
/// blocks take on every launch.
void PrintProcessStats(long max_rss_kib, long minor_faults) {
  std::printf("{\"peak_rss_kib\":%ld,\"minor_faults\":%ld}\n", max_rss_kib,
              minor_faults);
  std::fflush(stdout);
}

/// Rank 0 gathers every rank's result over the transport and prints them;
/// the closing barrier keeps teardown off the wire while results travel.
/// Returns whether this rank passed validation (on rank 0: every rank).
bool GatherAndPrint(net::Comm& comm, const RankResult& mine) {
  constexpr int kResultTag = 7;
  bool ok = mine.ok != 0;
  if (comm.rank() == 0) {
    std::vector<RankResult> all(comm.size());
    all[0] = mine;
    for (int p = 1; p < comm.size(); ++p) {
      all[p] = comm.RecvValue<RankResult>(p, kResultTag);
      ok = ok && all[p].ok != 0;
    }
    PrintRanks(all);
  } else {
    comm.SendValue<RankResult>(0, kResultTag, mine);
  }
  comm.Barrier();
  return ok;
}

// ---------------------------------------------------------- launchers ---

int RunInProcess(const Options& options) {
  std::mutex mu;
  bool ok = true;
  try {
    net::Cluster::Run(options.pes, [&](net::Comm& comm) {
      bool rank_ok = GatherAndPrint(comm, RunOnePe(comm, options));
      std::lock_guard<std::mutex> lock(mu);
      ok = ok && rank_ok;
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sort failed: %s\n", e.what());
    return 2;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  PrintProcessStats(usage.ru_maxrss, usage.ru_minflt);
  return ok ? 0 : 1;
}

/// One node process of the two-level machine: its TCP uplink joins the
/// node mesh, a HierarchicalTransport fronts it for the node's PE threads.
int RunNode(const net::Topology& topo, int node, int listen_fd,
            const std::vector<net::TcpTransport::Peer>& peers,
            const Options& options) {
  auto uplink =
      net::TcpTransport::Connect(node, topo.num_nodes(), listen_fd, peers);
  if (!uplink.ok()) {
    std::fprintf(stderr, "node %d: %s\n", node,
                 uplink.status().ToString().c_str());
    return 2;
  }
  int exit_code = 0;
  {
    net::HierarchicalTransport hier(topo, node, uplink.value().get());
    std::vector<std::thread> threads;
    std::mutex mu;
    for (int lr = 0; lr < topo.node_size(node); ++lr) {
      const int rank = topo.node_first(node) + lr;
      threads.emplace_back([&, rank] {
        int rc = 0;
        try {
          net::Comm comm(rank, topo.num_pes(), &hier, &topo);
          rc = GatherAndPrint(comm, RunOnePe(comm, options)) ? 0 : 1;
        } catch (const net::CommError& e) {
          std::fprintf(stderr, "rank %d: peer failure: %s\n", rank, e.what());
          hier.KillPe(rank, e.status());
          rc = 2;
        }
        std::lock_guard<std::mutex> lock(mu);
        exit_code = std::max(exit_code, rc);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  return exit_code;
}

/// Forks one process per node and reaps them all. A failed node kills the
/// survivors (they would wait on it forever). The launcher prints the
/// largest peak RSS among its node processes and their minor page faults.
int RunNodeProcesses(const Options& options) {
  net::Topology topo =
      net::Topology::Uniform(options.pes, options.pes_per_node);
  const int N = topo.num_nodes();
  auto listeners = net::CreateLoopbackListeners(N);
  if (!listeners.ok()) {
    std::fprintf(stderr, "listeners: %s\n",
                 listeners.status().ToString().c_str());
    return 2;
  }
  auto peers = net::LoopbackPeers(listeners.value());
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> alive;
  for (int node = 0; node < N; ++node) {
    pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      for (pid_t child : alive) ::kill(child, SIGKILL);
      for (pid_t child : alive) ::waitpid(child, nullptr, 0);
      return 2;
    }
    if (pid == 0) {
      for (int other = 0; other < N; ++other) {
        if (other != node) ::close(listeners.value()[other].fd);
      }
      int rc = RunNode(topo, node, listeners.value()[node].fd, peers, options);
      std::fflush(stdout);
      std::fflush(stderr);
      std::_Exit(rc);
    }
    alive.push_back(pid);
  }
  for (const net::TcpListener& l : listeners.value()) ::close(l.fd);
  int exit_code = 0;
  long max_rss_kib = 0;
  long minor_faults = 0;
  while (!alive.empty()) {
    int status = 0;
    rusage usage{};
    pid_t pid = ::wait4(-1, &status, 0, &usage);
    if (pid < 0) break;
    alive.erase(std::remove(alive.begin(), alive.end(), pid), alive.end());
    max_rss_kib = std::max(max_rss_kib, usage.ru_maxrss);
    minor_faults += usage.ru_minflt;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      if (exit_code == 0) {
        exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
      }
      for (pid_t survivor : alive) ::kill(survivor, SIGKILL);
    }
  }
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  PrintProcessStats(max_rss_kib, minor_faults + self.ru_minflt);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Options options;
  const std::string mode = flags.GetString("mode", "sort");
  if (mode != "sort" && mode != "traced") {
    std::fprintf(stderr, "--mode must be 'sort' or 'traced'\n");
    return 2;
  }
  options.traced = mode == "traced";
  options.pes = static_cast<int>(flags.GetInt("pes", 4));
  options.pes_per_node = static_cast<int>(flags.GetInt("pes-per-node", 0));
  options.records_per_pe =
      static_cast<uint64_t>(flags.GetInt("records-per-pe", 250000));
  options.skewed = flags.GetBool("skewed", false);
  options.launch_ns = flags.GetInt("launch-ns", NowNanos());
  if (options.pes < 1 || options.pes_per_node < 0 ||
      options.records_per_pe < 1) {
    std::fprintf(stderr, "need --pes >= 1, --pes-per-node >= 0, "
                         "--records-per-pe >= 1\n");
    return 2;
  }

  const int64_t threads = flags.GetInt("threads", 1);
  if (threads < 1 || threads > 256) {
    std::fprintf(stderr, "need --threads in [1, 256]\n");
    return 2;
  }
  core::SortConfig& config = options.config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.block_size = kBlockSize;
  config.memory_per_pe = kMemoryPerPe;
  config.disks_per_pe = kDisksPerPe;
  config.threads_per_pe = static_cast<uint32_t>(threads);
  auto backend = io::ParseBackendKind(flags.GetString("storage", "memory"));
  if (!backend.ok()) {
    std::fprintf(stderr, "--storage: %s\n",
                 backend.status().ToString().c_str());
    return 2;
  }
  config.backend = backend.value();
  config.file_dir = flags.GetString("file-dir", "");
  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n", valid.ToString().c_str());
    return 2;
  }
  if (options.pes_per_node > 0) return RunNodeProcesses(options);
  return RunInProcess(options);
}
