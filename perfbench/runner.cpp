// perfbench runner: the client side of the end-to-end benchmark.
//
//   perfbench_runner --workload NAME --seed N --seconds S
//                    --server PATH --dealer PATH --work-dir DIR
//                    --cache-dir DIR --out FILE [--trace-dir DIR]
//
// Starts the shipped abnn2_server binary as a child process and plays the
// client by calling core::InferenceClient over SocketChannel +
// FramedChannel, exactly as abnn2_client does: one connection per client
// for all of its batches. Load is a closed loop of `clients` threads. The
// run is a sequence of cycles until S seconds have passed; a cycle starts a
// fresh server, connects every client, runs one set-up batch per client
// (it pays the per-connection base OTs and is reported as set-up, never as
// latency), then timed batches until the cycle's quota or the clock runs
// out, and stops the server with SIGTERM (graceful drain, exit 0).
//
// The WAN workload first self-tests the shaping proxy on a bare transfer
// (shaper.h) and sends every cycle through it; an untraced WAN run ends
// with one unshaped cycle whose batch latencies are the compute term of the
// NetworkModel prediction that run.py puts beside the measured latency.
//
// Every batch's logits are compared with nn::infer_plain on the same
// input; the references are computed before the first cycle. No batch is
// retried: an exception, a BUSY reply, a pool miss on the warm workload or
// a wrong logit marks the batch failed.
//
// Nothing process-global is changed: both processes run the shipped
// defaults. Tracing is on only when ABNN2_TRACE is set in this process's
// environment (the same switch the shipped tools read); --trace-dir then
// gives every server process its own ABNN2_TRACE file.
//
// The raw samples go to --out as JSON; run.py turns them into metrics.
#include <fcntl.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <signal.h>
#include <immintrin.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/inference.h"
#include "net/channel.h"
#include "net/framed_channel.h"
#include "net/socket_channel.h"
#include "nn/model_io.h"
#include "obs/obs.h"
#include "offline/pool.h"
#include "ot/backend.h"
#include "shaper.h"

extern char** environ;

namespace fs = std::filesystem;
using namespace abnn2;

namespace {

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  const char* scheme;    // nn::FragScheme spec of the Fig-4 FC net
  std::size_t batch;     // images per batch
  int clients;           // concurrent connections (closed loop)
  ot::OtBackendKind ot;  // negotiated OT-extension backend
  bool pooled;           // server gets dealt bundles via --pool-dir
  bool wan;              // traffic goes through the shaping proxy
  int quota;             // timed batches per client per server process
  int warmup;            // batches per client of the untimed warm-up cycle
};

// The warm quota is bounded by the dealt bundles: every batch of one
// server process (set-up ones included) checks out a bundle it has not used.
constexpr Workload kWorkloads[] = {
    {"lan-cold-fc-b1", "s(2,2,2,2)", 1, 1, ot::OtBackendKind::kIknp, false,
     false, 8, 2},
    {"lan-warm-fc-b8x2", "s(2,2,2,2)", 8, 2, ot::OtBackendKind::kIknp, true,
     false, 30, 10},
    {"wan-silent-ternary-b1", "ternary", 1, 1, ot::OtBackendKind::kSilent,
     false, true, 3, 1},
};

constexpr std::size_t kRingBits = 32;
// Fixed model weights: every run and every seed serves the same model, so
// the seed only picks the inputs and dealt bundles stay valid across runs.
constexpr Block kModelSeed{0xABB2, 0xF164};
// The dealer is deterministic for a fixed seed, so dealt bundles are cached
// per checkout and shared by every workload seed.
constexpr u64 kDealerSeed = 0xDEA1;
constexpr std::size_t kInputsPerClient = 4;
constexpr int kCalibrationBatches = 3;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- child processes --------------------------------------------------------

/// A child process that is killed (SIGKILL) and reaped if still running when
/// the guard goes away, so no exit path leaves a server behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::vector<std::string>& env,
        const std::string& out_path, const std::string& err_path) {
    std::vector<char*> av, ev;
    for (const auto& a : argv) av.push_back(const_cast<char*>(a.c_str()));
    av.push_back(nullptr);
    for (const auto& e : env) ev.push_back(const_cast<char*>(e.c_str()));
    ev.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Async-signal-safe calls only between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out < 0 || err < 0) ::_exit(127);
      ::dup2(out, STDOUT_FILENO);
      ::dup2(err, STDERR_FILENO);
      ::execve(av[0], av.data(), ev.data());
      ::_exit(127);
    }
  }
  ~Child() {
    if (running()) {
      ::kill(pid_, SIGKILL);
      int st = 0;
      ::waitpid(pid_, &st, 0);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return !status_.has_value(); }
  /// Non-blocking reap; true once the child has exited.
  bool poll_exit() {
    if (!running()) return true;
    int st = 0;
    if (::waitpid(pid_, &st, WNOHANG) == pid_) status_ = st;
    return !running();
  }
  /// Exit code, or 128 + signal for a killed child.
  int exit_code() const {
    if (!status_) return -1;
    return WIFEXITED(*status_) ? WEXITSTATUS(*status_) : 128 + WTERMSIG(*status_);
  }
  /// Waits up to `timeout_s`; escalates to SIGKILL after that.
  int wait(double timeout_s) {
    const double end = now_s() + timeout_s;
    while (!poll_exit()) {
      if (now_s() > end) {
        ::kill(pid_, SIGKILL);
        int st = 0;
        ::waitpid(pid_, &st, 0);
        status_ = st;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return exit_code();
  }
  int terminate(double timeout_s) {
    if (running()) ::kill(pid_, SIGTERM);
    return wait(timeout_s);
  }

 private:
  pid_t pid_ = -1;
  std::optional<int> status_;
};

/// The parent's environment without ABNN2_* variables (both processes run
/// the shipped defaults), plus `extra`.
std::vector<std::string> clean_env(const std::vector<std::string>& extra) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "ABNN2_", 6) != 0) env.emplace_back(*e);
  env.insert(env.end(), extra.begin(), extra.end());
  return env;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// A currently free loopback port (bound and released; the server binds it
/// a moment later).
u16 free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof a;
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0)
    throw std::runtime_error("cannot pick a free loopback port");
  ::close(fd);
  return ntohs(a.sin_port);
}

// ---- /proc -----------------------------------------------------------------

/// CPU time (user + sys) of every live thread of `pid` except `skip`, in
/// seconds: the sum of each thread's /proc schedstat run time, which is
/// exact to the nanosecond where the tick-sampled utime/stime are not.
double cpu_seconds(pid_t pid, const std::vector<pid_t>& skip) {
  double total = 0;
  std::error_code ec;
  for (fs::directory_iterator it("/proc/" + std::to_string(pid) + "/task", ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(it->path().filename().c_str(), nullptr, 10));
    if (std::find(skip.begin(), skip.end(), tid) != skip.end()) continue;
    total += std::strtod(read_file(it->path() / "schedstat").c_str(), nullptr);
  }
  return total * 1e-9;
}

/// Machine-wide CPU ticks from /proc/stat: {steal, all}. Steal is time the
/// hypervisor ran something else while this VM wanted a CPU; the runner
/// reports its share of the timed windows next to the metrics, since it
/// stretches every wall-clock number.
std::pair<double, double> cpu_ticks() {
  std::istringstream is(read_file("/proc/stat"));
  std::string cpu;
  is >> cpu;
  double v = 0, all = 0, steal = 0;
  for (int i = 0; i < 8 && is >> v; ++i) {
    all += v;
    if (i == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, all};
}

/// VmHWM (peak resident set) of a process, in MB.
double peak_rss_mb(pid_t pid) {
  std::istringstream is(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

// ---- idle polling ----------------------------------------------------------

/// One SCHED_IDLE thread per CPU spinning on `pause`: the effect of the
/// kernel's idle=poll, for the WAN workload only. Every other thread
/// preempts them at once, but no CPU ever halts. On a virtual machine a
/// halted vCPU can take milliseconds to wake, and whether it halts depends
/// on what else the host runs; the WAN workload sleeps on the link between
/// its 42 round trips, so without this its latency swings by ±10 % from run
/// to run. The compute-bound LAN workloads run without: with the pollers on,
/// their latency rose by about 13 % in a trial. The pollers' CPU time is
/// left out of cpu_s_per_batch.
class IdlePoller {
 public:
  IdlePoller() : tids_(std::max(1u, std::thread::hardware_concurrency())) {
    for (std::size_t i = 0; i < tids_.size(); ++i)
      threads_.emplace_back([this, i] {
        sched_param sp{};
        ::sched_setscheduler(0, SCHED_IDLE, &sp);  // this thread only
        tids_[i].store(static_cast<pid_t>(::syscall(SYS_gettid)));
        while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
      });
  }
  ~IdlePoller() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

  std::vector<pid_t> tids() const {
    std::vector<pid_t> v;
    for (const auto& t : tids_) v.push_back(t.load());
    return v;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::atomic<pid_t>> tids_;
  std::vector<std::thread> threads_;
};

// ---- results ---------------------------------------------------------------

/// Warm-up: one untimed cycle first, so the runner process's lazy set-up
/// (page faults, the runtime pool, key schedules) and the CPU's clock ramp
/// are not in the first timed batches. Calibration: the unshaped cycle of
/// the WAN workload. Only kMeasure cycles feed the metrics.
enum class Phase { kWarmup, kMeasure, kCalibration };

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kWarmup: return "warmup";
    case Phase::kMeasure: return "measure";
    case Phase::kCalibration: return "calibration";
  }
  return "?";
}

struct BatchRecord {
  Phase phase = Phase::kMeasure;
  int client = 0;
  bool setup = false;
  bool ok = false;
  std::size_t input = 0;  // index into the client's inputs
  std::string error;
  double offline_ms = 0, online_ms = 0, latency_ms = 0, checkout_ms = 0;
  double shaper_ms = 0;
  u64 bytes = 0, rounds = 0;
};

struct CycleRecord {
  double setup_s = 0;  // server spawn -> every client's set-up batch done
  double timed_s = 0;  // timed window (set-up barrier -> last client done)
  double cpu_s = 0;    // both processes, over the timed window
  double steal = 0;    // share of the machine's CPU time stolen, same window
  double server_peak_rss_mb = 0;
  std::vector<double> connect_ms;
  std::string server_trace;
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- the benchmark ------------------------------------------------------------

struct Options {
  std::string workload, server, dealer, work_dir, cache_dir, out, trace_dir;
  u64 seed = 1;
  double seconds = 10;
};

class Runner {
 public:
  Runner(const Options& o, const Workload& w)
      : o_(o), w_(w), ring_(kRingBits), cfg_(ring_) {
    cfg_.ot_backend = w.ot;
    model_ = nn::fig4_model(ring_, nn::FragScheme::parse(w.scheme), kModelSeed);
    model_path_ = o.work_dir + "/model.mdl";
    nn::save_model(model_, model_path_);
    for (int c = 0; c < w.clients; ++c) {
      std::vector<nn::MatU64> xs, refs;
      for (std::size_t i = 0; i < kInputsPerClient; ++i) {
        xs.push_back(nn::synthetic_images(
            model_.input_dim(), w.batch, kRingBits / 2, ring_,
            Block{o.seed, static_cast<u64>(c) * 1000 + i}));
        refs.push_back(nn::infer_plain(model_, xs.back()));
      }
      inputs_.push_back(std::move(xs));
      refs_.push_back(std::move(refs));
    }
    next_input_.assign(w.clients, 0);
  }

  void run() {
    if (w_.wan) {
      poller_.emplace();
      const std::string err =
          perfbench::self_test_shaper(kWanQuotient.bandwidth_bytes_per_s,
                                      kWanQuotient.rtt_s, selftest_);
      if (!err.empty()) throw std::runtime_error("shaper self-test: " + err);
    }
    if (w_.pooled) deal();
    run_cycle(0, HUGE_VAL, Phase::kWarmup);
    // Client spans before this instant belong to the warm-up.
    if (const obs::Collector* c = obs::collector()) trace_start_us_ = c->now_us();

    const double end = now_s() + o_.seconds;
    for (int cycle = 0; !failed_; ++cycle) {
      const double left = end - now_s();
      if (cycle > 0 && (left <= 0 || left < 1.5 * cycles_.back().setup_s)) break;
      run_cycle(cycle, end, Phase::kMeasure);
    }
    if (w_.wan && o_.trace_dir.empty() && !failed_)
      run_cycle(0, HUGE_VAL, Phase::kCalibration);
  }

  void write(const std::string& path) const {
    std::ostringstream os;
    os << "{\"workload\":" << json_str(w_.name) << ",\"seed\":" << o_.seed
       << ",\"batch\":" << w_.batch << ",\"clients\":" << w_.clients
       << ",\"inputs_per_client\":" << kInputsPerClient
       << ",\"ot_backend\":" << json_str(ot::to_string(w_.ot))
       << ",\"wan\":{\"bandwidth_bytes_per_s\":"
       << num(kWanQuotient.bandwidth_bytes_per_s)
       << ",\"rtt_s\":" << num(kWanQuotient.rtt_s) << "}";
    if (w_.wan)
      os << ",\"shaper_selftest\":{\"rtt_ms\":" << num(selftest_.rtt_ms)
         << ",\"bandwidth_mb_s\":" << num(selftest_.bandwidth_mb_s) << "}";
    if (w_.pooled)
      os << ",\"dealer\":{\"paid\":" << (dealer_paid_ ? "true" : "false")
         << ",\"ms_per_bundle\":" << num(dealer_ms_per_bundle_)
         << ",\"bundles\":" << bundles_needed() << "}";
    os << ",\"client_trace\":" << json_str(obs::trace_path())
       << ",\"client_trace_start_us\":" << num(trace_start_us_);
    os << ",\"batches\":[";
    for (std::size_t i = 0; i < batches_.size(); ++i) {
      const BatchRecord& b = batches_[i];
      os << (i ? "," : "") << "\n{\"phase\":" << json_str(phase_name(b.phase))
         << ",\"client\":" << b.client
         << ",\"setup\":" << (b.setup ? "true" : "false")
         << ",\"ok\":" << (b.ok ? "true" : "false")
         << ",\"input\":" << b.input
         << ",\"error\":" << json_str(b.error)
         << ",\"latency_ms\":" << num(b.latency_ms)
         << ",\"offline_ms\":" << num(b.offline_ms)
         << ",\"online_ms\":" << num(b.online_ms)
         << ",\"checkout_ms\":" << num(b.checkout_ms)
         << ",\"shaper_ms\":" << num(b.shaper_ms) << ",\"bytes\":" << b.bytes
         << ",\"rounds\":" << b.rounds << "}";
    }
    os << "],\"cycles\":[";
    for (std::size_t i = 0; i < cycles_.size(); ++i) {
      const CycleRecord& c = cycles_[i];
      os << (i ? "," : "") << "\n{\"setup_s\":" << num(c.setup_s)
         << ",\"timed_s\":" << num(c.timed_s) << ",\"cpu_s\":" << num(c.cpu_s)
         << ",\"steal\":" << num(c.steal)
         << ",\"server_peak_rss_mb\":" << num(c.server_peak_rss_mb)
         << ",\"server_trace\":" << json_str(c.server_trace)
         << ",\"connect_ms\":[";
      for (std::size_t k = 0; k < c.connect_ms.size(); ++k)
        os << (k ? "," : "") << num(c.connect_ms[k]);
      os << "]}";
    }
    os << "],\"errors\":[";
    for (std::size_t i = 0; i < errors_.size(); ++i)
      os << (i ? "," : "") << json_str(errors_[i]);
    os << "]}\n";
    std::ofstream f(path, std::ios::trunc);
    f << os.str();
    if (!f) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::size_t bundles_needed() const {
    // Set-up + quota batches per client, one spare so the server's refill
    // producer (target depth 1) never starts dealing during a cycle.
    return static_cast<std::size_t>(w_.clients) *
               (1 + static_cast<std::size_t>(w_.quota)) + 1;
  }

  offline::MaterialKey key() const {
    return offline::MaterialKey{nn::model_digest(model_), kRingBits, w_.batch,
                                static_cast<u64>(w_.ot)};
  }

  /// Deals the warm pool with the shipped abnn2_offline, outside every timed
  /// window, or reuses an earlier deal of the same model, batch, count and
  /// dealer seed.
  void deal() {
    const std::size_t n = bundles_needed();
    const offline::MaterialKey k = key();
    const std::string tag = offline::MaterialPool::file_name(k, offline::Side::kServer);
    pool_dir_ = o_.cache_dir + "/deal-" + tag.substr(0, tag.find(".server")) +
                "-n" + std::to_string(n) + "-s" + std::to_string(kDealerSeed);
    const std::string meta = pool_dir_ + "/dealer_ms_per_bundle";
    if (fs::exists(meta)) {
      dealer_ms_per_bundle_ = std::stod(read_file(meta));
      return;
    }
    const std::string tmp = pool_dir_ + ".tmp";
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    const double t = now_s();
    Child dealer({o_.dealer, model_path_, tmp, "--count", std::to_string(n),
                  "--batch", std::to_string(w_.batch), "--seed",
                  std::to_string(kDealerSeed), "--ot-backend",
                  ot::to_string(w_.ot)},
                 clean_env({}), o_.work_dir + "/dealer.out",
                 o_.work_dir + "/dealer.err");
    const int rc = dealer.wait(600);
    if (rc != 0)
      throw std::runtime_error("abnn2_offline exited with " + std::to_string(rc) +
                               ": " + read_file(o_.work_dir + "/dealer.err"));
    dealer_ms_per_bundle_ = (now_s() - t) * 1e3 / static_cast<double>(n);
    dealer_paid_ = true;
    std::ofstream(tmp + "/dealer_ms_per_bundle") << num(dealer_ms_per_bundle_);
    fs::remove_all(pool_dir_);
    fs::rename(tmp, pool_dir_);
  }

  /// One server process: set-up batches, then timed batches until `end`
  /// (steady clock) or the quota. A calibration cycle connects without the
  /// shaper; only measured cycles are traced.
  void run_cycle(int cycle, double end, Phase phase) {
    const bool shaped = w_.wan && phase != Phase::kCalibration;
    const bool traced = !o_.trace_dir.empty() && phase == Phase::kMeasure;
    CycleRecord rec;
    const u16 port = free_port();
    std::unique_ptr<perfbench::ShapingProxy> proxy;
    if (shaped)
      proxy = std::make_unique<perfbench::ShapingProxy>(
          port, kWanQuotient.bandwidth_bytes_per_s, kWanQuotient.rtt_s);
    const u16 client_port = proxy ? proxy->port() : port;

    std::vector<std::string> argv = {o_.server, model_path_, std::to_string(port),
                                     "--ot-backend", ot::to_string(w_.ot)};
    if (w_.pooled) {
      argv.push_back("--pool-dir");
      argv.push_back(pool_dir_);
    }
    std::vector<std::string> extra;
    if (traced) {
      rec.server_trace = o_.trace_dir + "/server-" + std::to_string(cycle) + ".json";
      extra.push_back("ABNN2_TRACE=" + rec.server_trace);
    }
    // Per-cycle logs, removed first: a stale "serving on" line must never
    // pass for the new server's.
    const std::string log = o_.work_dir + "/server-" + phase_name(phase) +
                            std::to_string(cycle);
    const std::string out = log + ".out", err = log + ".err";
    fs::remove(out);

    const double t_spawn = now_s();
    Child server(argv, clean_env(extra), out, err);
    // Ready once the listener is bound and the pool loaded: abnn2_server
    // prints (and flushes) its "serving on" line right after that.
    while (read_file(out).find("serving on") == std::string::npos) {
      if (server.poll_exit() || now_s() - t_spawn > 60)
        throw std::runtime_error("abnn2_server did not start (exit " +
                                 std::to_string(server.exit_code()) +
                                 "): " + read_file(err));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }

    std::optional<offline::MaterialPool> pool;
    if (w_.pooled) {
      // A fresh copy of the client halves per server process: that process
      // has used none of the bundles yet.
      pool.emplace();
      pool->load(pool_dir_ + "/" +
                 offline::MaterialPool::file_name(key(), offline::Side::kClient));
    }

    const int n = w_.clients;
    std::vector<std::vector<BatchRecord>> recs(n);
    std::vector<double> connect_ms(n, 0);
    // CPU of both processes, without the benchmark's own proxy and pollers.
    // The client threads are alive at both snapshots: the timed window opens
    // and closes on a barrier they all pass.
    std::vector<pid_t> skip = poller_ ? poller_->tids() : std::vector<pid_t>{};
    if (proxy) skip.push_back(proxy->thread_tid());
    const auto cpu_now = [&] {
      return cpu_seconds(::getpid(), skip) + cpu_seconds(server.pid(), {});
    };
    double t_timed = 0, t_done = 0, cpu_start = 0, cpu_end = 0;
    std::pair<double, double> ticks_start, ticks_end;
    std::barrier sync(n, [&]() noexcept {
      t_timed = now_s();
      cpu_start = cpu_now();
      ticks_start = cpu_ticks();
    });
    std::barrier done(n, [&]() noexcept {
      t_done = now_s();
      cpu_end = cpu_now();
      ticks_end = cpu_ticks();
    });
    const int quota = phase == Phase::kMeasure  ? w_.quota
                      : phase == Phase::kWarmup ? w_.warmup
                                                : kCalibrationBatches;

    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        std::unique_ptr<SocketChannel> sock;
        std::unique_ptr<FramedChannel> ch;
        std::unique_ptr<core::InferenceClient> client;
        const auto batch = [&](bool setup) {
          BatchRecord b;
          b.phase = phase;
          b.client = c;
          b.setup = setup;
          // Set-up batches always use input 0; timed batches walk the inputs
          // across cycles, so a run covers each of them.
          const std::size_t idx =
              setup ? 0 : next_input_[c]++ % kInputsPerClient;
          b.input = idx;
          try {
            if (pool) {
              const double tc = now_s();
              auto m = pool->checkout_client(key());
              if (!m) throw std::runtime_error("client pool exhausted");
              client->install_material(std::move(m->second.info),
                                       std::move(m->second.r),
                                       std::move(m->second.v), m->first);
              b.checkout_ms = (now_s() - tc) * 1e3;
            }
            const ChannelStats s0 = ch->snapshot();
            const double h0 = proxy ? proxy->held_seconds() : 0;
            const double ta = now_s();
            client->run_offline(*ch, w_.batch);
            const double tb = now_s();
            const nn::MatU64 logits = client->run_online(*ch, inputs_[c][idx]);
            const double tc = now_s();
            const ChannelStats d = ch->snapshot() - s0;
            b.offline_ms = (tb - ta) * 1e3;
            b.online_ms = (tc - tb) * 1e3;
            b.latency_ms = (tc - ta) * 1e3;
            b.shaper_ms = proxy ? (proxy->held_seconds() - h0) * 1e3 : 0;
            b.bytes = d.total_bytes();
            b.rounds = d.rounds;
            if (logits != refs_[c][idx])
              b.error = "logits differ from the plaintext reference";
            else if (client->resumed() != w_.pooled)
              b.error = w_.pooled ? "pool miss: the offline phase ran in full"
                                  : "unexpected resume";
            b.ok = b.error.empty();
          } catch (const std::exception& e) {
            b.error = e.what();
          }
          recs[c].push_back(b);
          return b.ok;
        };
        bool alive = false;
        try {
          const double tc = now_s();
          SocketOptions so;
          so.recv_timeout_ms = 60'000;  // abnn2_client's default
          sock = SocketChannel::connect("127.0.0.1", client_port, so);
          connect_ms[c] = (now_s() - tc) * 1e3;
          ch = std::make_unique<FramedChannel>(*sock);
          client = std::make_unique<core::InferenceClient>(cfg_);
          alive = batch(/*setup=*/true);
        } catch (const std::exception& e) {
          BatchRecord b;
          b.phase = phase;
          b.client = c;
          b.setup = true;
          b.error = std::string("connect: ") + e.what();
          recs[c].push_back(b);
        }
        sync.arrive_and_wait();
        for (int k = 0; alive && k < quota && now_s() < end; ++k)
          alive = batch(/*setup=*/false);
        done.arrive_and_wait();
      });
    }
    for (auto& t : threads) t.join();
    rec.setup_s = t_timed - t_spawn;
    rec.timed_s = t_done - t_timed;
    rec.cpu_s = cpu_end - cpu_start;
    const double all = ticks_end.second - ticks_start.second;
    rec.steal = all > 0 ? (ticks_end.first - ticks_start.first) / all : 0;
    rec.server_peak_rss_mb = peak_rss_mb(server.pid());
    rec.connect_ms = connect_ms;
    const int server_exit = server.terminate(30);
    if (server_exit != 0)
      errors_.push_back("abnn2_server exited with " +
                        std::to_string(server_exit) + ": " + read_file(err));

    for (auto& per_client : recs)
      for (auto& b : per_client) {
        if (!b.ok) {
          failed_ = true;
          errors_.push_back(b.error);
        }
        batches_.push_back(std::move(b));
      }
    if (server_exit != 0) failed_ = true;
    if (phase == Phase::kMeasure) cycles_.push_back(std::move(rec));
  }

  const Options& o_;
  const Workload& w_;
  ss::Ring ring_;
  core::InferenceConfig cfg_;
  nn::Model model_{ss::Ring(kRingBits)};
  std::string model_path_;
  std::vector<std::vector<nn::MatU64>> inputs_, refs_;
  std::vector<std::size_t> next_input_;  // per client, across cycles
  std::string pool_dir_;
  double dealer_ms_per_bundle_ = 0;
  bool dealer_paid_ = false;
  perfbench::ShaperSelfTest selftest_;
  bool failed_ = false;
  std::vector<BatchRecord> batches_;
  std::vector<CycleRecord> cycles_;
  double trace_start_us_ = 0;
  std::optional<IdlePoller> poller_;  // WAN only
  std::vector<std::string> errors_;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --server PATH "
               "--dealer PATH --work-dir DIR --cache-dir DIR --out FILE "
               "[--trace-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_trace_from_env();
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--server") o.server = v;
    else if (k == "--dealer") o.dealer = v;
    else if (k == "--work-dir") o.work_dir = v;
    else if (k == "--cache-dir") o.cache_dir = v;
    else if (k == "--out") o.out = v;
    else if (k == "--trace-dir") o.trace_dir = v;
    else return usage(argv[0]);
  }
  if (argc % 2 != 1 || o.server.empty() || o.dealer.empty() ||
      o.work_dir.empty() || o.cache_dir.empty() || o.out.empty())
    return usage(argv[0]);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (o.workload == cand.name) w = &cand;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  try {
    fs::create_directories(o.work_dir);
    fs::create_directories(o.cache_dir);
    if (!o.trace_dir.empty()) fs::create_directories(o.trace_dir);
    Runner d(o, *w);
    d.run();
    obs::flush_trace();
    d.write(o.out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
