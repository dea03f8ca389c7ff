// One-thread TCP shaping proxy: a WAN link on loopback without `tc`.
//
// Listens on an ephemeral loopback port and forwards every accepted
// connection to 127.0.0.1:<upstream_port>. Each direction of each
// connection is shaped independently, like one direction of a WAN link:
//
//  - per-message delay: bytes leave no earlier than rtt/2 after they
//    reached the proxy's socket (the kernel's receive timestamp, so a late
//    wake-up of the proxy thread is not added on top): a ping-pong costs
//    one rtt;
//  - token bucket: tokens accrue at `bandwidth` bytes/s up to kBurstBytes,
//    and a piece of at most kBurstBytes leaves once the bucket holds its
//    size. The bucket runs on the bytes' nominal times, not on the proxy
//    thread's wake-ups, so scheduling jitter costs no capacity.
//
// All sockets are non-blocking and served by a single poll loop, so the
// proxy's CPU time is one thread's (thread_tid() lets the benchmark
// exclude it from the client's CPU accounting). held_seconds() is the
// cumulative time during which at least one byte sat in the proxy: the
// wall-clock the shaped link added, as seen from the endpoints.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace perfbench {

class ShapingProxy {
 public:
  static constexpr std::size_t kBurstBytes = 16 * 1024;

  ShapingProxy(std::uint16_t upstream_port, double bandwidth_bytes_per_s,
               double rtt_s);
  ~ShapingProxy();
  ShapingProxy(const ShapingProxy&) = delete;
  ShapingProxy& operator=(const ShapingProxy&) = delete;

  std::uint16_t port() const { return port_; }
  double held_seconds() const;
  pid_t thread_tid() const { return tid_.load(); }

 private:
  void run();

  std::uint16_t upstream_port_;
  double bandwidth_;
  double one_way_s_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<pid_t> tid_{0};
  mutable std::mutex mu_;  // guards held_total_, held_since_, queued_bytes_
  double held_total_ = 0;
  double held_since_ = 0;
  std::size_t queued_bytes_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

struct ShaperSelfTest {
  double rtt_ms = 0;
  double bandwidth_mb_s = 0;
};

/// Measures a proxy on a bare transfer (no protocol): the median of a few
/// 1-byte ping-pongs against `rtt_s`, and a one-way bulk transfer's rate
/// against `bandwidth_bytes_per_s`. Returns "" when both are within 10 %,
/// else a description of the deviation. `report` receives the measured
/// values.
std::string self_test_shaper(double bandwidth_bytes_per_s, double rtt_s,
                             ShaperSelfTest& report);

}  // namespace perfbench
