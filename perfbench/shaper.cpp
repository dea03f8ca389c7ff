#include "shaper.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return a;
}

// Listening socket on an ephemeral loopback port.
int listen_loopback(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("shaper: socket() failed");
  sockaddr_in a = loopback(0);
  socklen_t len = sizeof a;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
      ::listen(fd, 16) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("shaper: cannot listen on loopback");
  }
  port = ntohs(a.sin_port);
  return fd;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in a = loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

double realtime_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void enable_rx_timestamps(int fd) {
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof one);
}

// recv() that also returns when the bytes reached the socket, on the steady
// clock: the kernel's receive timestamp (SO_TIMESTAMPNS, realtime) shifted
// by the current realtime-steady offset. The delay is then charged from the
// bytes' arrival, not from whenever this thread got to read them.
std::pair<ssize_t, double> recv_stamped(int fd, std::vector<char>& buf,
                                        double now_steady) {
  iovec iov{buf.data(), buf.size()};
  alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(timespec))];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = ctrl;
  msg.msg_controllen = sizeof ctrl;
  const ssize_t n = ::recvmsg(fd, &msg, 0);
  double arrived = now_steady;
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); n > 0 && c != nullptr;
       c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
      timespec ts;
      std::memcpy(&ts, CMSG_DATA(c), sizeof ts);
      const double age = realtime_s() - (static_cast<double>(ts.tv_sec) +
                                         static_cast<double>(ts.tv_nsec) * 1e-9);
      arrived = now_steady - std::max(0.0, age);
    }
  }
  return {n, arrived};
}

struct Chunk {
  double ready = 0;  // earliest departure (arrival + one-way delay)
  std::vector<char> data;
  std::size_t off = 0;
};

// One shaped direction: bytes read from `src` are queued, then written to
// `dst` once their departure time comes.
struct Direction {
  int src = -1, dst = -1;
  std::deque<Chunk> q;
  // Token bucket, evaluated at the bytes' nominal times (not at this
  // thread's wake-ups, so a late wake-up forfeits no capacity).
  double tokens = ShapingProxy::kBurstBytes;
  double bucket_at = 0;
  bool src_eof = false;
  bool dst_shut = false;
  bool want_write = false;  // dst returned EAGAIN: wait for POLLOUT

  bool done() const { return src_eof && q.empty(); }
};

struct Pair {
  int a = -1, b = -1;  // a: accepted downstream socket, b: upstream socket
  Direction up, down;  // up: a -> b, down: b -> a
  bool dead = false;

  Pair(int down_fd, int up_fd) : a(down_fd), b(up_fd) {
    up.src = a;
    up.dst = b;
    down.src = b;
    down.dst = a;
  }
  ~Pair() {
    ::close(a);
    ::close(b);
  }
  Pair(const Pair&) = delete;
  Pair& operator=(const Pair&) = delete;
};

}  // namespace

ShapingProxy::ShapingProxy(std::uint16_t upstream_port,
                           double bandwidth_bytes_per_s, double rtt_s)
    : upstream_port_(upstream_port),
      bandwidth_(bandwidth_bytes_per_s),
      one_way_s_(rtt_s / 2) {
  listen_fd_ = listen_loopback(port_);
  set_nonblocking(listen_fd_);
  thread_ = std::thread([this] { run(); });
}

ShapingProxy::~ShapingProxy() {
  stop_.store(true);
  thread_.join();
  ::close(listen_fd_);
}

double ShapingProxy::held_seconds() const {
  std::lock_guard lk(mu_);
  return held_total_ + (queued_bytes_ > 0 ? now_s() - held_since_ : 0);
}

void ShapingProxy::run() {
  tid_.store(static_cast<pid_t>(::syscall(SYS_gettid)));
  std::vector<std::unique_ptr<Pair>> pairs;
  std::vector<char> buf(64 * 1024);

  const auto enqueued = [this](std::size_t n, double t) {
    std::lock_guard lk(mu_);
    if (queued_bytes_ == 0) held_since_ = t;
    queued_bytes_ += n;
  };
  const auto dequeued = [this](std::size_t n, double t) {
    std::lock_guard lk(mu_);
    queued_bytes_ -= n;
    if (queued_bytes_ == 0) held_total_ += t - held_since_;
  };

  // Queues bytes that reached `d.src` at `arrived`, in pieces of at most
  // one bucket: a piece may leave one-way delay after its arrival, once the
  // bucket holds its size in tokens.
  const auto enqueue = [&](Direction& d, const char* p, std::size_t n,
                           double arrived) {
    for (std::size_t off = 0; off < n; off += kBurstBytes) {
      const std::size_t len = std::min<std::size_t>(kBurstBytes, n - off);
      const double due = std::max(arrived + one_way_s_, d.bucket_at);
      double tokens = std::min<double>(
          kBurstBytes, d.tokens + (due - d.bucket_at) * bandwidth_);
      double leave = due;
      if (tokens < static_cast<double>(len)) {
        leave += (static_cast<double>(len) - tokens) / bandwidth_;
        tokens = 0;
      } else {
        tokens -= static_cast<double>(len);
      }
      d.tokens = tokens;
      d.bucket_at = leave;
      Chunk c;
      c.ready = leave;
      c.data.assign(p + off, p + off + len);
      d.q.push_back(std::move(c));
    }
    enqueued(n, arrived);
  };

  // Sends every piece whose departure time has come; returns the time at
  // which this direction next has something to do (or +inf).
  const auto flush = [&](Pair& p, Direction& d, double t) {
    double wake = HUGE_VAL;
    while (!d.q.empty() && !d.want_write) {
      Chunk& c = d.q.front();
      if (c.ready > t) {
        wake = c.ready;
        break;
      }
      const std::size_t n = c.data.size() - c.off;
      const ssize_t w = ::send(d.dst, c.data.data() + c.off, n, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          d.want_write = true;
        else if (errno != EINTR)
          p.dead = true;
        break;
      }
      c.off += static_cast<std::size_t>(w);
      dequeued(static_cast<std::size_t>(w), t);
      if (c.off == c.data.size()) d.q.pop_front();
    }
    if (d.done() && !d.dst_shut) {
      ::shutdown(d.dst, SHUT_WR);
      d.dst_shut = true;
    }
    return wake;
  };

  std::vector<pollfd> fds;
  std::vector<std::pair<Pair*, Direction*>> owners;  // per fds entry (1..)
  while (!stop_.load(std::memory_order_relaxed)) {
    double t = now_s();
    double wake = t + 0.02;  // re-check stop_ at least every 20 ms
    for (auto& p : pairs) {
      wake = std::min(wake, flush(*p, p->up, t));
      wake = std::min(wake, flush(*p, p->down, t));
    }

    fds.clear();
    owners.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    owners.push_back({nullptr, nullptr});
    for (auto& p : pairs) {
      for (Direction* d : {&p->up, &p->down}) {
        if (!d->src_eof) {
          fds.push_back({d->src, POLLIN, 0});
          owners.push_back({p.get(), d});
        }
        if (d->want_write) {
          fds.push_back({d->dst, POLLOUT, 0});
          owners.push_back({p.get(), d});
        }
      }
    }
    const double wait = std::max(0.0, wake - t);
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) break;
    t = now_s();

    if (fds[0].revents & POLLIN) {
      const int a = ::accept(listen_fd_, nullptr, nullptr);
      if (a >= 0) {
        const int b = connect_loopback(upstream_port_);
        if (b < 0) {
          ::close(a);
        } else {
          set_nodelay(a);
          set_nonblocking(a);
          set_nonblocking(b);
          enable_rx_timestamps(a);
          enable_rx_timestamps(b);
          auto p = std::make_unique<Pair>(a, b);
          pairs.push_back(std::move(p));
        }
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto [p, d] = owners[i];
      if (fds[i].events & POLLOUT) {
        d->want_write = false;
        continue;
      }
      const auto [n, arrived] = recv_stamped(d->src, buf, t);
      if (n > 0) {
        enqueue(*d, buf.data(), static_cast<std::size_t>(n), arrived);
      } else if (n == 0) {
        d->src_eof = true;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        p->dead = true;
      }
    }
    // Retire finished or broken connections; drop their queued bytes from
    // the held-time account.
    for (auto it = pairs.begin(); it != pairs.end();) {
      Pair& p = **it;
      if (p.dead || (p.up.done() && p.down.done())) {
        std::size_t left = 0;
        for (Direction* d : {&p.up, &p.down})
          for (const Chunk& c : d->q) left += c.data.size() - c.off;
        if (left > 0) dequeued(left, t);
        it = pairs.erase(it);
      } else {
        ++it;
      }
    }
  }
}

std::string self_test_shaper(double bandwidth_bytes_per_s, double rtt_s,
                             ShaperSelfTest& report) {
  std::uint16_t up_port = 0;
  const int lfd = listen_loopback(up_port);
  ShapingProxy proxy(up_port, bandwidth_bytes_per_s, rtt_s);
  const int c = connect_loopback(proxy.port());
  const int s = c < 0 ? -1 : ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (c < 0 || s < 0) {
    if (c >= 0) ::close(c);
    return "cannot open a connection through the proxy";
  }
  set_nodelay(s);
  timeval tv{5, 0};
  ::setsockopt(s, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(c, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  std::string err;
  // Ping-pong: one byte each way per round trip.
  std::vector<double> rtts;
  for (int i = 0; i < 5 && err.empty(); ++i) {
    char byte = 'p';
    const double t0 = now_s();
    if (::send(c, &byte, 1, MSG_NOSIGNAL) != 1 || ::recv(s, &byte, 1, 0) != 1 ||
        ::send(s, &byte, 1, MSG_NOSIGNAL) != 1 || ::recv(c, &byte, 1, 0) != 1)
      err = "ping-pong through the proxy failed";
    rtts.push_back(now_s() - t0);
  }
  // Bulk: ~0.1 s worth of bytes one way; the rate is taken between the
  // first and the last byte so the one-way delay does not count.
  const std::size_t total =
      static_cast<std::size_t>(bandwidth_bytes_per_s * 0.1);
  double first = 0, last = 0;
  std::size_t first_n = 0;
  if (err.empty()) {
    std::thread writer([&] {
      std::vector<char> out(total, 'b');
      std::size_t off = 0;
      while (off < total) {
        const ssize_t w = ::send(c, out.data() + off, total - off, MSG_NOSIGNAL);
        if (w <= 0) break;
        off += static_cast<std::size_t>(w);
      }
    });
    std::vector<char> in(64 * 1024);
    std::size_t got = 0;
    while (got < total) {
      const ssize_t n = ::recv(s, in.data(), in.size(), 0);
      if (n <= 0) {
        err = "bulk transfer through the proxy failed";
        break;
      }
      if (got == 0) {
        first = now_s();
        first_n = static_cast<std::size_t>(n);
      }
      got += static_cast<std::size_t>(n);
      last = now_s();
    }
    writer.join();
  }
  ::close(c);
  ::close(s);
  if (!err.empty()) return err;

  std::sort(rtts.begin(), rtts.end());
  report.rtt_ms = rtts[rtts.size() / 2] * 1e3;
  report.bandwidth_mb_s =
      static_cast<double>(total - first_n) / (last - first) / 1e6;
  const double want_rtt_ms = rtt_s * 1e3;
  const double want_mb_s = bandwidth_bytes_per_s / 1e6;
  char buf[200];
  if (std::fabs(report.rtt_ms - want_rtt_ms) > 0.1 * want_rtt_ms + 1.0) {
    std::snprintf(buf, sizeof buf, "shaper RTT %.2f ms, configured %.2f ms",
                  report.rtt_ms, want_rtt_ms);
    return buf;
  }
  if (std::fabs(report.bandwidth_mb_s - want_mb_s) > 0.1 * want_mb_s) {
    std::snprintf(buf, sizeof buf,
                  "shaper bandwidth %.2f MB/s, configured %.2f MB/s",
                  report.bandwidth_mb_s, want_mb_s);
    return buf;
  }
  return "";
}

}  // namespace perfbench
