// serve-open: the serving tier. TrussServer runs in-process with its
// default 4 workers over the Amazon stand-in; one generator thread drives
// four phases over loopback TCP, interleaved in cycles (see kCycles):
//
//   1. open loop at kOpenLoopQps over 3 connections (latency timed from each
//      request's due time, so a stall also delays the requests behind it);
//   2. the same load while REBUILDs run back to back on a 4th connection;
//   3. a closed loop, one request outstanding per query connection;
//   4. REBUILDs one at a time with no query load: the job whose CPU seconds
//      the run reports.
//
// The client sets TCP_NODELAY on its own sockets; the server does not,
// which is the Nagle interaction perfbench/README.md describes. Also the
// traced probes of the serving layer.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "inputs.h"
#include "probes.h"
#include "serve/server.h"
#include "util.h"

namespace perfbench {

using truss::Graph;
using truss::serve::SnapshotRegistry;
using truss::serve::TrussIndex;
using truss::serve::TrussServer;

namespace {

constexpr uint32_t kQueryConnections = 3;
constexpr double kOpenLoopQps = 20000.0;
constexpr size_t kPoolSize = 8192;
constexpr uint32_t kTopT = 8;
constexpr double kLateSeconds = 1e-3;
constexpr double kDrainSeconds = 10.0;
constexpr size_t kTracedRequests = 20000;
constexpr size_t kProbeBatch = 2000;
// The measured phase runs kCycles cycles of open loop (2 units), open loop
// with REBUILDs (2 units), closed loop (1 unit) and quiet REBUILDs (1
// unit), so that a burst of host steal lands in a few windows of each phase
// instead of wiping out one.
constexpr int kCycles = 4;
// Window length. At kOpenLoopQps a latency window holds 2000 samples, 20
// of them beyond its p99, and a closed-loop window about 10k completions.
// One 10-ms steal tick stalls 200 open-loop requests, so longer windows are
// rarely free of it.
constexpr double kWindowS = 0.1;

enum Command { kTruss, kMaxK, kComm, kTop, kMembers, kNumCommands };
constexpr const char* kCommandNames[kNumCommands] = {"truss", "maxk", "comm",
                                                     "top", "members"};

// One pooled request with the answer the reference predicts for it.
struct Query {
  Command cmd = kTruss;
  uint32_t a = 0;
  uint32_t b = 0;
  std::string line;  // with the trailing newline
  /// The response must start with this...
  std::string expect_prefix;
  /// ...and, when non-empty, also contain this.
  std::string expect_part;
  bool exact = false;
};

bool Matches(const Query& q, std::string_view response) {
  if (q.exact) return response == q.expect_prefix;
  return response.substr(0, q.expect_prefix.size()) == q.expect_prefix &&
         (q.expect_part.empty() ||
          response.find(q.expect_part) != std::string_view::npos);
}

// The serving mix: TRUSS on real edges 8, MAXK 6, COMM 4, TOP 1, MEMBERS 1
// out of every 20. Expectations come from the reference decomposition; COMM
// on a vertex below level k expects ERR NOT_FOUND.
std::vector<Query> BuildPool(const Graph& g, const std::vector<uint32_t>& truss,
                             uint64_t communities, uint64_t seed) {
  std::vector<uint32_t> vertex_k(g.num_vertices(), 0);
  uint32_t kmax = 2;
  for (truss::EdgeId e = 0; e < g.num_edges(); ++e) {
    const truss::Edge edge = g.edge(e);
    vertex_k[edge.u] = std::max(vertex_k[edge.u], truss[e]);
    vertex_k[edge.v] = std::max(vertex_k[edge.v], truss[e]);
    kmax = std::max(kmax, truss[e]);
  }
  truss::Rng rng(SubSeed(seed, 100));
  std::vector<Query> pool(kPoolSize);
  for (Query& q : pool) {
    const uint64_t pick = rng.Uniform(20);
    if (pick < 8) {
      const auto e = static_cast<truss::EdgeId>(rng.Uniform(g.num_edges()));
      const truss::Edge edge = g.edge(e);
      const bool swap = rng.Uniform(2) == 1;
      q.cmd = kTruss;
      q.a = swap ? edge.v : edge.u;
      q.b = swap ? edge.u : edge.v;
      q.line = "TRUSS " + std::to_string(q.a) + " " + std::to_string(q.b);
      q.expect_prefix = "OK TRUSS " + std::to_string(truss[e]);
      q.exact = true;
    } else if (pick < 14) {
      q.cmd = kMaxK;
      q.a = static_cast<uint32_t>(rng.Uniform(g.num_vertices()));
      q.line = "MAXK " + std::to_string(q.a);
      q.expect_prefix = "OK MAXK k=" + std::to_string(vertex_k[q.a]) + " ";
    } else if (pick < 18) {
      q.cmd = kComm;
      q.a = static_cast<uint32_t>(rng.Uniform(g.num_vertices()));
      q.b = 3 + static_cast<uint32_t>(rng.Uniform(kmax - 2));
      q.line = "COMM " + std::to_string(q.a) + " " + std::to_string(q.b);
      if (vertex_k[q.a] >= q.b) {
        q.expect_prefix = "OK COMM id=";
        q.expect_part = " k=" + std::to_string(q.b) + " ";
      } else {
        q.expect_prefix = "ERR NOT_FOUND ";
      }
    } else if (pick < 19) {
      q.cmd = kTop;
      q.a = kTopT;
      q.line = "TOP " + std::to_string(kTopT);
      q.expect_prefix =
          "OK TOP " + std::to_string(std::min<uint64_t>(kTopT, communities)) + " ";
    } else {
      q.cmd = kMembers;
      q.a = static_cast<uint32_t>(rng.Uniform(communities));
      q.line = "MEMBERS " + std::to_string(q.a);
      q.expect_prefix = "OK MEMBERS ";
    }
    q.line.push_back('\n');
  }
  return pool;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
    } else if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

// A server plus everything it borrows. Stops and joins on destruction.
struct ServerInstance {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const TrussIndex> index;
  SnapshotRegistry registry;
  std::unique_ptr<TrussServer> server;
  std::thread serve_thread;

  ServerInstance() = default;
  ServerInstance(const ServerInstance&) = delete;
  ServerInstance& operator=(const ServerInstance&) = delete;
  ~ServerInstance() {
    if (server != nullptr) server->Stop();
    if (serve_thread.joinable()) serve_thread.join();
  }
};

// Builds the index of `graph`, starts a server on it and checks it answers
// a PING. Returns null on failure.
std::unique_ptr<ServerInstance> StartServer(std::shared_ptr<const Graph> graph) {
  auto inst = std::make_unique<ServerInstance>();
  inst->graph = std::move(graph);
  auto built = TrussIndex::Build(inst->graph, truss::serve::IndexBuildPlan::Default());
  if (!built.ok()) return nullptr;
  inst->index = built.value().index;
  inst->registry.Publish(inst->index, "perfbench", 0.0);
  inst->server = std::make_unique<TrussServer>(inst->graph, &inst->registry,
                                               truss::serve::ServerOptions{});
  if (!inst->server->Start().ok()) return nullptr;
  TrussServer* server = inst->server.get();
  inst->serve_thread = std::thread([server] { server->Serve(); });
  const int fd = ConnectLoopback(server->port());
  char reply[16] = {};
  const bool pong = fd >= 0 && SendAll(fd, "PING\nQUIT\n") &&
                    ::recv(fd, reply, sizeof(reply) - 1, MSG_WAITALL) > 0;
  if (fd >= 0) ::close(fd);
  if (!pong || std::string_view(reply).rfind("OK PONG", 0) != 0) return nullptr;
  return inst;
}

struct Pending {
  double due_s;
  double sent_s;
  uint32_t query;
};

struct Sample {
  double due_s;
  double latency_s;
};

struct PhaseResult {
  double start_s = 0.0;
  std::vector<Sample> samples;
  /// Closed loop: completion times of the requests answered in the phase.
  std::vector<double> completions;
  double max_late_s = 0.0;
  uint64_t late_sends = 0;
  uint64_t sends = 0;
  std::vector<double> rebuild_s;
};

// The generator: one thread, three query connections, and optionally a
// REBUILD connection. Counts every line it sends, every ERR line it gets and
// every transport failure, so the totals can be held against ServerStats.
class Generator {
 public:
  Generator(uint16_t port, const std::vector<Query>* pool, Checks* checks,
            uint64_t seed)
      : port_(port), pool_(pool), checks_(checks), next_query_(seed % kPoolSize) {}

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Connect() {
    for (uint32_t i = 0; i < kQueryConnections; ++i) {
      Conn c;
      c.fd = ConnectLoopback(port_);
      if (c.fd < 0) return false;
      conns_.push_back(std::move(c));
    }
    return true;
  }

  /// Sends at `qps` on a fixed schedule for `seconds`. With `rebuilds`, a
  /// 4th connection issues REBUILD back to back, each expected to publish
  /// the registry's next version.
  PhaseResult OpenLoop(double seconds, double qps, SnapshotRegistry* rebuilds) {
    PhaseResult result;
    Conn rebuild;
    uint64_t expected_version = 0;
    double rebuild_sent = 0.0;
    if (rebuilds != nullptr) {
      rebuild.fd = ConnectLoopback(port_);
      checks_->Count(rebuild.fd >= 0, "REBUILD connection");
    }
    const double interval = 1.0 / qps;
    const double start = Now() + 0.01;
    const double end = start + seconds;
    result.start_s = start;
    auto send_rebuild = [&] {
      expected_version = rebuilds->current_version() + 1;
      rebuild_sent = Now();
      ++rebuild.pending_rebuild;
      SendLine(&rebuild, "REBUILD\n");
    };
    if (rebuild.fd >= 0) send_rebuild();
    uint64_t i = 0;
    double next_due = start;
    for (;;) {
      double now = Now();
      while (next_due < end && next_due <= now) {
        Conn& c = conns_[i % kQueryConnections];
        const uint32_t q = TakeQuery();
        result.max_late_s = std::max(result.max_late_s, now - next_due);
        result.late_sends += now - next_due > kLateSeconds;
        ++result.sends;
        c.pending.push_back({next_due, now, q});
        SendLine(&c, (*pool_)[q].line);
        next_due = start + static_cast<double>(++i) * interval;
        now = Now();
      }
      const bool sending = next_due < end;
      if (!sending && Outstanding() == 0 && rebuild.pending_rebuild == 0) break;
      if (!sending && now > end + kDrainSeconds) break;
      Wait(sending ? next_due - now : 0.01, &rebuild);
      const double recv_at = Now();
      for (Conn& c : conns_) {
        DrainResponses(&c, [&](const Pending& p) {
          result.samples.push_back({p.due_s, recv_at - p.due_s});
        });
      }
      if (rebuild.fd >= 0) {
        std::string line;
        while (rebuild.pending_rebuild > 0 && TakeLine(&rebuild, &line)) {
          --rebuild.pending_rebuild;
          result.rebuild_s.push_back(recv_at - rebuild_sent);
          const std::string want =
              "OK REBUILD version=" + std::to_string(expected_version) + " ";
          checks_->Count(line.rfind(want, 0) == 0, "REBUILD answered '" + line + "'");
          if (recv_at < end) send_rebuild();
        }
      }
    }
    FailOutstanding();
    if (rebuild.fd >= 0) {
      Quit(&rebuild);
      ::close(rebuild.fd);
    }
    return result;
  }

  /// One request outstanding per connection for `seconds`, or until
  /// `max_requests` were sent. With a trace, each request becomes a span.
  PhaseResult ClosedLoop(double seconds, size_t max_requests, Trace* trace) {
    PhaseResult result;
    const double start = Now();
    const double end = start + seconds;
    result.start_s = start;
    size_t sent = 0;
    auto send_next = [&](Conn* c) {
      const uint32_t q = TakeQuery();
      const double now = Now();
      c->pending.push_back({now, now, q});
      ++sent;
      SendLine(c, (*pool_)[q].line);
    };
    for (Conn& c : conns_) send_next(&c);
    while (Outstanding() > 0 && Now() < end + kDrainSeconds) {
      Wait(0.01, nullptr);
      const double recv_at = Now();
      for (Conn& c : conns_) {
        DrainResponses(&c, [&](const Pending& p) {
          result.samples.push_back({p.sent_s, recv_at - p.sent_s});
          if (recv_at <= end) result.completions.push_back(recv_at);
          if (trace != nullptr) {
            const uint32_t span = trace->Add("serve.request", 0, p.sent_s,
                                             recv_at, next_rid_++);
            trace->Arg(span, "cmd", kCommandNames[(*pool_)[p.query].cmd]);
          }
        });
        if (c.pending.empty() && recv_at < end && sent < max_requests) {
          send_next(&c);
        }
      }
    }
    FailOutstanding();
    return result;
  }

  /// REBUILDs one at a time on their own connection with no query load,
  /// for `seconds` and at least once. Records each one's round trip and
  /// the CPU seconds the process spent on it.
  void QuietRebuilds(double seconds, const SnapshotRegistry& registry,
                     std::vector<double>* wall_s, std::vector<double>* cpu_s) {
    Conn c;
    c.fd = ConnectLoopback(port_);
    checks_->Count(c.fd >= 0, "REBUILD connection");
    if (c.fd < 0) return;
    const double end = Now() + seconds;
    do {
      const std::string want = "OK REBUILD version=" +
                               std::to_string(registry.current_version() + 1) + " ";
      const double cpu = CpuSeconds();
      const double start = Now();
      SendLine(&c, "REBUILD\n");
      std::string line;
      bool answered = false;
      while (!(answered = TakeLine(&c, &line)) && Now() < start + kDrainSeconds) {
        Wait(0.01, &c);
      }
      if (answered) {
        wall_s->push_back(Now() - start);
        cpu_s->push_back(CpuSeconds() - cpu);
      }
      checks_->Count(answered && line.rfind(want, 0) == 0,
                     "quiet REBUILD answered '" + line + "'");
      if (!answered) break;
    } while (Now() < end);
    Quit(&c);
    ::close(c.fd);
  }

  /// Closes every query connection with QUIT / OK BYE.
  void QuitAll() {
    for (Conn& c : conns_) Quit(&c);
  }

  uint64_t lines_sent() const { return lines_sent_; }
  uint64_t err_lines() const { return err_lines_; }
  uint64_t transport_failures() const { return transport_failures_; }

 private:
  struct Conn {
    int fd = -1;
    std::string buffer;
    std::deque<Pending> pending;
    uint32_t pending_rebuild = 0;
  };

  uint32_t TakeQuery() {
    const uint32_t q = next_query_;
    next_query_ = (next_query_ + 1) % kPoolSize;
    return q;
  }

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  void SendLine(Conn* c, std::string_view line) {
    ++lines_sent_;
    if (!SendAll(c->fd, line)) ++transport_failures_;
  }

  // Waits up to `seconds` for any connection to become readable and reads
  // everything available into the connection buffers.
  void Wait(double seconds, Conn* extra) {
    pollfd fds[kQueryConnections + 1];
    nfds_t n = 0;
    for (Conn& c : conns_) fds[n++] = {c.fd, POLLIN, 0};
    if (extra != nullptr && extra->fd >= 0) fds[n++] = {extra->fd, POLLIN, 0};
    seconds = std::max(seconds, 0.0);
    timespec timeout{static_cast<time_t>(seconds),
                     static_cast<long>((seconds - static_cast<double>(
                                            static_cast<time_t>(seconds))) *
                                       1e9)};
    if (::ppoll(fds, n, &timeout, nullptr) <= 0) return;
    for (nfds_t i = 0; i < n; ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn* c = i < kQueryConnections ? &conns_[i] : extra;
      char chunk[65536];
      const ssize_t got = ::recv(c->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got > 0) c->buffer.append(chunk, static_cast<size_t>(got));
    }
  }

  bool TakeLine(Conn* c, std::string* line) {
    const size_t newline = c->buffer.find('\n');
    if (newline == std::string::npos) return false;
    line->assign(c->buffer, 0, newline);
    c->buffer.erase(0, newline + 1);
    if (line->rfind("ERR", 0) == 0) ++err_lines_;
    return true;
  }

  template <typename OnAnswer>
  void DrainResponses(Conn* c, OnAnswer&& on_answer) {
    std::string line;
    while (!c->pending.empty() && TakeLine(c, &line)) {
      const Pending p = c->pending.front();
      c->pending.pop_front();
      const Query& q = (*pool_)[p.query];
      if (Matches(q, line)) {
        checks_->Count(true, std::string());
      } else {
        checks_->Count(false, "'" + q.line.substr(0, q.line.size() - 1) +
                                  "' answered '" + line + "'");
      }
      on_answer(p);
    }
  }

  void FailOutstanding() {
    for (Conn& c : conns_) {
      for (size_t i = 0; i < c.pending.size(); ++i) {
        checks_->Count(false, "request never answered");
      }
      c.pending.clear();
    }
  }

  void Quit(Conn* c) {
    SendLine(c, "QUIT\n");
    std::string line;
    const double deadline = Now() + kDrainSeconds;
    bool bye = false;
    while (!bye && Now() < deadline) {
      if (TakeLine(c, &line)) {
        bye = line == "OK BYE";
        continue;
      }
      pollfd pfd{c->fd, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char chunk[4096];
      const ssize_t got = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      c->buffer.append(chunk, static_cast<size_t>(got));
    }
    checks_->Count(bye, "QUIT answered OK BYE");
  }

  uint16_t port_;
  const std::vector<Query>* pool_;
  Checks* checks_;
  uint32_t next_query_;
  int64_t next_rid_ = 0;
  std::vector<Conn> conns_;
  uint64_t lines_sent_ = 0;
  uint64_t err_lines_ = 0;
  uint64_t transport_failures_ = 0;
};

// One phase's figures over the segments of every cycle. Windows never span
// two segments.
struct PhaseTotals {
  std::vector<double> latencies_us;
  /// Per-window p99 latency (open loop) or completion rate (closed loop).
  std::vector<double> windows;
  /// Samples (open loop) or completions (closed loop) in each window.
  std::vector<double> window_samples;
  uint64_t sends = 0;
  uint64_t late_sends = 0;
  double max_late_s = 0.0;
  std::vector<double> rebuild_s;
};

size_t WholeWindows(double segment_s, double window) {
  return std::max<size_t>(1, static_cast<size_t>(segment_s / window + 1e-9));
}

// Open loop: latencies, and each window's p99 keyed by due time.
void AddLatencies(const PhaseResult& r, double segment_s, PhaseTotals* t) {
  const double window = std::min(kWindowS, segment_s / 2.0);
  std::vector<std::vector<double>> windows(WholeWindows(segment_s, window));
  for (const Sample& s : r.samples) {
    t->latencies_us.push_back(s.latency_s * 1e6);
    const auto w = static_cast<size_t>((s.due_s - r.start_s) / window);
    if (w < windows.size()) windows[w].push_back(s.latency_s * 1e6);
  }
  for (const std::vector<double>& w : windows) {
    t->windows.push_back(Percentile(w, 0.99));
    t->window_samples.push_back(static_cast<double>(w.size()));
  }
  t->sends += r.sends;
  t->late_sends += r.late_sends;
  t->max_late_s = std::max(t->max_late_s, r.max_late_s);
  t->rebuild_s.insert(t->rebuild_s.end(), r.rebuild_s.begin(), r.rebuild_s.end());
}

// Closed loop: latencies, and each window's completion rate.
void AddRates(const PhaseResult& r, double segment_s, PhaseTotals* t) {
  const double window = std::min(kWindowS, segment_s / 2.0);
  std::vector<double> counts(WholeWindows(segment_s, window), 0.0);
  for (const Sample& s : r.samples) t->latencies_us.push_back(s.latency_s * 1e6);
  for (const double done : r.completions) {
    const auto w = static_cast<size_t>((done - r.start_s) / window);
    if (w < counts.size()) counts[w] += 1.0;
  }
  for (const double c : counts) {
    t->windows.push_back(c / window);
    t->window_samples.push_back(c);
  }
}

void PhaseDiag(const std::string& label, const PhaseTotals& t) {
  Diag(label + " samples=" + std::to_string(t.latencies_us.size()) +
       " p50_us=" + std::to_string(Percentile(t.latencies_us, 0.5)) +
       " whole_phase_p99_us=" + std::to_string(Percentile(t.latencies_us, 0.99)) +
       " windows=" + std::to_string(t.windows.size()) +
       " window_min=" + std::to_string(Percentile(t.windows, 0.0)) +
       " window_median=" + std::to_string(Median(t.windows)) +
       " window_max=" + std::to_string(Percentile(t.windows, 1.0)) +
       " window_samples=" + std::to_string(Percentile(t.window_samples, 0.0)) +
       ".." + std::to_string(Percentile(t.window_samples, 1.0)) +
       " sends=" + std::to_string(t.sends) +
       " max_late_us=" + std::to_string(t.max_late_s * 1e6) +
       " late_over_1ms_share=" +
       std::to_string(t.sends == 0 ? 0.0
                                   : static_cast<double>(t.late_sends) /
                                         static_cast<double>(t.sends)));
}

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.samples.size());
  for (const Sample& s : phase.samples) out.push_back(s.latency_s);
  return out;
}

// Holds the server's counters against the generator's.
void CheckServerCounts(const truss::serve::ServerStats& before,
                       const truss::serve::ServerStats& after,
                       const Generator& gen, Checks* checks, Trace* trace) {
  const uint64_t queries = after.queries - before.queries;
  const uint64_t errors = after.errors - before.errors;
  const uint64_t send_errors = after.send_errors - before.send_errors;
  checks->Count(queries == gen.lines_sent(),
                "server counted " + std::to_string(queries) +
                    " queries, client sent " + std::to_string(gen.lines_sent()));
  checks->Count(errors == gen.err_lines(),
                "server counted " + std::to_string(errors) +
                    " errors, client saw " + std::to_string(gen.err_lines()));
  checks->Count(send_errors == gen.transport_failures(),
                "server counted " + std::to_string(send_errors) +
                    " send errors, client saw " +
                    std::to_string(gen.transport_failures()));
  Diag("server queries=" + std::to_string(queries) +
       " errors=" + std::to_string(errors) +
       " send_errors=" + std::to_string(send_errors));
  if (trace != nullptr) {
    const uint32_t span = trace->Begin("serve.TrussServer.stats");
    trace->End(span);
    trace->Arg(span, "queries", static_cast<double>(queries));
    trace->Arg(span, "errors", static_cast<double>(errors));
  }
}

// In-process index lookups for one pooled query; returns a value derived
// from the answer so the calls cannot be optimized away.
uint64_t Lookup(const TrussIndex& index, const Query& q) {
  switch (q.cmd) {
    case kTruss:
      return index.EdgeTrussNumber(q.a, q.b);
    case kMaxK: {
      const truss::serve::CommunityId c = index.DeepestCommunity(q.a);
      return index.VertexMaxK(q.a) +
             (c == truss::serve::kInvalidCommunity
                  ? 0
                  : index.Community(c).num_vertices);
    }
    case kComm:
      return index.CommunityAt(q.a, q.b);
    case kTop:
      return index.DensestCommunities(q.a).size();
    case kMembers:
      return index.CommunityVertices(q.a).size();
    case kNumCommands:
      break;
  }
  return 0;
}

class ServeProbes : public LayerProbes {
 public:
  ServeProbes(const TracedGraph& input, const RunOptions& options,
              std::unique_ptr<ServerInstance> inst)
      : reference_(input.reference),
        inst_(std::move(inst)),
        pool_(BuildPool(*inst_->graph, reference_.truss_number,
                        inst_->index->num_communities(), options.seed)),
        rtt_phase_s_(std::max(0.5, options.seconds / 8.0)),
        seed_(options.seed),
        rebuilder_(inst_->graph, &probe_registry_),
        probe_server_(inst_->graph, &inst_->registry,
                      truss::serve::ServerOptions{}) {}

  void Round(Trace* trace, Checks* checks) override {
    {
      const double start = Now();
      const uint32_t span = trace->Begin("serve.TrussIndex.Build");
      auto built = TrussIndex::Build(inst_->graph,
                                     truss::serve::IndexBuildPlan::Default());
      trace->End(span);
      const bool ok = built.ok();
      checks->Count(ok && std::equal(reference_.truss_number.begin(),
                                     reference_.truss_number.end(),
                                     built.value().index->truss_numbers().begin(),
                                     built.value().index->truss_numbers().end()),
                    "index truss numbers vs reference");
      if (ok) {
        trace->Arg(span, "index_bytes",
                  static_cast<double>(built.value().index->SizeBytes()));
        trace->Add("engine.Decompose", span, start,
                  start + built.value().decompose_stats.wall_seconds);
      }
    }
    {
      const uint64_t version = probe_registry_.current_version();
      const double start = Now();
      const uint32_t span =
          trace->Begin("serve.SnapshotRebuilder.RebuildAndPublish");
      auto outcome = rebuilder_.RebuildAndPublish({});
      trace->End(span);
      checks->Count(outcome.ok() && outcome.value().version == version + 1,
                    "in-process rebuild publishes the next version");
      if (outcome.ok()) {
        trace->Add("engine.Decompose", span, start,
                  start + outcome.value().decompose_seconds);
      }
    }
    const TrussIndex& index = *inst_->index;
    std::vector<uint64_t> lookups(kProbeBatch);
    for (size_t begin = 0; begin < pool_.size(); begin += kProbeBatch) {
      const size_t end = std::min(pool_.size(), begin + kProbeBatch);
      const uint32_t span = trace->Begin("serve.TrussIndex.lookup");
      for (size_t i = begin; i < end; ++i) lookups[i - begin] = Lookup(index, pool_[i]);
      trace->End(span);
      trace->Arg(span, "calls", static_cast<double>(end - begin));
      bool truss_ok = true;
      for (size_t i = begin; i < end; ++i) {
        sink_ += lookups[i - begin];
        if (pool_[i].cmd == kTruss) {
          truss_ok &= "OK TRUSS " + std::to_string(lookups[i - begin]) ==
                      pool_[i].expect_prefix;
        }
      }
      checks->Count(truss_ok, "in-process TRUSS lookups vs reference");
    }
    for (size_t begin = 0; begin < pool_.size(); begin += kProbeBatch) {
      const size_t end = std::min(pool_.size(), begin + kProbeBatch);
      std::vector<std::string> answers;
      answers.reserve(end - begin);
      const uint32_t span = trace->Begin("serve.TrussServer.HandleLine");
      for (size_t i = begin; i < end; ++i) {
        const std::string& line = pool_[i].line;
        answers.push_back(
            probe_server_.HandleLine(std::string_view(line).substr(0, line.size() - 1)));
      }
      trace->End(span);
      trace->Arg(span, "calls", static_cast<double>(end - begin));
      bool ok = true;
      for (size_t i = begin; i < end; ++i) ok &= Matches(pool_[i], answers[i - begin]);
      checks->Count(ok, "in-process HandleLine answers");
    }
  }

  // Client round trips, untraced and then with a span per request, close
  // the run so the two are adjacent.
  void Finish(Trace* trace, Checks* checks) override {
    const truss::serve::ServerStats before = inst_->server->stats();
    Generator gen(inst_->server->port(), &pool_, checks, seed_);
    checks->Count(gen.Connect(), "query connections");
    const std::vector<double> untraced =
        Latencies(gen.ClosedLoop(rtt_phase_s_, kTracedRequests, nullptr));
    const std::vector<double> traced =
        Latencies(gen.ClosedLoop(rtt_phase_s_, kTracedRequests, trace));
    gen.QuitAll();
    CheckServerCounts(before, inst_->server->stats(), gen, checks, trace);
    Diag("trace_overhead_us=" +
         std::to_string((Median(traced) - Median(untraced)) * 1e6) +
         " traced_rtt_p50_us=" + std::to_string(Median(traced) * 1e6) +
         " untraced_rtt_p50_us=" + std::to_string(Median(untraced) * 1e6) +
         " lookup_sink=" + std::to_string(sink_));
  }

 private:
  const truss::TrussDecompositionResult& reference_;
  std::unique_ptr<ServerInstance> inst_;
  const std::vector<Query> pool_;
  const double rtt_phase_s_;
  const uint64_t seed_;
  SnapshotRegistry probe_registry_;
  truss::serve::SnapshotRebuilder rebuilder_;
  TrussServer probe_server_;
  uint64_t sink_ = 0;
};

}  // namespace

std::unique_ptr<LayerProbes> MakeServeProbes(const TracedGraph& input,
                                             const RunOptions& options) {
  auto inst = StartServer(std::make_shared<const Graph>(input.loaded.graph));
  if (inst == nullptr) return nullptr;
  return std::make_unique<ServeProbes>(input, options, std::move(inst));
}

int RunServe(const RunOptions& options) {
  Checks checks;
  SetUpTimes setups;
  std::unique_ptr<ServerInstance> inst;
  do {
    inst.reset();
    setups.Start();
    inst = StartServer(std::make_shared<const Graph>(
        WorkloadGraph(options.workload, options.seed, options.tiny)));
    if (inst == nullptr) {
      std::fprintf(stderr, "perfbench: serving set-up failed\n");
      return 1;
    }
    setups.Stop();
  } while (setups.More());
  setups.PrintDiag();

  auto reference_run = truss::engine::Engine::Decompose(*inst->graph, {});
  if (!reference_run.ok()) return 1;
  const truss::TrussDecompositionResult& reference = reference_run.value().result;
  const std::vector<Query> pool =
      BuildPool(*inst->graph, reference.truss_number,
                inst->index->num_communities(), options.seed);
  Diag("graph vertices=" + std::to_string(inst->graph->num_vertices()) +
       " edges=" + std::to_string(inst->graph->num_edges()) +
       " kmax=" + std::to_string(reference.kmax) +
       " communities=" + std::to_string(inst->index->num_communities()));

  const truss::serve::ServerStats before = inst->server->stats();
  Generator gen(inst->server->port(), &pool, &checks, options.seed);
  if (!gen.Connect()) {
    std::fprintf(stderr, "perfbench: cannot connect to the server\n");
    return 1;
  }
  const double unit_s = options.seconds / (6.0 * kCycles);
  const bool rss_reset = ResetPeakRss();
  const double steal_start = StealSeconds();
  PhaseTotals open, rebuild, closed;
  std::vector<double> job_s, job_cpu_s;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    AddLatencies(gen.OpenLoop(2 * unit_s, kOpenLoopQps, nullptr), 2 * unit_s,
                 &open);
    AddLatencies(gen.OpenLoop(2 * unit_s, kOpenLoopQps, &inst->registry),
                 2 * unit_s, &rebuild);
    AddRates(gen.ClosedLoop(unit_s, SIZE_MAX, nullptr), unit_s, &closed);
    gen.QuietRebuilds(unit_s, inst->registry, &job_s, &job_cpu_s);
  }
  const double peak_rss = PeakRssMb();
  const double steal = StealSeconds() - steal_start;
  gen.QuitAll();
  CheckServerCounts(before, inst->server->stats(), gen, &checks, nullptr);

  PhaseDiag("open_loop", open);
  PhaseDiag("rebuild_phase", rebuild);
  PhaseDiag("closed_loop", closed);
  Diag("host nproc=" + std::to_string(std::thread::hardware_concurrency()) +
       " steal_s=" + std::to_string(steal) +
       " rss_reset=" + (rss_reset ? "yes" : "no") +
       " rebuilds_under_load=" + std::to_string(rebuild.rebuild_s.size()) +
       " rebuild_under_load_s=" + std::to_string(Median(rebuild.rebuild_s)));
  Diag("reps quiet_rebuild_s=" + JoinValues(job_s) +
       " job_cpu_s=" + JoinValues(job_cpu_s));
  checks.Count(!rebuild.rebuild_s.empty() && !job_cpu_s.empty(),
               "REBUILDs completed under load and quiet");
  // The query latencies, the closed-loop rate and the REBUILD round trips
  // stay in the diag lines: host steal decides them more than the code does
  // (see README.md).
  PrintResult(checks, {{"setup_s", {setups.MedianCpu(), "s"}},
                       {"job_cpu_s", {Mean(job_cpu_s), "s"}},
                       {"peak_rss_mb", {peak_rss, "MB"}}});
  return 0;
}

}  // namespace perfbench
