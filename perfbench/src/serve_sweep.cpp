// serve_sweep: DSE-fleet traffic to an in-process sealpaad over TCP
// loopback.
//
// 4 connections each act as a beam-shaped client: a frontier of 16
// requests for one (width, p) profile is written at once and all 16
// replies are read before the next frontier goes out (closed loop).  The
// profiles are sealpaa_loadgen's 48-key grid (widths {24, 28, 32} x p in
// 0.300..0.675); a frontier holds 4 analytic-pmf and 8 recursive requests
// drawn from the profile's fixed families plus 4 fresh recursive chains
// that keep a family prefix and randomise its top 3..8 stages, so the
// server's prefix cache takes inserts beside its hits.  Every reply is
// byte-compared with the frame built from engine::evaluate.
//
// Set-up (setup_s) is server start plus one untimed warm-up pass that
// sends every fixed configuration once; it is repeated three times on
// fresh servers and the median reported, and the last server is measured.
// The end-to-end figures are per-slice medians, each slice normalised by
// the wake-up round trip measured around it (see kSlices); the raw
// figures are the workload metrics.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <functional>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sealpaa/adders/builtin.hpp"
#include "sealpaa/engine/method.hpp"
#include "sealpaa/multibit/chain.hpp"
#include "sealpaa/multibit/input_profile.hpp"
#include "sealpaa/obs/json.hpp"
#include "sealpaa/service/client.hpp"
#include "sealpaa/service/dispatcher.hpp"
#include "sealpaa/service/server.hpp"
#include "sealpaa/service/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sealpaa;

constexpr unsigned kConnections = 4;
constexpr unsigned kDispatchWorkers = 2;
constexpr std::size_t kFrontier = 16;
constexpr std::size_t kAnalyticPerFrontier = 4;
constexpr std::size_t kRecursivePerFrontier = 8;
constexpr std::size_t kFreshPerFrontier =
    kFrontier - kAnalyticPerFrontier - kRecursivePerFrontier;
/// Members per key.  Every analytic-pmf chain a server has seen keeps its
/// prefix PMF states cached, so this sets the server's memory footprint.
constexpr std::size_t kAnalyticFamily = 4;
constexpr std::size_t kRecursiveFamily = 8;
constexpr std::size_t kWidths[] = {24, 28, 32};
constexpr std::size_t kPs = 16;
constexpr int kSetupRepeats = 3;
/// Wake-up round trip (wakeup_round_trip_s) the serving figures are
/// expressed at: its typical value on the box the reference was taken on.
constexpr double kWakeupReferenceS = 12e-6;
/// Fresh request ids live above every fixed configuration id.
constexpr std::uint64_t kFreshIdBase = std::uint64_t{1} << 32;

[[nodiscard]] std::string format_p(std::size_t j) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f",
                0.300 + 0.025 * static_cast<double>(j));
  return buffer;
}

[[nodiscard]] std::string chain_json(
    const std::vector<adders::AdderCell>& stages) {
  std::string out = "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += stages[i].name();
    out += '"';
  }
  out += ']';
  return out;
}

[[nodiscard]] std::string request_line(std::uint64_t id, const char* method,
                                       const std::vector<adders::AdderCell>& stages,
                                       const std::string& p_text) {
  return "{\"id\":" + std::to_string(id) + ",\"method\":\"" + method +
         "\",\"width\":" + std::to_string(stages.size()) +
         ",\"chain\":" + chain_json(stages) + ",\"params\":{\"p\":" + p_text +
         ",\"timeout_ms\":300000}}\n";
}

[[nodiscard]] std::string expected_frame(
    std::uint64_t id, const std::vector<adders::AdderCell>& stages,
    double p, engine::Method method) {
  const auto profile = multibit::InputProfile::uniform(stages.size(), p);
  engine::EvaluateOptions options;
  options.threads = 1;
  return service::serialize_frame(service::make_evaluation_response(
      obs::Json(id),
      engine::evaluate(multibit::AdderChain(stages), profile, method,
                       options)));
}

struct Config {
  std::string line;      // request, newline-terminated
  std::string expected;  // response frame, newline-terminated
  engine::Method method = engine::Method::kRecursive;
  std::vector<adders::AdderCell> stages;
  double p = 0.5;
};

struct Key {
  std::size_t width = 0;
  std::string p_text;
  double p = 0.5;  // the double the server parses from p_text
  std::vector<std::uint32_t> analytic;
  std::vector<std::uint32_t> recursive;
  std::vector<adders::AdderCell> family_prefix;  // width - 2 stages
};

struct ServeInputs {
  std::vector<Config> configs;
  std::vector<Key> keys;
};

/// The fixed configurations: per key 4 analytic-pmf chains (12 random
/// approximate stages, accurate tail) and 8 recursive beam-family chains
/// (shared prefix, last two stages enumerated).  Expected frames are
/// filled separately (compute_expected) so the determinism test can
/// generate inputs cheaply.
[[nodiscard]] ServeInputs build_inputs(std::uint64_t seed) {
  const std::span<const adders::AdderCell> lpaas = adders::builtin_lpaas();
  ServeInputs inputs;
  SplitMix rng(stream_seed(seed, 1));
  for (const std::size_t width : kWidths) {
    for (std::size_t j = 0; j < kPs; ++j) {
      Key key;
      key.width = width;
      key.p_text = format_p(j);
      key.p = std::strtod(key.p_text.c_str(), nullptr);
      for (std::size_t member = 0; member < kAnalyticFamily; ++member) {
        std::vector<adders::AdderCell> stages;
        for (std::size_t i = 0; i < width; ++i) {
          stages.push_back(i < 12 ? lpaas[rng.below(lpaas.size())]
                                  : adders::accurate());
        }
        const auto id = static_cast<std::uint32_t>(inputs.configs.size());
        inputs.configs.push_back(
            Config{request_line(id, "analytic-pmf", stages, key.p_text), {},
                   engine::Method::kAnalyticPmf, stages, key.p});
        key.analytic.push_back(id);
      }
      const std::size_t shift = rng.below(lpaas.size());
      for (std::size_t i = 0; i + 2 < width; ++i) {
        key.family_prefix.push_back(lpaas[(shift + j * 7 + i * 3) % lpaas.size()]);
      }
      for (std::size_t member = 0; member < kRecursiveFamily; ++member) {
        std::vector<adders::AdderCell> stages = key.family_prefix;
        stages.push_back(lpaas[member % lpaas.size()]);
        stages.push_back(lpaas[(member + 3) % lpaas.size()]);
        const auto id = static_cast<std::uint32_t>(inputs.configs.size());
        inputs.configs.push_back(
            Config{request_line(id, "recursive", stages, key.p_text), {},
                   engine::Method::kRecursive, stages, key.p});
        key.recursive.push_back(id);
      }
      inputs.keys.push_back(std::move(key));
    }
  }
  return inputs;
}

/// Fills the expected frame (the oracle) of every fixed configuration —
/// or, with `key_count` > 0, of the configurations of the first
/// `key_count` keys each connection visits — on `threads` threads.
void compute_expected(ServeInputs& inputs, unsigned threads,
                      std::size_t key_count = 0) {
  std::vector<bool> wanted(inputs.configs.size(), key_count == 0);
  for (unsigned c = 0; c < kConnections && key_count > 0; ++c) {
    for (std::size_t r = 0; r < key_count; ++r) {
      const Key& key = inputs.keys[(12 * c + r) % inputs.keys.size()];
      for (const std::uint32_t id : key.analytic) wanted[id] = true;
      for (const std::uint32_t id : key.recursive) wanted[id] = true;
    }
  }
  std::vector<std::thread> pool;
  std::mutex error_mutex;
  std::string error;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < inputs.configs.size(); i += threads) {
          if (!wanted[i]) continue;
          Config& config = inputs.configs[i];
          config.expected =
              expected_frame(i, config.stages, config.p, config.method);
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        error = e.what();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (!error.empty()) throw std::runtime_error("serve oracle: " + error);
}

/// One frontier: the bytes to write and, per request id, the expected
/// reply.
struct Frontier {
  std::string bytes;
  std::vector<std::uint64_t> ids;
  std::vector<const std::string*> expected;  // into configs or `fresh`
  std::vector<std::string> fresh;            // expected frames, fresh chains
};

/// Deterministic per-connection frontier stream.  Connection c starts at
/// profile key 12 * c and advances one key per frontier.
class FrontierGenerator {
 public:
  FrontierGenerator(const ServeInputs& inputs, std::uint64_t seed,
                    unsigned connection)
      : inputs_(inputs),
        rng_(stream_seed(seed, 100 + connection)),
        connection_(connection) {}

  /// The next frontier.  With `with_expected` the fresh chains' expected
  /// frames are evaluated too (engine::evaluate, the oracle).
  Frontier next(bool with_expected) {
    const std::span<const adders::AdderCell> lpaas = adders::builtin_lpaas();
    Frontier frontier;
    const Key& key = inputs_.keys[(12 * connection_ + round_) % inputs_.keys.size()];
    frontier.fresh.reserve(kFreshPerFrontier);
    add_fixed(frontier, key.analytic, kAnalyticPerFrontier);
    add_fixed(frontier, key.recursive, kRecursivePerFrontier);
    for (std::size_t f = 0; f < kFreshPerFrontier; ++f) {
      const std::size_t randomised = 3 + rng_.below(6);
      std::vector<adders::AdderCell> stages(
          key.family_prefix.begin(),
          key.family_prefix.end() -
              static_cast<std::ptrdiff_t>(randomised - 2));
      while (stages.size() < key.width) {
        stages.push_back(lpaas[rng_.below(lpaas.size())]);
      }
      const std::uint64_t id = kFreshIdBase +
                               (std::uint64_t{connection_} << 28) +
                               fresh_count_++;
      frontier.bytes += request_line(id, "recursive", stages, key.p_text);
      frontier.ids.push_back(id);
      frontier.fresh.push_back(
          with_expected
              ? expected_frame(id, stages, key.p, engine::Method::kRecursive)
              : std::string());
    }
    for (std::string& fresh : frontier.fresh) {
      frontier.expected.push_back(&fresh);
    }
    ++round_;
    return frontier;
  }

 private:
  void add_fixed(Frontier& frontier, const std::vector<std::uint32_t>& family,
                 std::size_t count) {
    std::vector<std::uint32_t> pick = family;
    for (std::size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
      std::swap(pick[i], pick[i + rng_.below(pick.size() - i)]);
      const Config& config = inputs_.configs[pick[i]];
      frontier.bytes += config.line;
      frontier.ids.push_back(pick[i]);
      frontier.expected.push_back(&config.expected);
    }
  }

  const ServeInputs& inputs_;
  SplitMix rng_;
  unsigned connection_;
  std::size_t round_ = 0;
  std::uint64_t fresh_count_ = 0;
};

/// The integer id echoed in a response frame; nullopt when absent.
[[nodiscard]] std::optional<std::uint64_t> response_id(
    const std::string& frame) {
  const std::size_t at = frame.find("\"id\":");
  if (at == std::string::npos) return std::nullopt;
  char* end = nullptr;
  const unsigned long long id =
      std::strtoull(frame.c_str() + at + 5, &end, 10);
  if (end == frame.c_str() + at + 5) return std::nullopt;
  return id;
}

/// An in-process sealpaad on an ephemeral loopback port.
class EmbeddedServer {
 public:
  EmbeddedServer() : server_(options()) {
    port_ = server_.start();
    io_ = std::thread([this] { serve_rc_ = server_.serve(); });
  }
  ~EmbeddedServer() { (void)stop(); }
  EmbeddedServer(const EmbeddedServer&) = delete;
  EmbeddedServer& operator=(const EmbeddedServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Drains and joins the IO thread; returns serve()'s status (0 after a
  /// clean drain).
  int stop() {
    server_.request_stop();
    if (io_.joinable()) io_.join();
    return serve_rc_;
  }

 private:
  static service::ServerOptions options() {
    service::ServerOptions options;
    options.port = 0;
    options.dispatcher.dispatch_threads = kDispatchWorkers;
    return options;
  }

  service::Server server_;
  std::uint16_t port_ = 0;
  int serve_rc_ = 0;
  std::thread io_;  // last: joined before the server it drives is destroyed
};

/// A loopback client connection, driven by closed_loop() below.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("serve: socket() failed");
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      throw std::runtime_error("serve: connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void write_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (sent < 0 && errno == EINTR) continue;
      if (sent <= 0) throw std::runtime_error("serve: send() failed");
      bytes.remove_prefix(static_cast<std::size_t>(sent));
    }
  }

  /// Reads what poll() reported and appends every complete reply line
  /// (without its newline).  False once the server closed the stream.
  bool read_available(std::vector<std::string>& lines) {
    char buffer[1 << 16];
    const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (got < 0 && errno == EINTR) return true;
    if (got <= 0) return false;
    partial_.append(buffer, static_cast<std::size_t>(got));
    std::size_t begin = 0;
    for (std::size_t end = partial_.find('\n'); end != std::string::npos;
         end = partial_.find('\n', begin)) {
      lines.push_back(partial_.substr(begin, end - begin));
      begin = end + 1;
    }
    partial_.erase(0, begin);
    return true;
  }

 private:
  int fd_ = -1;
  std::string partial_;
};

/// A frontier on the wire: which replies have arrived, and when it went out.
struct InFlight {
  Frontier frontier;
  std::vector<bool> answered;
  std::size_t replies = 0;
  Clock::time_point sent{};
  std::int32_t span = -1;
};

/// Byte-checks one reply against the frontier it answers.
void check_reply(InFlight& flight, const std::string& line, RunResult& result) {
  const Frontier& frontier = flight.frontier;
  const std::optional<std::uint64_t> id = response_id(line);
  std::size_t slot = frontier.ids.size();
  for (std::size_t i = 0; id && i < frontier.ids.size(); ++i) {
    if (frontier.ids[i] == *id && !flight.answered[i]) {
      slot = i;
      break;
    }
  }
  if (slot == frontier.ids.size()) {
    result.check(false, "serve: reply with unknown id: " + line.substr(0, 120));
    return;
  }
  flight.answered[slot] = true;
  const std::string& expected = *frontier.expected[slot];
  const bool same = expected.size() == line.size() + 1 &&
                    expected.compare(0, line.size(), line) == 0;
  result.check(same, "serve: reply differs from engine::evaluate for id " +
                         std::to_string(*id) + ": " + line.substr(0, 120));
}

/// Drives kConnections closed-loop clients from this one thread (so the
/// client adds one thread, not four, beside the server's IO thread and
/// dispatch workers).  `next(c)` yields connection c's next frontier, or
/// nullopt when c is finished; it is asked again as soon as c's previous
/// frontier has all its replies.  `on_reply(c, flight, at)` sees every
/// reply, `on_complete(c, flight, at)` every finished frontier.
void closed_loop(std::uint16_t port,
                 const std::function<std::optional<Frontier>(unsigned)>& next,
                 const std::function<void(unsigned, const InFlight&,
                                          Clock::time_point)>& on_reply,
                 const std::function<void(unsigned, const InFlight&,
                                          Clock::time_point)>& on_complete,
                 std::vector<Tracer*> tracers, RunResult& result) {
  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::optional<InFlight>> flights(kConnections);
  for (unsigned c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<Connection>(port));
  }
  const auto launch = [&](unsigned c) {
    std::optional<Frontier> frontier = next(c);
    if (!frontier) {
      flights[c].reset();
      return;
    }
    InFlight flight;
    flight.answered.assign(frontier->ids.size(), false);
    flight.frontier = std::move(*frontier);
    if (!tracers.empty()) {
      flight.span = tracers[c]->begin("service.roundtrip", c);
    }
    flight.sent = Clock::now();
    connections[c]->write_all(flight.frontier.bytes);
    flights[c] = std::move(flight);
  };
  for (unsigned c = 0; c < kConnections; ++c) launch(c);

  std::vector<std::string> lines;
  for (;;) {
    std::vector<pollfd> polled;
    std::vector<unsigned> owners;
    for (unsigned c = 0; c < kConnections; ++c) {
      if (!flights[c]) continue;
      polled.push_back(pollfd{connections[c]->fd(), POLLIN, 0});
      owners.push_back(c);
    }
    if (polled.empty()) return;
    const int ready = ::poll(polled.data(), polled.size(), 60'000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      result.check(false, "serve: no reply within 60 s");
      return;
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (polled[i].revents == 0) continue;
      const unsigned c = owners[i];
      lines.clear();
      const bool open = connections[c]->read_available(lines);
      const Clock::time_point now = Clock::now();
      for (const std::string& line : lines) {
        if (!flights[c]) {
          result.check(false, "serve: reply after the last frontier");
          continue;
        }
        InFlight& flight = *flights[c];
        on_reply(c, flight, now);
        check_reply(flight, line, result);
        if (++flight.replies == flight.frontier.ids.size()) {
          if (flight.span >= 0) tracers[c]->end(flight.span);
          on_complete(c, flight, now);
          launch(c);
        }
      }
      if (!open && flights[c]) {
        result.check(false, "serve: connection closed mid-frontier");
        flights[c].reset();
      }
    }
  }
}

/// Sends every fixed configuration once, spread over the connections in
/// frontiers of 16 (the warm-up pass).
void warm_up(const ServeInputs& inputs, std::uint16_t port,
             RunResult& result) {
  std::vector<std::size_t> cursor(kConnections);
  for (unsigned c = 0; c < kConnections; ++c) cursor[c] = c;
  const auto next = [&](unsigned c) -> std::optional<Frontier> {
    Frontier frontier;
    for (; cursor[c] < inputs.configs.size() && frontier.ids.size() < kFrontier;
         cursor[c] += kConnections) {
      frontier.bytes += inputs.configs[cursor[c]].line;
      frontier.ids.push_back(cursor[c]);
      frontier.expected.push_back(&inputs.configs[cursor[c]].expected);
    }
    if (frontier.ids.empty()) return std::nullopt;
    return frontier;
  };
  const auto ignore = [](unsigned, const InFlight&, Clock::time_point) {};
  closed_loop(port, next, ignore, ignore, {}, result);
}

[[nodiscard]] obs::Json fetch_stats(std::uint16_t port) {
  service::Client client;
  client.connect("127.0.0.1", port);
  client.send_frame(R"({"id":"stats","method":"stats"})");
  const std::optional<std::string> line = client.read_frame();
  if (!line) throw std::runtime_error("serve: no stats reply");
  const obs::Json reply = obs::Json::parse(*line);
  const obs::Json* stats = reply.find("stats");
  if (stats == nullptr) throw std::runtime_error("serve: stats reply lacks stats");
  return *stats;
}

/// stats[path...] as a double; 0 when any step is missing.
[[nodiscard]] double stat(const obs::Json& stats,
                          std::initializer_list<const char*> path) {
  const obs::Json* node = &stats;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->number() : 0.0;
}

[[nodiscard]] double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer metrics from the server's own counters over the timed
/// window (lifetime counters differenced; the batch-size p50 and queue
/// high-water mark are lifetime values).
void stats_metrics(const obs::Json& before, const obs::Json& after,
                   RunResult& result) {
  const auto delta = [&](std::initializer_list<const char*> path) {
    return stat(after, path) - stat(before, path);
  };
  auto& m = result.per_layer;
  set_metric(m, "service.batch_size_p50", "count",
             stat(after, {"batches", "size", "p50"}));
  set_metric(m, "service.queue_high_water", "count",
             stat(after, {"dispatch", "queue_high_water"}));
  const double cut = delta({"dispatch", "cut_through_batches"});
  const double coalesced = delta({"dispatch", "coalesced_batches"});
  set_metric(m, "service.cut_through_share", "ratio", ratio(cut, cut + coalesced));
  const double pool_hits = delta({"evaluators", "pool_hits"});
  const double created = delta({"evaluators", "created"});
  set_metric(m, "engine.pool_hit_rate", "ratio",
             ratio(pool_hits, pool_hits + created));
  const double hits = delta({"evaluators", "prefix_cache", "hits"});
  const double misses = delta({"evaluators", "prefix_cache", "misses"});
  set_metric(m, "engine.prefix_hit_rate", "ratio", ratio(hits, hits + misses));
  set_metric(m, "engine.inserts_per_hit", "ratio",
             ratio(delta({"evaluators", "prefix_cache", "insertions"}), hits));
  const double pmf_hits = delta({"evaluators", "pmf_cache", "hits"});
  const double pmf_misses = delta({"evaluators", "pmf_cache", "misses"});
  set_metric(m, "engine.pmf_prefix_hit_rate", "ratio",
             ratio(pmf_hits, pmf_hits + pmf_misses));
}

/// The timed window is cut into kSlices equal slices.  Each slice runs
/// the closed loop on its own and drains, and the wake-up round trip is
/// probed between slices, so every slice's figures are normalised by the
/// box's speed right around that slice.  The reported figure is the
/// median over slices: a burst of interference moves one slice, not the
/// result.
constexpr std::size_t kSlices = 10;
constexpr int kWakeupTrips = 1000;

struct Slice {
  std::vector<double> latencies_ms;
  std::vector<double> rounds_ms;
  std::uint64_t responses = 0;
  double seconds = 0.0;   // wall time of the slice's closed loop
  double wakeup_s = 0.0;  // wake-up round trip around the slice
};

struct WindowResult {
  std::array<Slice, kSlices> slices;
  std::uint64_t responses = 0;
  std::uint64_t fresh = 0;
  double seconds = 0.0;

  /// Median over slices of `figure(slice)`; with `at_reference` each
  /// slice's figure is first scaled to the reference wake-up round trip.
  template <typename Figure>
  [[nodiscard]] double per_slice_median(Figure figure,
                                        bool at_reference) const {
    std::vector<double> values;
    for (const Slice& slice : slices) {
      if (slice.latencies_ms.empty()) continue;
      const double value = figure(slice);
      values.push_back(at_reference ? value * kWakeupReferenceS / slice.wakeup_s
                                    : value);
    }
    return values.empty() ? 0.0 : median(values);
  }
};

/// The closed loop, one slice after another: within a slice every
/// connection sends frontiers until the slice's time is up, then finishes
/// the frontier in flight.
[[nodiscard]] WindowResult timed_window(const ServeInputs& inputs,
                                        std::uint64_t seed, double seconds,
                                        std::uint16_t port, RunResult& result,
                                        Tracers& tracers, bool trace) {
  WindowResult window;
  std::vector<Tracer*> connection_tracers;
  if (trace) {
    for (unsigned c = 0; c < kConnections; ++c) {
      tracers.push_back(std::make_unique<Tracer>(
          true, static_cast<std::uint32_t>(tracers.size())));
      connection_tracers.push_back(tracers.back().get());
    }
  }
  std::vector<FrontierGenerator> generators;
  for (unsigned c = 0; c < kConnections; ++c) {
    generators.emplace_back(inputs, seed, c);
  }
  const auto slice_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(kSlices)));
  const Clock::time_point start = Clock::now();
  double wakeup_before = wakeup_round_trip_s(kWakeupTrips);
  for (Slice& slice : window.slices) {
    const Clock::time_point slice_start = Clock::now();
    const Clock::time_point deadline = slice_start + slice_length;
    const auto next = [&](unsigned c) -> std::optional<Frontier> {
      if (Clock::now() >= deadline) return std::nullopt;
      std::optional<Tracer::Scope> span;
      if (trace) span.emplace(*connection_tracers[c], "engine.oracle", c);
      return generators[c].next(true);
    };
    const auto on_reply = [&](unsigned, const InFlight& flight,
                              Clock::time_point at) {
      slice.latencies_ms.push_back(seconds_between(flight.sent, at) * 1e3);
      ++slice.responses;
      ++window.responses;
    };
    const auto on_complete = [&](unsigned, const InFlight& flight,
                                 Clock::time_point at) {
      slice.rounds_ms.push_back(seconds_between(flight.sent, at) * 1e3);
      window.fresh += kFreshPerFrontier;
    };
    closed_loop(port, next, on_reply, on_complete, connection_tracers, result);
    slice.seconds = seconds_between(slice_start, Clock::now());
    const double wakeup_after = wakeup_round_trip_s(kWakeupTrips);
    slice.wakeup_s = 0.5 * (wakeup_before + wakeup_after);
    wakeup_before = wakeup_after;
  }
  window.seconds = seconds_between(start, Clock::now());
  return window;
}

/// Traced run only: replays the first frontiers' request bytes through
/// the service layer's public functions on this thread, where spans can
/// see them — FrameSplitter + parse_request, Dispatcher::run_batch, and
/// the response builders — and byte-checks the replayed replies.
void replay_service_layers(const ServeInputs& inputs, std::uint64_t seed,
                           std::size_t frontiers, Tracer& tracer,
                           RunResult& result) {
  service::DispatcherOptions options;
  options.dispatch_threads = kDispatchWorkers;
  service::Dispatcher dispatcher(options);
  const service::WireLimits limits;

  std::uint64_t frames = 0;
  std::uint64_t responses = 0;
  double parse_s = 0.0;
  double serialize_s = 0.0;
  for (unsigned c = 0; c < kConnections; ++c) {
    FrontierGenerator generator(inputs, seed, c);
    for (std::size_t r = 0; r < frontiers; ++r) {
      const Frontier frontier = generator.next(true);
      const Tracer::Scope root(tracer, "bench.replay_frontier",
                               (std::uint64_t{c} << 32) + r);
      std::vector<service::PendingRequest> batch;
      std::vector<service::Request> requests;
      {
        const Tracer::Scope span(tracer, "service.parse");
        const Clock::time_point t0 = Clock::now();
        service::FrameSplitter splitter(limits.max_frame_bytes);
        splitter.feed(frontier.bytes);
        std::uint64_t sequence = 0;
        while (std::optional<service::FrameSplitter::Frame> frame =
                   splitter.next()) {
          service::ParseOutcome outcome = service::parse_request(*frame, limits);
          result.check(outcome.request.has_value(),
                       "serve replay: frame failed to parse");
          if (outcome.request) requests.push_back(std::move(*outcome.request));
          service::PendingRequest pending;
          pending.connection = c;
          pending.sequence = sequence++;
          pending.frame = std::move(*frame);
          pending.arrival = Clock::now();  // deadlines run from arrival
          batch.push_back(std::move(pending));
          ++frames;
        }
        parse_s += seconds_between(t0, Clock::now());
      }
      std::vector<service::OutgoingResponse> replies;
      {
        const Tracer::Scope span(tracer, "service.run_batch");
        replies = dispatcher.run_batch(std::move(batch));
      }
      result.check(replies.size() == frontier.ids.size(),
                   "serve replay: run_batch answered a different count");
      for (std::size_t i = 0; i < replies.size() && i < frontier.ids.size();
           ++i) {
        result.check(replies[i].frame == *frontier.expected[i],
                     "serve replay: run_batch frame differs from engine::evaluate");
      }
      // The response builders, fed the same evaluations the server makes.
      for (std::size_t i = 0; i < requests.size() && i < frontier.ids.size();
           ++i) {
        const service::Request& request = requests[i];
        std::vector<adders::AdderCell> stages;
        for (const std::string& name : request.chain) {
          stages.push_back(*adders::find_builtin(name));
        }
        engine::EvaluateOptions evaluate_options;
        evaluate_options.threads = 1;
        engine::Evaluation evaluation;
        {
          const Tracer::Scope span(tracer, "engine.evaluate", frontier.ids[i]);
          evaluation = engine::evaluate(
              multibit::AdderChain(stages),
              multibit::InputProfile::uniform(request.width, request.p),
              request.method, evaluate_options);
        }
        std::string frame;
        {
          const Tracer::Scope span(tracer, "service.serialize", frontier.ids[i]);
          const Clock::time_point t0 = Clock::now();
          frame = service::serialize_frame(
              service::make_evaluation_response(request.id, evaluation));
          serialize_s += seconds_between(t0, Clock::now());
        }
        ++responses;
        result.check(frame == *frontier.expected[i],
                     "serve replay: serialized frame differs");
      }
    }
  }
  set_metric(result.per_layer, "service.parse_ns_per_frame", "ns",
             parse_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(frames, 1)));
  set_metric(result.per_layer, "service.serialize_ns_per_response", "ns",
             serialize_s * 1e9 /
                 static_cast<double>(std::max<std::uint64_t>(responses, 1)));
  if (!has_metric(result.per_layer, "service.batch_size_p50")) {
    // No TCP server ran (the ledger's probe): take the dispatcher's own
    // counters over the replay.
    RunResult probe;
    stats_metrics(obs::Json::object(), dispatcher.stats_json(), probe);
    for (const Metric& metric : probe.per_layer) {
      if (!has_metric(result.per_layer, metric.name)) {
        result.per_layer.push_back(metric);
      }
    }
  }
}

}  // namespace

std::string serve_sweep_input_bytes(std::uint64_t seed, unsigned connection,
                                    std::size_t frontiers) {
  const ServeInputs inputs = build_inputs(seed);
  std::string bytes;
  for (const Config& config : inputs.configs) bytes += config.line;
  FrontierGenerator generator(inputs, seed, connection);
  for (std::size_t r = 0; r < frontiers; ++r) {
    bytes += generator.next(false).bytes;
  }
  return bytes;
}

void probe_service_layers(std::uint64_t seed, Tracer& tracer,
                          RunResult& result) {
  constexpr std::size_t kFrontiers = 2;
  ServeInputs inputs = build_inputs(seed);
  compute_expected(inputs, kConnections, kFrontiers);
  replay_service_layers(inputs, seed, kFrontiers, tracer, result);
}

RunResult run_serve_sweep(const RunOptions& options, Tracers& tracers) {
  RunResult result;
  ServeInputs inputs = build_inputs(options.seed);
  compute_expected(inputs, kConnections);

  InputHash hash;
  for (unsigned c = 0; c < kConnections; ++c) {
    hash.add(serve_sweep_input_bytes(options.seed, c, 64));
  }

  // Set-up: fresh server + warm-up pass, three times; the last is kept.
  // Freed server memory is handed back to the OS between repeats so the
  // process's peak RSS is one server's footprint, not a repeat's garbage.
  Calibration setup_calibration;
  std::vector<double> setup_s;
  std::vector<double> setup_norm_s;
  std::unique_ptr<EmbeddedServer> server;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    if (server) result.check(server->stop() == 0, "serve: server did not drain");
    server.reset();
    malloc_trim(0);
    const double kernel_s = setup_calibration.sample(50);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<EmbeddedServer>();
    warm_up(inputs, server->port(), result);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_norm_s.push_back(Calibration::normalise(setup_s.back(), kernel_s));
  }

  const obs::Json stats_before = fetch_stats(server->port());
  // The traced run splits the window: half untraced, half traced, so the
  // report can state what tracing itself costs.
  WindowResult window;
  WindowResult untraced;
  if (options.trace) {
    untraced = timed_window(inputs, options.seed, options.seconds / 2,
                            server->port(), result, tracers, false);
    window = timed_window(inputs, stream_seed(options.seed, 7),
                          options.seconds / 2, server->port(), result, tracers,
                          true);
  } else {
    window = timed_window(inputs, options.seed, options.seconds,
                          server->port(), result, tracers, false);
  }
  const obs::Json stats_after = fetch_stats(server->port());
  result.check(server->stop() == 0, "serve: server did not drain");
  server.reset();

  if (window.responses == 0) {
    result.check(false, "serve: no request completed in the timed window");
    return result;
  }
  const auto latency = [](double q) {
    return [q](const Slice& slice) { return percentile(slice.latencies_ms, q); };
  };
  const auto ms_per_response = [](const Slice& slice) {
    return slice.seconds * 1e3 / static_cast<double>(slice.responses);
  };
  const auto frontier_p50 = [](const Slice& slice) {
    return median(slice.rounds_ms);
  };
  const double rps = 1e3 / window.per_slice_median(ms_per_response, false);

  auto& w = result.workload_metrics;
  set_metric(w, "serve_rps", "req/s", rps);
  set_metric(w, "serve_p50_ms", "ms", window.per_slice_median(latency(50), false));
  set_metric(w, "serve_p90_ms", "ms", window.per_slice_median(latency(90), false));
  set_metric(w, "serve_p99_ms", "ms", window.per_slice_median(latency(99), false));
  set_metric(w, "serve_frontier_p50_ms", "ms",
             window.per_slice_median(frontier_p50, false));

  // p90 rather than p99 in the gated slot: on a shared 4-vCPU VM the p99
  // of identical runs differs by up to 2x (scheduler delays), which no
  // regression bound can absorb; p99 stays in the report.
  auto& e = result.end_to_end;
  set_metric(e, "setup_s", "s", median(setup_norm_s));
  set_metric(e, "leg1_ms", "ms", window.per_slice_median(latency(50), true));
  set_metric(e, "leg2_ms", "ms", window.per_slice_median(latency(90), true));
  set_metric(e, "leg3_ms", "ms", window.per_slice_median(ms_per_response, true));
  set_metric(e, "leg4_ms", "ms", window.per_slice_median(frontier_p50, true));

  std::size_t smallest_slice = window.responses;
  std::size_t beyond_p99 = window.responses;
  std::uint64_t frontiers = 0;
  for (const Slice& slice : window.slices) {
    if (slice.latencies_ms.empty()) continue;
    smallest_slice = std::min(smallest_slice, slice.latencies_ms.size());
    beyond_p99 = std::min(beyond_p99, samples_beyond(slice.latencies_ms, 99.0));
    frontiers += slice.rounds_ms.size();
  }
  obs::Json& d = result.details;
  d.set("inputs_hash", obs::Json(hash.hex()));
  std::vector<double> wakeups;
  for (const Slice& slice : window.slices) wakeups.push_back(slice.wakeup_s);
  d.set("speed_factor", obs::Json(setup_calibration.median_s() /
                                  Calibration::kReferenceS));
  d.set("wakeup_round_trip_us", obs::Json(median(wakeups) * 1e6));
  d.set("setup_raw_s", obs::Json(median(setup_s)));
  d.set("connections", obs::Json(kConnections));
  d.set("dispatch_workers", obs::Json(kDispatchWorkers));
  d.set("frontier", obs::Json(static_cast<std::uint64_t>(kFrontier)));
  d.set("profiles", obs::Json(static_cast<std::uint64_t>(inputs.keys.size())));
  d.set("fixed_configs",
        obs::Json(static_cast<std::uint64_t>(inputs.configs.size())));
  d.set("fresh_share",
        obs::Json(static_cast<double>(window.fresh) /
                  static_cast<double>(window.responses)));
  d.set("responses", obs::Json(window.responses));
  d.set("frontiers", obs::Json(frontiers));
  d.set("slices", obs::Json(static_cast<std::uint64_t>(kSlices)));
  d.set("latency_samples_smallest_slice",
        obs::Json(static_cast<std::uint64_t>(smallest_slice)));
  d.set("samples_beyond_p99_smallest_slice",
        obs::Json(static_cast<std::uint64_t>(beyond_p99)));
  d.set("window_s", obs::Json(window.seconds));
  obs::Json setups = obs::Json::array();
  for (const double s : setup_s) setups.push_back(obs::Json(s));
  d.set("setup_samples_s", std::move(setups));

  if (options.trace) {
    stats_metrics(stats_before, stats_after, result);
    const double traced_ms = window.per_slice_median(ms_per_response, true);
    const double untraced_ms = untraced.per_slice_median(ms_per_response, true);
    set_metric(result.per_layer, "trace.overhead_share", "ratio",
               (traced_ms - untraced_ms) / untraced_ms);
    d.set("trace_overhead_basis",
          obs::Json("normalised ms per response, traced half vs untraced half"));
    tracers.push_back(std::make_unique<Tracer>(
        true, static_cast<std::uint32_t>(tracers.size())));
    // 12 frontiers x 4 connections replay every one of the 48 keys.
    replay_service_layers(inputs, options.seed, 12, *tracers.back(), result);
  }
  return result;
}

}  // namespace perfbench
