// Integration tests for the easeiod socket server: an in-process Server + JobRunner
// on a temp-dir Unix socket, exercised by real client connections. Covers the
// protocol round-trip for every op, malformed-frame error replies (connection stays
// usable), concurrent-watcher event ordering, and the SIGTERM graceful drain.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/cache.h"
#include "daemon/jobspec.h"
#include "daemon/jsonin.h"
#include "daemon/runner.h"
#include "daemon/server.h"
#include "obs/metrics.h"

namespace easeio::daemon {
namespace {

namespace fs = std::filesystem;

// A blocking test client speaking the newline-delimited-JSON protocol.
class TestClient {
 public:
  explicit TestClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    // The server may not have reached accept() yet; retry briefly.
    int rc = -1;
    for (int i = 0; i < 200; ++i) {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      if (rc == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(rc, 0) << "connect: " << std::strerror(errno);
  }
  ~TestClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void Send(const std::string& frame) {
    const std::string line = frame + "\n";
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      ASSERT_GT(n, 0) << "write: " << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  }

  // Reads one newline-terminated frame; fails the test on timeout or EOF.
  std::string ReadFrame(int timeout_ms = 30000) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string frame = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return frame;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      EXPECT_GT(rc, 0) << "timed out waiting for a frame";
      if (rc <= 0) {
        return "";
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      EXPECT_GT(n, 0) << "server closed the connection";
      if (n <= 0) {
        return "";
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Waits for the server to close the connection WITHOUT consuming buffered
  // frames — the caller is simulating a reader that stalled for good, and reading
  // here would drain the very backlog that must trip the outbuf cap. POLLRDHUP
  // sees the close behind the unread bytes.
  bool WaitForCloseUnread(int timeout_ms = 30000) {
    pollfd pfd{fd_, POLLRDHUP, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      return false;
    }
    return (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
  }

  // True when the server terminates the connection (EOF or reset) within the
  // timeout, discarding any frames still in flight.
  bool WaitForClose(int timeout_ms = 30000) {
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) {
        return false;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        return n == 0 || errno == ECONNRESET;
      }
    }
  }

  JsonValue SendAndParse(const std::string& frame) {
    Send(frame);
    JsonValue v;
    std::string error;
    const std::string reply = ReadFrame();
    EXPECT_TRUE(ParseJson(reply, &v, &error)) << error << " in: " << reply;
    return v;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Knobs for the daemon-under-test beyond the worker count; the metrics / buffer
// fields mirror the Server::Options of the same names.
struct DaemonTuning {
  uint32_t workers = 2;
  bool metrics = false;  // attach a registry to both the runner and the server
  uint64_t metrics_period_ms = 0;
  size_t max_client_outbuf = 64 * 1024 * 1024;
  size_t sndbuf_bytes = 0;
};

// One daemon instance (cache + runner + server + loop thread) in a fresh temp dir.
class DaemonFixture {
 public:
  explicit DaemonFixture(const char* tag, DaemonTuning tuning = {}) {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           (std::string("easeiod-srv-test-") + tag + "-" + std::to_string(::getpid()) +
            "-" + std::to_string(counter++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cache_ = std::make_unique<ResultCache>((dir_ / "cache").string(), 0);
    JobRunner::Options roptions;
    roptions.workers = tuning.workers;
    roptions.queue_path = (dir_ / "queue.json").string();
    if (tuning.metrics) {
      roptions.metrics = &metrics_;
    }
    runner_ = std::make_unique<JobRunner>(
        cache_.get(), roptions,
        [this](const JobEvent& event) { server_->OnJobEvent(event); });
    Server::Options soptions;
    soptions.socket_path = (dir_ / "sock").string();
    soptions.shutdown_flag = &shutdown_flag_;
    if (tuning.metrics) {
      soptions.metrics = &metrics_;
    }
    soptions.metrics_period_ms = tuning.metrics_period_ms;
    soptions.max_client_outbuf = tuning.max_client_outbuf;
    soptions.sndbuf_bytes = tuning.sndbuf_bytes;
    server_ = std::make_unique<Server>(runner_.get(), cache_.get(), soptions);
    std::string error;
    listening_ = server_->Listen(&error);
    EXPECT_TRUE(listening_) << error;
    runner_->Start();
    loop_ = std::thread([this] { server_->Run(); });
  }

  ~DaemonFixture() {
    Shutdown();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Signal-style shutdown: set the flag and poke the loop, as the SIGTERM handler
  // does, then drain the runner. Idempotent.
  void Shutdown() {
    if (loop_.joinable()) {
      shutdown_flag_.store(true);
      server_->WakeLoop();
      loop_.join();
    }
    runner_->Stop();
  }

  std::string socket_path() const { return (dir_ / "sock").string(); }
  std::string queue_path() const { return (dir_ / "queue.json").string(); }
  ResultCache& cache() { return *cache_; }
  JobRunner& runner() { return *runner_; }

  obs::Registry& metrics() { return metrics_; }

 private:
  fs::path dir_;
  std::atomic<bool> shutdown_flag_{false};
  obs::Registry metrics_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<JobRunner> runner_;
  std::unique_ptr<Server> server_;
  bool listening_ = false;
  std::thread loop_;
};

const char kQuickTraceJob[] =
    R"({"op":"submit","job":{"kind":"trace","apps":["temp"],"runtimes":["easeio"]}})";

TEST(ServerTest, SubmitStatusResultsRoundTrip) {
  DaemonFixture daemon("roundtrip");
  TestClient client(daemon.socket_path());

  const JsonValue submit = client.SendAndParse(kQuickTraceJob);
  ASSERT_TRUE(submit.is_object());
  EXPECT_TRUE(submit.Find("ok")->AsBool());
  uint64_t id = 0;
  ASSERT_TRUE(submit.Find("id")->GetUint(&id));
  const std::string hash = submit.Find("hash")->AsString();
  EXPECT_EQ(hash.size(), 64u);
  EXPECT_FALSE(submit.Find("cached")->AsBool());

  // Poll status until the job is done.
  std::string state;
  for (int i = 0; i < 2000 && state != "done"; ++i) {
    const JsonValue status = client.SendAndParse(R"({"op":"status"})");
    ASSERT_TRUE(status.Find("ok")->AsBool());
    EXPECT_EQ(status.Find("schema")->AsString(), "easeio-daemon/1");
    for (const JsonValue& job : status.Find("jobs")->Items()) {
      uint64_t jid = 0;
      ASSERT_TRUE(job.Find("id")->GetUint(&jid));
      if (jid == id) {
        state = job.Find("state")->AsString();
      }
    }
    if (state != "done") {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(state, "done");

  // results returns the artifact — byte-identical to a direct library execution.
  const JsonValue results =
      client.SendAndParse(R"({"op":"results","id":)" + std::to_string(id) + "}");
  ASSERT_TRUE(results.Find("ok")->AsBool());
  JobSpec spec;
  spec.kind = JobKind::kTrace;
  spec.apps = {apps::AppKind::kTemp};
  spec.runtimes = {apps::RuntimeKind::kEaseio};
  EXPECT_EQ(results.Find("artifact")->AsString(), ExecuteSpec(spec).artifact);

  // An identical resubmission is a cache hit with the same hash.
  const JsonValue second = client.SendAndParse(kQuickTraceJob);
  EXPECT_TRUE(second.Find("ok")->AsBool());
  EXPECT_TRUE(second.Find("cached")->AsBool());
  EXPECT_EQ(second.Find("hash")->AsString(), hash);

  const JsonValue stats = client.SendAndParse(R"({"op":"cache-stats"})");
  EXPECT_TRUE(stats.Find("ok")->AsBool());
  uint64_t hits = 0;
  EXPECT_TRUE(stats.Find("cache")->Find("hits")->GetUint(&hits));
  EXPECT_GE(hits, 1u);
}

TEST(ServerTest, MalformedFramesGetErrorRepliesWithoutClosing) {
  DaemonFixture daemon("malformed");
  TestClient client(daemon.socket_path());

  const char* kBad[] = {
      "this is not json",
      "{\"op\":42}",
      "{}",
      R"({"op":"warp"})",
      R"({"op":"submit"})",
      R"({"op":"submit","job":{"kind":"sweep","bogus":1}})",
      R"({"op":"submit","job":{"kind":"sweep","runs":0}})",
      R"({"op":"results"})",
      R"({"op":"results","id":999999})",
      R"([1,2,3])",
  };
  for (const char* frame : kBad) {
    const JsonValue reply = client.SendAndParse(frame);
    ASSERT_TRUE(reply.is_object()) << frame;
    EXPECT_FALSE(reply.Find("ok")->AsBool()) << "accepted: " << frame;
    const JsonValue* error = reply.Find("error");
    ASSERT_NE(error, nullptr) << frame;
    EXPECT_FALSE(error->AsString().empty()) << frame;
  }

  // The connection survived all of it: a valid request still works.
  const JsonValue status = client.SendAndParse(R"({"op":"status"})");
  EXPECT_TRUE(status.Find("ok")->AsBool());

  // Protocol abuse — an unterminated frame over the size cap — is the one thing
  // that closes. MSG_NOSIGNAL: the server may close mid-send, which must surface
  // as EPIPE here, not kill the test with SIGPIPE.
  TestClient abuser(daemon.socket_path());
  const std::string chunk(64 * 1024, 'x');
  size_t sent = 0;
  while (sent < 9 * 1024 * 1024) {
    const ssize_t n = ::send(abuser.fd(), chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n < 0) {
      break;  // the server already hung up on us
    }
    sent += static_cast<size_t>(n);
  }
  EXPECT_TRUE(abuser.WaitForClose());
}

TEST(ServerTest, ConcurrentWatchersSeeOrderedEvents) {
  DaemonFixture daemon("watchers", {.workers = 1});

  // Two watchers subscribe before any work exists; a third client submits two jobs.
  TestClient watcher_a(daemon.socket_path());
  TestClient watcher_b(daemon.socket_path());
  const JsonValue ack_a = watcher_a.SendAndParse(R"({"op":"watch"})");
  const JsonValue ack_b = watcher_b.SendAndParse(R"({"op":"watch","after":0})");
  EXPECT_TRUE(ack_a.Find("ok")->AsBool());
  EXPECT_TRUE(ack_b.Find("ok")->AsBool());

  TestClient submitter(daemon.socket_path());
  const JsonValue s1 = submitter.SendAndParse(
      R"({"op":"submit","job":{"kind":"trace","apps":["temp"],"runtimes":["easeio"],"seed":31}})");
  const JsonValue s2 = submitter.SendAndParse(
      R"({"op":"submit","job":{"kind":"trace","apps":["temp"],"runtimes":["easeio"],"seed":32}})");
  ASSERT_TRUE(s1.Find("ok")->AsBool());
  ASSERT_TRUE(s2.Find("ok")->AsBool());
  uint64_t id1 = 0, id2 = 0;
  ASSERT_TRUE(s1.Find("id")->GetUint(&id1));
  ASSERT_TRUE(s2.Find("id")->GetUint(&id2));

  // Each watcher must observe every transition of both jobs, in strictly increasing
  // seq order, with queued < running < done per job.
  const auto collect = [&](TestClient& watcher) {
    std::vector<JsonValue> events;
    size_t done_seen = 0;
    while (done_seen < 2) {
      const std::string frame = watcher.ReadFrame();
      ASSERT_FALSE(frame.empty());
      JsonValue v;
      std::string error;
      ASSERT_TRUE(ParseJson(frame, &v, &error)) << error << " in: " << frame;
      const JsonValue* event = v.Find("event");
      ASSERT_NE(event, nullptr) << frame;
      if (event->Find("state")->AsString() == "done" ||
          event->Find("state")->AsString() == "failed") {
        ++done_seen;
      }
      events.push_back(*event);
    }
    uint64_t prev_seq = 0;
    uint64_t queued1 = 0, running1 = 0, done1 = 0;
    uint64_t queued2 = 0, running2 = 0, done2 = 0;
    for (const JsonValue& event : events) {
      uint64_t seq = 0, jid = 0;
      ASSERT_TRUE(event.Find("seq")->GetUint(&seq));
      ASSERT_TRUE(event.Find("id")->GetUint(&jid));
      EXPECT_GT(seq, prev_seq) << "events must arrive in strictly increasing order";
      prev_seq = seq;
      const std::string state = event.Find("state")->AsString();
      uint64_t* slot = nullptr;
      if (jid == id1) {
        slot = state == "queued" ? &queued1 : state == "running" ? &running1 : &done1;
      } else if (jid == id2) {
        slot = state == "queued" ? &queued2 : state == "running" ? &running2 : &done2;
      }
      ASSERT_NE(slot, nullptr) << "event for an unknown job";
      *slot = seq;
    }
    EXPECT_TRUE(queued1 < running1 && running1 < done1);
    EXPECT_TRUE(queued2 < running2 && running2 < done2);
    // One worker: job 1 finishes before job 2 starts running.
    EXPECT_LT(done1, running2);
  };
  collect(watcher_a);
  collect(watcher_b);

  // A latecomer watching from seq 0 catches up on the full history with the same
  // ordering guarantees.
  TestClient late(daemon.socket_path());
  const JsonValue ack = late.SendAndParse(R"({"op":"watch","after":0})");
  EXPECT_TRUE(ack.Find("ok")->AsBool());
  collect(late);
}

TEST(ServerTest, SigtermDrainsWithoutLosingJobs) {
  DaemonFixture daemon("drain", {.workers = 1});
  TestClient client(daemon.socket_path());

  // Three distinct ~100ms jobs through one worker: once the first has left the
  // queue, the rest are still queued behind it.
  std::vector<std::string> hashes;
  uint64_t first_id = 0;
  for (int seed = 1; seed <= 3; ++seed) {
    const JsonValue reply = client.SendAndParse(
        R"({"op":"submit","job":{"kind":"sweep","apps":["temp"],"runtimes":["easeio"],"runs":1000,"seed":)" +
        std::to_string(seed * 2000) + "}}");
    ASSERT_TRUE(reply.Find("ok")->AsBool());
    hashes.push_back(reply.Find("hash")->AsString());
    if (seed == 1) {
      ASSERT_TRUE(reply.Find("id")->GetUint(&first_id));
    }
  }

  // Wait until the worker has taken job 1 off the queue. A shutdown that lands before
  // the worker wakes would legitimately persist all three jobs, leaving nothing for
  // the drain to finish.
  std::string first_state = "queued";
  for (int i = 0; i < 2000 && first_state == "queued"; ++i) {
    const JsonValue status = client.SendAndParse(R"({"op":"status"})");
    ASSERT_TRUE(status.Find("ok")->AsBool());
    for (const JsonValue& job : status.Find("jobs")->Items()) {
      uint64_t jid = 0;
      ASSERT_TRUE(job.Find("id")->GetUint(&jid));
      if (jid == first_id) {
        first_state = job.Find("state")->AsString();
      }
    }
    if (first_state == "queued") {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_NE(first_state, "queued") << "the worker never picked up job 1";

  // SIGTERM-style shutdown (flag + wake, exactly what the signal handler does).
  // The in-flight job finishes; the queued remainder is persisted.
  daemon.Shutdown();
  size_t cached = 0, persisted = 0;
  std::string queue_json;
  {
    std::ifstream in(daemon.queue_path());
    std::string line;
    while (std::getline(in, line)) {
      queue_json += line;
    }
  }
  for (const std::string& hash : hashes) {
    if (daemon.cache().Contains(hash)) {
      ++cached;
    } else {
      ++persisted;
    }
  }
  EXPECT_EQ(cached + persisted, hashes.size()) << "no job may be lost on drain";
  EXPECT_GE(cached, 1u) << "the in-flight job finishes before the drain completes";
  EXPECT_GE(persisted, 1u) << "with one worker, at least one job was still queued";

  // The persisted queue is a valid easeio-queue/1 document whose specs re-hash to
  // exactly the jobs missing from the cache — the drain invariant.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(queue_json, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("schema")->AsString(), "easeio-queue/1") << queue_json;
  size_t rehash_matches = 0;
  for (const JsonValue& item : doc.Find("jobs")->Items()) {
    JobSpec spec;
    ASSERT_TRUE(ParseJobSpec(item, &spec, &error)) << error;
    for (const std::string& hash : hashes) {
      if (ContentHash(spec) == hash) {
        ++rehash_matches;
      }
    }
  }
  EXPECT_EQ(rehash_matches, persisted);

  // A restarted runner over the same cache and queue path resumes the persisted
  // jobs and completes everything.
  JobRunner::Options options;
  options.workers = 1;
  options.queue_path = daemon.queue_path();
  JobRunner resumed(&daemon.cache(), options, nullptr);
  resumed.Start();
  for (int i = 0; i < 4000 && resumed.QueuedCount() + resumed.RunningCount() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  resumed.Stop();
  for (const std::string& hash : hashes) {
    EXPECT_TRUE(daemon.cache().Contains(hash)) << "job lost across drain + resume";
  }
}

// Satellite (a) regression: a reply far larger than the connection's send buffer
// must arrive intact through the short-write / EAGAIN path, and a reader that
// delays while the server's outbuf is owed must not wedge the loop for anyone else.
TEST(ServerTest, LargeReplySurvivesShortWritesToADelayedReader) {
  // 4 KiB SO_SNDBUF against a ~80 KiB artifact: FlushClient is guaranteed to hit
  // EAGAIN mid-reply many times over.
  DaemonFixture daemon("shortwrite", {.sndbuf_bytes = 4096});

  const char kTimelineJob[] =
      R"({"op":"submit","job":{"kind":"trace","apps":["weather"],"runtimes":["easeio"],"timeline":true}})";
  TestClient submitter(daemon.socket_path());
  const JsonValue submit = submitter.SendAndParse(kTimelineJob);
  ASSERT_TRUE(submit.Find("ok")->AsBool());
  uint64_t id = 0;
  ASSERT_TRUE(submit.Find("id")->GetUint(&id));
  std::string artifact;
  for (int i = 0; i < 4000 && !daemon.runner().GetArtifact(id, &artifact); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(artifact.size(), 32u * 1024) << "artifact too small to force short writes";

  // Request the artifact but do not read for a while: the kernel buffer fills, the
  // server's send blocks with EAGAIN, and the rest of the reply waits in outbuf.
  TestClient reader(daemon.socket_path());
  reader.Send(R"({"op":"results","id":)" + std::to_string(id) + "}");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The loop is not wedged on the delayed reader: a second client round-trips.
  TestClient prober(daemon.socket_path());
  const JsonValue status = prober.SendAndParse(R"({"op":"status"})");
  EXPECT_TRUE(status.Find("ok")->AsBool());

  // Now drain the reply; every byte of the artifact must have survived.
  JsonValue reply;
  std::string error;
  ASSERT_TRUE(ParseJson(reader.ReadFrame(), &reply, &error)) << error;
  ASSERT_TRUE(reply.Find("ok")->AsBool());
  EXPECT_EQ(reply.Find("artifact")->AsString(), artifact);

  // The connection is still healthy after the marathon reply.
  const JsonValue again = reader.SendAndParse(R"({"op":"cache-stats"})");
  EXPECT_TRUE(again.Find("ok")->AsBool());
}

// Satellite (c): a watch subscriber that stops reading while periodic metrics
// frames accumulate must neither wedge the poll loop nor grow the daemon's memory
// without bound — it is dropped once its unsent backlog exceeds the cap, while
// every reading client stays served.
TEST(ServerTest, StalledWatcherUnderPeriodicMetricsIsDroppedNotWedging) {
  DaemonFixture daemon("slowwatch", {.metrics = true,
                                     .metrics_period_ms = 10,
                                     .max_client_outbuf = 64 * 1024,
                                     .sndbuf_bytes = 4096});

  // A healthy watcher proves the periodic stream works: after the ack it receives
  // a {"metrics":{...}} frame (no job events exist yet, so the first frames are
  // all metrics).
  TestClient healthy(daemon.socket_path());
  ASSERT_TRUE(healthy.SendAndParse(R"({"op":"watch"})").Find("ok")->AsBool());
  JsonValue frame;
  std::string error;
  ASSERT_TRUE(ParseJson(healthy.ReadFrame(), &frame, &error)) << error;
  const JsonValue* metrics_doc = frame.Find("metrics");
  ASSERT_NE(metrics_doc, nullptr);
  EXPECT_EQ(metrics_doc->Find("schema")->AsString(), "easeio-metrics/1");

  // From here on a drainer thread keeps the healthy watcher reading and counts
  // the frames it receives; draining is what distinguishes it from the stalled
  // peer, whose backlog only ever grows.
  std::atomic<uint64_t> healthy_frames{0};
  std::atomic<bool> healthy_closed{false};
  std::atomic<bool> stop_drainer{false};
  std::thread drainer([&] {
    while (!stop_drainer.load()) {
      pollfd pfd{healthy.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) {
        continue;
      }
      char chunk[4096];
      const ssize_t n = ::read(healthy.fd(), chunk, sizeof chunk);
      if (n <= 0) {
        healthy_closed.store(true);
        return;
      }
      for (ssize_t i = 0; i < n; ++i) {
        if (chunk[i] == '\n') {
          healthy_frames.fetch_add(1);
        }
      }
    }
  });
  // An ASSERT below returns early; the drainer must still be joined.
  struct Joiner {
    std::thread& thread;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true);
      thread.join();
    }
  } joiner{drainer, stop_drainer};

  // The stalled watcher subscribes and never reads again. Metrics frames are a
  // few KiB each at a 10ms period against a 64 KiB cap and a 4 KiB socket buffer:
  // the backlog overflows within a few hundred milliseconds.
  TestClient stalled(daemon.socket_path());
  stalled.Send(R"({"op":"watch"})");

  // Meanwhile the daemon keeps serving everyone else, round after round.
  TestClient prober(daemon.socket_path());
  for (int i = 0; i < 10; ++i) {
    const JsonValue status = prober.SendAndParse(R"({"op":"status"})");
    ASSERT_TRUE(status.Find("ok")->AsBool());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // The stalled client is eventually dropped (close, not a wedged loop). The wait
  // must not read: consuming the backlog would un-stall the client.
  EXPECT_TRUE(stalled.WaitForCloseUnread()) << "stalled watcher was never dropped";

  // And the healthy watcher keeps receiving frames after the eviction.
  const uint64_t before = healthy_frames.load();
  for (int i = 0; i < 400 && healthy_frames.load() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(healthy_frames.load(), before);
  EXPECT_FALSE(healthy_closed.load());
}

// The metrics op: live registry contents in both exposition formats.
TEST(ServerTest, MetricsOpServesLiveRegistry) {
  DaemonFixture daemon("metrics-op", {.metrics = true});
  TestClient client(daemon.socket_path());

  // Run one quick job so the counters are visibly live, then wait for "done".
  const JsonValue submit = client.SendAndParse(kQuickTraceJob);
  ASSERT_TRUE(submit.Find("ok")->AsBool());
  uint64_t id = 0;
  ASSERT_TRUE(submit.Find("id")->GetUint(&id));
  std::string artifact;
  for (int i = 0; i < 4000 && !daemon.runner().GetArtifact(id, &artifact); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const JsonValue reply = client.SendAndParse(R"({"op":"metrics"})");
  ASSERT_TRUE(reply.Find("ok")->AsBool());
  const JsonValue* doc = reply.Find("metrics");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->Find("schema")->AsString(), "easeio-metrics/1");
  // The per-kind counters reflect the finished job and the cache mirror is live.
  uint64_t trace_done = 0, cache_puts = 0;
  for (const JsonValue& metric : doc->Find("metrics")->Items()) {
    const std::string name = metric.Find("name")->AsString();
    if (name == "easeiod_jobs_done" &&
        metric.Find("labels")->Find("kind")->AsString() == "trace") {
      ASSERT_TRUE(metric.Find("value")->GetUint(&trace_done));
    } else if (name == "easeiod_cache_puts") {
      ASSERT_TRUE(metric.Find("value")->GetUint(&cache_puts));
    }
  }
  EXPECT_EQ(trace_done, 1u);
  EXPECT_EQ(cache_puts, 1u);

  // Prometheus exposition rides the same op with format=prometheus.
  const JsonValue prom =
      client.SendAndParse(R"({"op":"metrics","format":"prometheus"})");
  ASSERT_TRUE(prom.Find("ok")->AsBool());
  const std::string text = prom.Find("text")->AsString();
  EXPECT_NE(text.find("# TYPE easeiod_jobs_done counter"), std::string::npos);
  EXPECT_NE(text.find("easeiod_jobs_done{kind=\"trace\"} 1"), std::string::npos);

  // Unknown formats are an error; the connection survives.
  const JsonValue bad = client.SendAndParse(R"({"op":"metrics","format":"xml"})");
  EXPECT_FALSE(bad.Find("ok")->AsBool());
  EXPECT_TRUE(client.SendAndParse(R"({"op":"status"})").Find("ok")->AsBool());
}

// Without a registry attached, the metrics op reports a clean error.
TEST(ServerTest, MetricsOpWithoutRegistryIsAnError) {
  DaemonFixture daemon("metrics-off");
  TestClient client(daemon.socket_path());
  const JsonValue reply = client.SendAndParse(R"({"op":"metrics"})");
  EXPECT_FALSE(reply.Find("ok")->AsBool());
  EXPECT_TRUE(client.SendAndParse(R"({"op":"status"})").Find("ok")->AsBool());
}

TEST(ServerTest, ShutdownOpAcknowledgesThenExits) {
  DaemonFixture daemon("shutdown-op");
  TestClient client(daemon.socket_path());
  const JsonValue reply = client.SendAndParse(R"({"op":"shutdown"})");
  EXPECT_TRUE(reply.Find("ok")->AsBool());
  EXPECT_TRUE(client.WaitForClose()) << "the server closes connections after the ack";
  daemon.Shutdown();  // joins the loop thread (already exiting) and drains
}

}  // namespace
}  // namespace easeio::daemon
