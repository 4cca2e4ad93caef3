// §14 wire protocol and RPC front-end: value/frame round-trips, loopback
// request routing, pipelined batch ordering, the RETRYABLE retry loop,
// admission-control shedding, protocol-error isolation (a malformed frame
// kills its connection, never the server), and the cross-process trace
// join (§14.6).  Suite names carry "Rpc" so the TSan CI leg runs them
// under the race detector.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cell/cluster.h"
#include "common/uid.h"
#include "common/value.h"
#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"

namespace orion::rpc {
namespace {

using obs::TraceEvent;

Cluster* NewCluster(int cells = 2) {
  auto* cluster = new Cluster(cells);
  EXPECT_TRUE(cluster
                  ->MakeClass(ClassSpec{
                      .name = "Doc",
                      .attributes = {WeakAttr("N", "integer"),
                                     WeakAttr("Title", "string")}})
                  .ok());
  return cluster;
}

/// Polls `pred` for up to two seconds — the server closes its trace root
/// after the response frame is on the wire, so trace/metric assertions
/// may observe the response slightly before the server-side bookkeeping.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// --- Wire encoding -----------------------------------------------------------

TEST(RpcWireTest, ValueRoundTripsEveryType) {
  const std::vector<Value> values = {
      Value::Null(),
      Value::Integer(-42),
      Value::Real(3.25),
      Value::String("hello \x01 world"),
      Value::Ref(UidFromRaw(0x123456789abcdef0ull)),
      Value::Set({Value::Integer(1), Value::String("two"),
                  Value::Ref(UidFromRaw(7))}),
  };
  for (const Value& v : values) {
    std::string buf;
    PutValue(buf, v);
    Cursor c(buf);
    const Value back = c.TakeValue();
    ASSERT_TRUE(c.Done()) << "value did not decode cleanly";
    EXPECT_EQ(back.type(), v.type());
    EXPECT_EQ(back.ToString(), v.ToString());
  }
}

TEST(RpcWireTest, NestedSetsAreRejected) {
  std::string buf;
  // Hand-encode a set containing a set: tag kSet, count 1, tag kSet, ...
  PutU8(buf, static_cast<uint8_t>(ValueType::kSet));
  PutU32(buf, 1);
  PutU8(buf, static_cast<uint8_t>(ValueType::kSet));
  PutU32(buf, 0);
  Cursor c(buf);
  (void)c.TakeValue();
  EXPECT_FALSE(c.ok());
}

TEST(RpcWireTest, FrameHeaderRejectsBadMagicVersionKindAndLength) {
  const std::string frame =
      EncodeFrame(kKindRequest, 0, 1, obs::TraceContext{}, "abc");
  ASSERT_GE(frame.size(), kHeaderSize + 3 + kTrailerSize);
  const auto* bytes = reinterpret_cast<const uint8_t*>(frame.data());
  EXPECT_TRUE(DecodeFrameHeader(bytes, kDefaultMaxPayload).ok());

  uint8_t bad[kHeaderSize];
  std::memcpy(bad, bytes, kHeaderSize);
  bad[0] ^= 0xff;  // magic
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());

  std::memcpy(bad, bytes, kHeaderSize);
  bad[4] = 99;  // version
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());

  std::memcpy(bad, bytes, kHeaderSize);
  bad[5] = 7;  // kind
  EXPECT_FALSE(DecodeFrameHeader(bad, kDefaultMaxPayload).ok());

  std::memcpy(bad, bytes, kHeaderSize);
  EXPECT_FALSE(DecodeFrameHeader(bad, /*max_payload=*/2).ok());

  // CRC covers header and payload: flipping a payload byte must fail.
  std::string payload = frame.substr(kHeaderSize, 3);
  uint32_t crc = 0;
  for (size_t i = 0; i < kTrailerSize; ++i) {
    crc |= static_cast<uint32_t>(
               static_cast<uint8_t>(frame[kHeaderSize + 3 + i]))
           << (8 * i);
  }
  EXPECT_TRUE(CheckFrameCrc(bytes, payload, crc));
  payload[1] ^= 0x40;
  EXPECT_FALSE(CheckFrameCrc(bytes, payload, crc));
}

TEST(RpcWireTest, StatusMappingCollapsesConflictsToRetryable) {
  EXPECT_EQ(ToWireStatus(StatusCode::kDeadlock), WireStatus::kRetryable);
  EXPECT_EQ(ToWireStatus(StatusCode::kLockTimeout), WireStatus::kRetryable);
  EXPECT_EQ(ToWireStatus(StatusCode::kSchemaConflict), WireStatus::kRetryable);
  EXPECT_EQ(ToWireStatus(StatusCode::kTimeout), WireStatus::kRetryable);
  EXPECT_EQ(ToWireStatus(StatusCode::kNotFound), WireStatus::kNotFound);
  EXPECT_EQ(FromWireStatus(WireStatus::kRetryable, "shed").code(),
            StatusCode::kTimeout);
  EXPECT_EQ(FromWireStatus(WireStatus::kBadRequest, "x").code(),
            StatusCode::kInvalidArgument);
}

// --- Loopback round-trips ----------------------------------------------------

TEST(RpcLoopbackTest, FixedOpsRoundTrip) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  Server server(cluster.get());
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;

  ASSERT_TRUE(c.Ping().ok());

  const Result<Uid> made =
      c.Make("Doc", {}, {{"N", Value::Integer(1)},
                         {"Title", Value::String("alpha")}});
  ASSERT_TRUE(made.ok());

  Result<Value> got = c.Get(*made, "N");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->integer(), 1);

  ASSERT_TRUE(c.Set(*made, "N", Value::Integer(7)).ok());
  got = c.Get(*made, "N");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->integer(), 7);

  const Result<std::vector<Uid>> hits =
      c.Select("Doc", "(= Title \"alpha\")");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], *made);

  // Eval: interpreter bindings persist for the connection's lifetime.
  ASSERT_TRUE(c.Eval("(define x 42)").ok());
  const Result<Value> bound = c.Eval("x");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->integer(), 42);

  ASSERT_TRUE(c.Delete(*made).ok());
  EXPECT_EQ(c.Get(*made, "N").status().code(), StatusCode::kNotFound);

  // Engine rejections arrive as typed statuses, not connection failures.
  EXPECT_EQ(c.Make("NoSuchClass").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(c.Ping().ok());

  server.Stop();
  EXPECT_GE(c.stats().requests, 10u);
}

TEST(RpcLoopbackTest, PipelinedBatchPreservesOrder) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  Server server(cluster.get());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;

  // One batched flight of makes; responses must land in request order.
  std::vector<Request> makes;
  for (int i = 0; i < 16; ++i) {
    makes.push_back(MakeRequest("Doc", {}, {{"N", Value::Integer(i)}}));
  }
  std::vector<Result<std::string>> replies = c.CallBatch(makes);
  ASSERT_EQ(replies.size(), makes.size());
  std::vector<Uid> uids;
  for (const auto& r : replies) {
    ASSERT_TRUE(r.ok());
    const Result<Uid> uid = ParseUidResponse(*r);
    ASSERT_TRUE(uid.ok());
    uids.push_back(*uid);
  }

  // Read them all back in one flight: reply i must answer request i.
  std::vector<Request> gets;
  for (const Uid uid : uids) {
    gets.push_back(GetRequest(uid, "N"));
  }
  replies = c.CallBatch(gets);
  ASSERT_EQ(replies.size(), gets.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    ASSERT_TRUE(replies[i].ok());
    const Result<Value> v = ParseValueResponse(*replies[i]);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->integer(), static_cast<int64_t>(i));
  }
  server.Stop();
}

TEST(RpcLoopbackTest, TxnIsAtomicAndSpansCells) {
  std::unique_ptr<Cluster> cluster(NewCluster(2));
  Server server(cluster.get());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;

  // Round-robin placement puts two fresh roots in different cells, so
  // this one wire request is a cross-cell 2PC transaction.
  const Result<std::vector<std::string>> replies =
      c.Txn({MakeRequest("Doc", {}, {{"N", Value::Integer(1)}}),
             MakeRequest("Doc", {}, {{"N", Value::Integer(2)}})});
  ASSERT_TRUE(replies.ok());
  ASSERT_EQ(replies->size(), 2u);
  const Result<Uid> a = ParseUidResponse((*replies)[0]);
  const Result<Uid> b = ParseUidResponse((*replies)[1]);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(CellTagOf(*a), CellTagOf(*b));

  // A failing sub-op aborts the whole transaction: nothing is visible.
  const auto failed =
      c.Txn({MakeRequest("Doc", {}, {{"N", Value::Integer(3)}}),
             MakeRequest("NoSuchClass")});
  EXPECT_FALSE(failed.ok());
  const Result<std::vector<Uid>> all = c.Select("Doc", "(= N 3)");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
  server.Stop();
}

// --- Index list under concurrent DDL and queries -----------------------------

TEST(RpcIndexTest, CreateIndexEvalRacesSelects) {
  constexpr int kAttrs = 12;
  constexpr int kObjects = 8;
  std::unique_ptr<Cluster> cluster(new Cluster(2));
  ClassSpec spec{.name = "Wide"};
  for (int i = 0; i < kAttrs; ++i) {
    spec.attributes.push_back(WeakAttr("A" + std::to_string(i), "integer"));
  }
  ASSERT_TRUE(cluster->MakeClass(spec).ok());
  Server server(cluster.get());
  ASSERT_TRUE(server.Start().ok());
  auto writer = Client::Connect("127.0.0.1", server.port());
  auto reader = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  for (int j = 0; j < kObjects; ++j) {
    std::vector<WireAttr> attrs;
    for (int i = 0; i < kAttrs; ++i) {
      attrs.push_back({"A" + std::to_string(i), Value::Integer(j % 2)});
    }
    ASSERT_TRUE((*writer)->Make("Wide", {}, attrs).ok());
  }

  // One connection grows the authority cell's index list through eval
  // while another plans selects against it.
  std::atomic<bool> done{false};
  std::thread ddl([&] {
    for (int i = 0; i < kAttrs; ++i) {
      EXPECT_TRUE((*writer)
                      ->Eval("(create-index Wide A" + std::to_string(i) + ")")
                      .ok());
    }
    done.store(true);
  });
  int selects = 0;
  while (!done.load() || selects < kAttrs) {
    const std::string attr = "A" + std::to_string(selects % kAttrs);
    const Result<std::vector<Uid>> hits =
        (*reader)->Select("Wide", "(= " + attr + " 1)");
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_EQ(hits->size(), static_cast<size_t>(kObjects / 2)) << attr;
    ++selects;
  }
  ddl.join();
  EXPECT_EQ(cluster->authority().indexes().index_count(),
            static_cast<size_t>(kAttrs));
  server.Stop();
}

// --- Retry and admission control ---------------------------------------------

TEST(RpcAdmissionTest, ShedRequestsSurfaceAsTimeoutAfterRetryBudget) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  ServerOptions so;
  so.max_in_flight = 0;  // shed everything
  Server server(cluster.get(), so);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions co;
  co.max_retries = 3;
  co.backoff_base = std::chrono::microseconds(50);
  co.backoff_cap = std::chrono::microseconds(200);
  auto client = Client::Connect("127.0.0.1", server.port(), co);
  ASSERT_TRUE(client.ok());

  const Status s = (*client)->Ping();
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ((*client)->stats().retries, 3u);
  EXPECT_GE(server.metrics().shed->Value(), 4u);
  server.Stop();
  // Quiescence (§14.7): Stop() leaves the gauges authoritatively zero.
  EXPECT_EQ(server.metrics().in_flight->Value(), 0);
  EXPECT_EQ(server.metrics().connections->Value(), 0);
}

// `Call` is a one-request `CallBatch`, so the batch path carries every
// retry: under full shedding each member spends its own budget (one retry
// per member per round) and surfaces as kTimeout.
TEST(RpcAdmissionTest, ShedBatchMembersSurfaceAsTimeoutAfterRetryBudget) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  ServerOptions so;
  so.max_in_flight = 0;  // shed everything
  Server server(cluster.get(), so);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions co;
  co.max_retries = 2;
  co.backoff_base = std::chrono::microseconds(50);
  co.backoff_cap = std::chrono::microseconds(200);
  auto client = Client::Connect("127.0.0.1", server.port(), co);
  ASSERT_TRUE(client.ok());

  const std::vector<Request> pings(3, PingRequest());
  const std::vector<Result<std::string>> replies =
      (*client)->CallBatch(pings);
  ASSERT_EQ(replies.size(), pings.size());
  for (const Result<std::string>& r : replies) {
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  }
  EXPECT_EQ((*client)->stats().retries, 6u);
  EXPECT_EQ((*client)->stats().requests, 9u);
  EXPECT_EQ((*client)->stats().failures, 3u);
  server.Stop();
}

TEST(RpcAdmissionTest, ContendedClientsRetryThroughShedding) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  ServerOptions so;
  so.max_in_flight = 1;
  so.handler_delay = std::chrono::microseconds(3000);
  Server server(cluster.get(), so);
  ASSERT_TRUE(server.Start().ok());

  // Two connections hammering a one-token server: overlap is inevitable,
  // every shed outcome must be absorbed by the client retry loop.
  std::atomic<int> failures{0};
  auto worker = [&] {
    ClientOptions co;
    co.max_retries = 64;
    co.backoff_base = std::chrono::microseconds(200);
    auto client = Client::Connect("127.0.0.1", server.port(), co);
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 15; ++i) {
      if (!(*client)->Ping().ok()) {
        ++failures;
      }
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.metrics().shed->Value(), 1u);
  server.Stop();
}

TEST(RpcAdmissionTest, ConnectionStormIsRejectedAtTheDoor) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  ServerOptions so;
  so.max_connections = 2;
  Server server(cluster.get(), so);
  ASSERT_TRUE(server.Start().ok());

  auto c1 = Client::Connect("127.0.0.1", server.port());
  auto c2 = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE((*c1)->Ping().ok());
  ASSERT_TRUE((*c2)->Ping().ok());

  // The table is full: the storm is accepted and immediately closed, so
  // each victim's first call dies on transport, never by hanging.
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    auto extra = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(extra.ok());
    if (!(*extra)->Ping().ok()) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 6);
  EXPECT_TRUE(Eventually([&] {
    return server.metrics().connections_rejected->Value() >= 6;
  }));

  // Established connections are unharmed by the storm.
  EXPECT_TRUE((*c1)->Ping().ok());
  EXPECT_TRUE((*c2)->Ping().ok());
  server.Stop();
}

// --- Protocol errors ---------------------------------------------------------

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(r, 0);
    sent += static_cast<size_t>(r);
  }
}

/// True when the peer closed the connection (EOF within the deadline).
bool DrainToEof(int fd) {
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[256];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) {
      return true;
    }
    if (r < 0) {
      return false;
    }
  }
}

TEST(RpcProtocolTest, MalformedFramesKillTheConnectionNotTheServer) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  Server server(cluster.get());
  ASSERT_TRUE(server.Start().ok());

  // (a) garbage header: bad magic.
  int fd = RawConnect(server.port());
  SendAll(fd, std::string(kHeaderSize, 'X'));
  EXPECT_TRUE(DrainToEof(fd));
  ::close(fd);

  // (b) valid header, corrupted payload byte — CRC check must fail.
  fd = RawConnect(server.port());
  std::string frame = EncodeFrame(kKindRequest, 0, 1, obs::TraceContext{},
                                  std::string("junk-payload"));
  frame[kHeaderSize] ^= 0x01;
  SendAll(fd, frame);
  EXPECT_TRUE(DrainToEof(fd));
  ::close(fd);

  // (c) truncated frame: header promises a payload that never arrives.
  fd = RawConnect(server.port());
  frame = EncodeFrame(kKindRequest, 0, 2, obs::TraceContext{}, "abcdef");
  SendAll(fd, frame.substr(0, kHeaderSize + 2));
  ::shutdown(fd, SHUT_WR);
  EXPECT_TRUE(DrainToEof(fd));
  ::close(fd);

  EXPECT_TRUE(Eventually([&] {
    return server.metrics().protocol_errors->Value() >= 2;
  }));

  // (d) an unknown op is NOT fatal (§14.5): the server answers
  // kBadRequest on the same connection and keeps serving it.
  fd = RawConnect(server.port());
  SendAll(fd, EncodeFrame(kKindRequest, /*code=*/999, 3, obs::TraceContext{},
                          ""));
  uint8_t header[kHeaderSize];
  size_t got = 0;
  while (got < kHeaderSize) {
    const ssize_t r = ::recv(fd, header + got, kHeaderSize - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<size_t>(r);
  }
  const Result<FrameHeader> h = DecodeFrameHeader(header, kDefaultMaxPayload);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->kind, kKindResponse);
  EXPECT_EQ(static_cast<WireStatus>(h->code), WireStatus::kBadRequest);
  EXPECT_EQ(h->request_id, 3u);
  ::close(fd);

  // The server survived all of it.
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  server.Stop();
}

// --- Cross-process tracing (§14.6) -------------------------------------------

TEST(RpcTracingTest, WireCallJoinsClientAndServerHalvesIntoOneTree) {
  std::unique_ptr<Cluster> cluster(NewCluster(2));
  Server server(cluster.get());
  ASSERT_TRUE(server.Start().ok());

  obs::TraceBuffer client_buf(obs::TraceOptions{.capacity = 256});
  ClientOptions co;
  co.trace = &client_buf;
  auto client = Client::Connect("127.0.0.1", server.port(), co);
  ASSERT_TRUE(client.ok());

  uint64_t trace_id = 0;
  {
    obs::TraceRoot root(&client_buf, "client.request", 99);
    trace_id = root.context().trace_id;
    const auto replies = (*client)->Txn(
        {MakeRequest("Doc", {}, {{"N", Value::Integer(10)}}),
         MakeRequest("Doc", {}, {{"N", Value::Integer(11)}})});
    ASSERT_TRUE(replies.ok());
  }
  ASSERT_NE(trace_id, 0u);

  // The server half closes its root after the response frame is sent;
  // wait for it to land in the cluster's ring.
  ASSERT_TRUE(Eventually([&] {
    for (const TraceEvent& e : cluster->trace().Snapshot()) {
      if (e.trace_id == trace_id && std::string("rpc.server") == e.name) {
        return true;
      }
    }
    return false;
  }));

  // Stitch both halves: same trace id, one connected tree whose only
  // parentless span is the client's root.
  std::vector<TraceEvent> tree;
  for (const TraceEvent& e : client_buf.Snapshot()) {
    if (e.trace_id == trace_id) {
      tree.push_back(e);
    }
  }
  for (const TraceEvent& e : cluster->trace().Snapshot()) {
    if (e.trace_id == trace_id) {
      tree.push_back(e);
    }
  }
  std::set<uint64_t> ids;
  size_t roots = 0;
  size_t rpc_call = 0;
  size_t rpc_server = 0;
  for (const TraceEvent& e : tree) {
    ASSERT_TRUE(ids.insert(e.span_id).second)
        << "duplicate span id across the process boundary";
    rpc_call += std::string("rpc.call") == e.name ? 1 : 0;
    rpc_server += std::string("rpc.server") == e.name ? 1 : 0;
  }
  for (const TraceEvent& e : tree) {
    if (e.parent_id == 0) {
      ++roots;
      EXPECT_STREQ(e.name, "client.request");
    } else {
      EXPECT_TRUE(ids.count(e.parent_id) > 0)
          << e.name << " parents to span " << e.parent_id
          << " which is in neither half of the stitched tree";
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(rpc_call, 1u);
  EXPECT_EQ(rpc_server, 1u);
  // The server half contains the transaction machinery under its root.
  EXPECT_GT(tree.size(), 3u);
  server.Stop();
}

// --- Lifecycle ---------------------------------------------------------------

TEST(RpcServerTest, StopWithLiveConnectionsJoinsCleanly) {
  std::unique_ptr<Cluster> cluster(NewCluster());
  Server server(cluster.get());
  ASSERT_TRUE(server.Start().ok());
  auto c1 = Client::Connect("127.0.0.1", server.port());
  auto c2 = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE((*c1)->Ping().ok());
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.metrics().connections->Value(), 0);
  // A call into the stopped server fails on transport, not by hanging.
  EXPECT_FALSE((*c1)->Ping().ok());
}

}  // namespace
}  // namespace orion::rpc
