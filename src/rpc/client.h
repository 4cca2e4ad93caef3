#ifndef ORION_RPC_CLIENT_H_
#define ORION_RPC_CLIENT_H_

// The C++ wire client (§14): a blocking connection to one rpc::Server
// with typed helpers for the fixed ops, `Eval` for shipping lang/
// programs, and two transports — `Call` (one request, one response) and
// `CallBatch` (pipelining: every frame is written before any response is
// read, so a batch pays one round-trip instead of N).
//
// Retries run through the engine's one retry loop (`Retry` in
// core/retry.h, the loop under `Session::Run`): a RETRYABLE wire status —
// server-side conflict or admission shed — is absorbed by the shared
// jittered exponential backoff up to `max_retries`, after which it
// surfaces as kTimeout.  Any other non-OK status is returned as-is.
// `Call` is a one-request `CallBatch`; a batch re-sends only its
// retryable members.
//
// Tracing (§14.6): each attempt captures a child context of the calling
// thread's ambient trace (zero when untraced), sends it in the frame
// header, and emits an "rpc.call" span on response — so a traced caller
// sees its half of the tree here and the server's half, joined by the
// same trace id, in the cluster's trace buffer.
//
/// Thread-safety: a Client is NOT thread-safe — it owns one socket and
/// one request-id sequence; create one per thread (the server side pools
/// sessions, not connections).  Distinct Clients are independent.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/uid.h"
#include "common/value.h"
#include "obs/trace.h"
#include "rpc/wire.h"

namespace orion::rpc {

struct ClientOptions {
  /// Retry budget for RETRYABLE responses (then kTimeout), per request.
  int max_retries = 16;
  /// First backoff.  The un-jittered delay doubles per retry until it
  /// reaches `backoff_cap`; each sleep is then jittered into [x/2, 3x/2)
  /// of it, so the longest sleep is just under 1.5x `backoff_cap`.
  std::chrono::microseconds backoff_base{200};
  std::chrono::microseconds backoff_cap{50000};
  /// Response frames with a larger payload fail the call.
  uint32_t max_payload_bytes = kDefaultMaxPayload;
  /// Optional buffer for this client's "rpc.call" spans when no ambient
  /// trace is open on the calling thread (null: such spans are dropped).
  obs::TraceBuffer* trace = nullptr;
};

/// Outcome counters (single-threaded, like SessionStats).
struct ClientStats {
  uint64_t requests = 0;   ///< frames sent
  uint64_t retries = 0;    ///< RETRYABLE responses absorbed
  uint64_t failures = 0;   ///< calls that returned non-OK
};

class Client {
 public:
  /// Connects to `host:port` (numeric IPv4, e.g. "127.0.0.1").
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Typed helpers (all built on Call) -------------------------------------

  Status Ping();
  Result<Uid> Make(const std::string& class_name,
                   const std::vector<WireParent>& parents = {},
                   const std::vector<WireAttr>& attrs = {});
  Result<Value> Get(Uid uid, const std::string& attribute);
  Status Set(Uid uid, const std::string& attribute, const Value& value);
  Status Delete(Uid uid);
  Result<std::vector<Uid>> Select(const std::string& class_name,
                                  const std::string& query);
  Result<Value> Eval(const std::string& program);
  /// One atomic transaction of kMake/kGet/kSet/kDelete sub-ops; returns
  /// the per-subop response payloads (parse with the wire.h parsers).
  Result<std::vector<std::string>> Txn(const std::vector<Request>& subops);

  // --- Transports ------------------------------------------------------------

  /// Sends one request and waits for its response, retrying RETRYABLE
  /// outcomes (a one-element `CallBatch`).  Returns the response payload.
  Result<std::string> Call(const Request& request);

  /// Pipelined batch: writes all requests, then reads all responses (the
  /// server answers a connection's frames in order).  Retryable members
  /// are re-sent in subsequent pipelined rounds until the shared retry
  /// budget is spent.  Result i corresponds to request i.
  std::vector<Result<std::string>> CallBatch(
      std::span<const Request> requests);

  const ClientStats& stats() const { return stats_; }

 private:
  Client(int fd, ClientOptions options);

  struct WireResponse {
    WireStatus status = WireStatus::kOk;
    std::string payload;
  };
  /// One pipelined flight: send every request, then receive the
  /// responses in order.  Transport failure poisons the connection
  /// (every subsequent call fails with kInternal).
  Status Flight(const std::vector<const Request*>& requests,
                std::vector<WireResponse>& responses);

  int fd_;
  ClientOptions options_;
  uint64_t next_request_id_ = 1;
  ClientStats stats_;
  bool broken_ = false;
};

}  // namespace orion::rpc

#endif  // ORION_RPC_CLIENT_H_
