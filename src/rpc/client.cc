#include "rpc/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/retry.h"

namespace orion::rpc {

namespace {

bool WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                ClientOptions options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s =
        Status::Internal(std::string("connect(): ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd, std::move(options)));
}

Client::Client(int fd, ClientOptions options)
    : fd_(fd), options_(std::move(options)) {}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status Client::Flight(const std::vector<const Request*>& requests,
                      std::vector<WireResponse>& responses) {
  if (broken_) {
    return Status::Internal("rpc connection is broken");
  }
  struct Sent {
    uint64_t request_id = 0;
    obs::TraceContext ctx;
    uint64_t parent = 0;
  };
  std::string wire;
  std::vector<Sent> sent;
  sent.reserve(requests.size());
  for (const Request* req : requests) {
    Sent s;
    s.ctx = obs::CaptureChildContext(&s.parent);
    s.request_id = next_request_id_++;
    wire += EncodeFrame(kKindRequest, static_cast<uint16_t>(req->op),
                        s.request_id, s.ctx, req->payload);
    sent.push_back(s);
    ++stats_.requests;
  }
  const uint64_t start_us = obs::NowMicros();
  if (!WriteAll(fd_, wire)) {
    broken_ = true;
    return Status::Internal("rpc send failed (connection lost)");
  }
  // Buffered response reader: the server coalesces a flight's responses
  // into large sends, so pull the stream in big chunks and parse frames
  // out of the buffer instead of paying three recv() calls per response.
  std::string rbuf;
  size_t rpos = 0;
  auto fill = [&](size_t need) -> bool {
    while (rbuf.size() - rpos < need) {
      char chunk[16384];
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r == 0) {
        return false;
      }
      if (r < 0) {
        if (errno == EINTR) {
          continue;
        }
        return false;
      }
      rbuf.append(chunk, static_cast<size_t>(r));
    }
    return true;
  };
  for (size_t i = 0; i < sent.size(); ++i) {
    if (!fill(kHeaderSize)) {
      broken_ = true;
      return Status::Internal("rpc receive failed (connection lost)");
    }
    const auto* header = reinterpret_cast<const uint8_t*>(rbuf.data() + rpos);
    Result<FrameHeader> h =
        DecodeFrameHeader(header, options_.max_payload_bytes);
    if (!h.ok() || h->kind != kKindResponse) {
      broken_ = true;
      return Status::Internal("malformed rpc response frame");
    }
    if (!fill(kHeaderSize + h->length + kTrailerSize)) {
      broken_ = true;
      return Status::Internal("rpc receive failed (connection lost)");
    }
    header = reinterpret_cast<const uint8_t*>(rbuf.data() + rpos);
    std::string payload = rbuf.substr(rpos + kHeaderSize, h->length);
    uint32_t crc = 0;
    for (int b = 3; b >= 0; --b) {
      crc = (crc << 8) |
            static_cast<uint8_t>(rbuf[rpos + kHeaderSize + h->length +
                                      static_cast<size_t>(b)]);
    }
    rpos += kHeaderSize + h->length + kTrailerSize;
    if (!CheckFrameCrc(header, payload, crc)) {
      broken_ = true;
      return Status::Internal("rpc response failed its CRC check");
    }
    // The server answers a connection's frames in order; anything else
    // means the stream is desynchronized beyond repair.
    if (h->request_id != sent[i].request_id) {
      broken_ = true;
      return Status::Internal("rpc response out of order");
    }
    if (sent[i].ctx.trace_id != 0) {
      obs::EmitSpan(options_.trace, "rpc.call", start_us,
                    obs::NowMicros() - start_us, sent[i].request_id,
                    sent[i].ctx, sent[i].parent);
    }
    responses[i].status = static_cast<WireStatus>(h->code);
    responses[i].payload = std::move(payload);
  }
  if (rpos != rbuf.size()) {
    // The server answered more frames than this flight sent: the stream
    // is desynchronized beyond repair.
    broken_ = true;
    return Status::Internal("rpc stream desynchronized");
  }
  return Status::Ok();
}

Result<std::string> Client::Call(const Request& request) {
  return std::move(CallBatch(std::span<const Request>(&request, 1))[0]);
}

std::vector<Result<std::string>> Client::CallBatch(
    std::span<const Request> requests) {
  const size_t n = requests.size();
  std::vector<WireResponse> out(n);
  std::vector<size_t> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  const RetryPolicy policy{options_.max_retries, options_.backoff_base,
                           options_.backoff_cap};
  // A member still RETRYABLE when the budget runs out keeps that status,
  // which `FromWireStatus` surfaces as kTimeout.
  Retry(policy, [&](int attempt) {
    if (attempt > 0) {
      stats_.retries += pending.size();
    }
    std::vector<const Request*> flight;
    flight.reserve(pending.size());
    for (const size_t idx : pending) {
      flight.push_back(&requests[idx]);
    }
    std::vector<WireResponse> responses(pending.size());
    const Status transport = Flight(flight, responses);
    if (!transport.ok()) {
      // Transport failures are kInternal (see `Flight`).
      for (const size_t idx : pending) {
        out[idx] = {WireStatus::kInternal, transport.message()};
      }
      return false;
    }
    std::vector<size_t> still;
    for (size_t k = 0; k < pending.size(); ++k) {
      if (responses[k].status == WireStatus::kRetryable) {
        still.push_back(pending[k]);
      }
      out[pending[k]] = std::move(responses[k]);
    }
    pending = std::move(still);
    return !pending.empty();
  });
  std::vector<Result<std::string>> results;
  results.reserve(n);
  for (WireResponse& r : out) {
    if (r.status == WireStatus::kOk) {
      results.push_back(std::move(r.payload));
    } else {
      ++stats_.failures;
      results.push_back(FromWireStatus(r.status, std::move(r.payload)));
    }
  }
  return results;
}

Status Client::Ping() {
  ORION_ASSIGN_OR_RETURN(std::string payload, Call(PingRequest()));
  (void)payload;  // ping carries no payload; OK status is the answer
  return Status::Ok();
}

Result<Uid> Client::Make(const std::string& class_name,
                         const std::vector<WireParent>& parents,
                         const std::vector<WireAttr>& attrs) {
  ORION_ASSIGN_OR_RETURN(std::string payload,
                         Call(MakeRequest(class_name, parents, attrs)));
  return ParseUidResponse(payload);
}

Result<Value> Client::Get(Uid uid, const std::string& attribute) {
  ORION_ASSIGN_OR_RETURN(std::string payload,
                         Call(GetRequest(uid, attribute)));
  return ParseValueResponse(payload);
}

Status Client::Set(Uid uid, const std::string& attribute,
                   const Value& value) {
  ORION_ASSIGN_OR_RETURN(std::string payload,
                         Call(SetRequest(uid, attribute, value)));
  (void)payload;  // set's success payload is empty
  return Status::Ok();
}

Status Client::Delete(Uid uid) {
  ORION_ASSIGN_OR_RETURN(std::string payload, Call(DeleteRequest(uid)));
  (void)payload;  // delete's success payload is empty
  return Status::Ok();
}

Result<std::vector<Uid>> Client::Select(const std::string& class_name,
                                        const std::string& query) {
  ORION_ASSIGN_OR_RETURN(std::string payload,
                         Call(SelectRequest(class_name, query)));
  return ParseUidListResponse(payload);
}

Result<Value> Client::Eval(const std::string& program) {
  ORION_ASSIGN_OR_RETURN(std::string payload, Call(EvalRequest(program)));
  return ParseValueResponse(payload);
}

Result<std::vector<std::string>> Client::Txn(
    const std::vector<Request>& subops) {
  ORION_ASSIGN_OR_RETURN(std::string payload, Call(TxnRequest(subops)));
  return ParseTxnResponse(payload);
}

}  // namespace orion::rpc
