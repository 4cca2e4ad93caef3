#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"

namespace orion::obs {

namespace {

/// The thread's ambient trace: the context new spans parent to, and the
/// root's scratch collector they append to.  Installed by TraceRoot /
/// TraceContextScope; null collector means "no trace open on this thread"
/// and every recording primitive falls back to the flat ring.
struct AmbientTrace {
  TraceContext ctx;
  std::vector<TraceEvent>* collector = nullptr;
};

AmbientTrace& Ambient() {
  thread_local AmbientTrace ambient;
  return ambient;
}

void AppendU64(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// One Chrome-trace complete event ("ph":"X").  Span names are static C
/// string literals from the engine (identifier-safe), so no escaping.
void AppendChromeEvent(std::string& out, const TraceEvent& e, bool& first) {
  out += first ? "\n    " : ",\n    ";
  first = false;
  out += "{\"name\": \"";
  out += e.name == nullptr ? "?" : e.name;
  out += "\", \"cat\": \"orion\", \"ph\": \"X\", \"ts\": ";
  AppendU64(out, e.start_us);
  out += ", \"dur\": ";
  AppendU64(out, e.duration_us);
  out += ", \"pid\": 1, \"tid\": ";
  AppendU64(out, e.thread_id);
  out += ", \"args\": {\"trace_id\": ";
  AppendU64(out, e.trace_id);
  out += ", \"span_id\": ";
  AppendU64(out, e.span_id);
  out += ", \"parent_id\": ";
  AppendU64(out, e.parent_id);
  out += ", \"tag\": ";
  AppendU64(out, e.tag);
  out += "}}";
}

}  // namespace

uint64_t NowMicros() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

TraceBuffer::TraceBuffer(size_t capacity)
    : TraceBuffer(TraceOptions{.capacity = capacity}) {}

TraceBuffer::TraceBuffer(const TraceOptions& options)
    : options_(options),
      capacity_(std::bit_ceil(std::max<size_t>(options.capacity, 8))),
      mask_(capacity_ - 1),
      slots_(new Slot[capacity_]) {}

void TraceBuffer::AttachMetrics(MetricsRegistry* registry) {
  dropped_counter_ = &registry->counter("trace.dropped");
  sampled_counter_ = &registry->counter("trace.sampled");
  retained_counter_ = &registry->counter("trace.retained");
}

void TraceBuffer::Record(const char* name, uint64_t start_us,
                         uint64_t duration_us, uint64_t tag) {
  Record(name, start_us, duration_us, tag, TraceContext{}, 0);
}

void TraceBuffer::Record(const char* name, uint64_t start_us,
                         uint64_t duration_us, uint64_t tag, TraceContext ctx,
                         uint64_t parent_id) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  if (ticket >= capacity_ && dropped_counter_ != nullptr) {
    // This write overwrites the event `capacity_` tickets before it; the
    // counter tracks exactly the dropped() arithmetic.
    dropped_counter_->Inc();
  }
  Slot& slot = slots_[ticket & mask_];
  // Claim, fill, publish.  Two writers a whole ring apart can reach one
  // slot at once; the claim keeps their field stores from interleaving
  // under a valid seq.  The release stores order the claim before every
  // field, so a reader that sees the same published seq on both sides of
  // its (acquire) field reads got exactly this ticket's payload.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  while (seq == kWriting ||
         !slot.seq.compare_exchange_weak(seq, kWriting,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
    if (seq == kWriting) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
    }
  }
  slot.name.store(name, std::memory_order_release);
  slot.start_us.store(start_us, std::memory_order_release);
  slot.duration_us.store(duration_us, std::memory_order_release);
  slot.tag.store(tag, std::memory_order_release);
  slot.thread_id.store(ThisThreadTraceId(), std::memory_order_release);
  slot.trace_id.store(ctx.trace_id, std::memory_order_release);
  slot.span_id.store(ctx.span_id, std::memory_order_release);
  slot.parent_id.store(parent_id, std::memory_order_release);
  slot.seq.store(ticket + 1, std::memory_order_release);
}

void TraceBuffer::CloseTrace(std::vector<TraceEvent> events, bool error,
                             uint64_t root_duration_us) {
  if (events.empty()) {
    return;
  }
  const bool retain = error || root_duration_us >= options_.slow_us;
  if (retain) {
    if (retained_counter_ != nullptr) {
      retained_counter_->Inc();
    }
    UniqueLatchGuard g(flight_mu_);
    flight_.push_back(std::move(events));
    while (flight_.size() > options_.flight_capacity) {
      flight_.pop_front();
    }
    return;
  }
  // Probabilistic tail: sequential trace ids make `id % period` a uniform
  // every-Nth sample with no RNG on the close path.
  const uint64_t period = options_.sample_period;
  const uint64_t trace_id = events.back().trace_id;
  if (period == 0 || trace_id % period != 0) {
    return;
  }
  if (sampled_counter_ != nullptr) {
    sampled_counter_->Inc();
  }
  for (const TraceEvent& e : events) {
    Record(e.name, e.start_us, e.duration_us, e.tag,
           TraceContext{e.trace_id, e.span_id}, e.parent_id);
  }
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  struct Numbered {
    uint64_t ticket;
    TraceEvent event;
  };
  std::vector<Numbered> events;
  events.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before == 0 || seq_before == kWriting) {
      continue;  // empty or mid-write
    }
    TraceEvent e;
    e.name = slot.name.load(std::memory_order_acquire);
    e.start_us = slot.start_us.load(std::memory_order_acquire);
    e.duration_us = slot.duration_us.load(std::memory_order_acquire);
    e.tag = slot.tag.load(std::memory_order_acquire);
    e.thread_id = slot.thread_id.load(std::memory_order_acquire);
    e.trace_id = slot.trace_id.load(std::memory_order_acquire);
    e.span_id = slot.span_id.load(std::memory_order_acquire);
    e.parent_id = slot.parent_id.load(std::memory_order_acquire);
    const uint64_t seq_after = slot.seq.load(std::memory_order_acquire);
    if (seq_after != seq_before || e.name == nullptr) {
      continue;  // overwritten while reading: drop rather than return torn
    }
    events.push_back(Numbered{seq_before - 1, e});
  }
  std::sort(events.begin(), events.end(),
            [](const Numbered& a, const Numbered& b) {
              return a.ticket < b.ticket;
            });
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  for (const Numbered& n : events) {
    out.push_back(n.event);
  }
  return out;
}

std::vector<std::vector<TraceEvent>> TraceBuffer::FlightSnapshot() const {
  UniqueLatchGuard g(flight_mu_);
  return std::vector<std::vector<TraceEvent>>(flight_.begin(), flight_.end());
}

std::string TraceBuffer::ToChromeTraceJson() const {
  std::string out = "{\n  \"traceEvents\": [";
  bool first = true;
  for (const std::vector<TraceEvent>& tree : FlightSnapshot()) {
    for (const TraceEvent& e : tree) {
      AppendChromeEvent(out, e, first);
    }
  }
  for (const TraceEvent& e : Snapshot()) {
    AppendChromeEvent(out, e, first);
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void RecordSpan(TraceBuffer* buffer, const char* name, uint64_t start_us,
                uint64_t duration_us, uint64_t tag) {
  AmbientTrace& ambient = Ambient();
  if (ambient.collector != nullptr) {
    TraceEvent e;
    e.name = name;
    e.start_us = start_us;
    e.duration_us = duration_us;
    e.tag = tag;
    e.thread_id = ThisThreadTraceId();
    e.trace_id = ambient.ctx.trace_id;
    e.span_id = NextSpanId();
    e.parent_id = ambient.ctx.span_id;
    ambient.collector->push_back(e);
    return;
  }
  if (buffer != nullptr) {
    buffer->Record(name, start_us, duration_us, tag);
  }
}

void EmitSpan(TraceBuffer* buffer, const char* name, uint64_t start_us,
              uint64_t duration_us, uint64_t tag, TraceContext ctx,
              uint64_t parent_id) {
  AmbientTrace& ambient = Ambient();
  if (ambient.collector != nullptr && ctx.trace_id != 0 &&
      ctx.trace_id == ambient.ctx.trace_id) {
    TraceEvent e;
    e.name = name;
    e.start_us = start_us;
    e.duration_us = duration_us;
    e.tag = tag;
    e.thread_id = ThisThreadTraceId();
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.parent_id = parent_id;
    ambient.collector->push_back(e);
    return;
  }
  if (buffer != nullptr) {
    buffer->Record(name, start_us, duration_us, tag, ctx, parent_id);
  }
}

TraceContext CaptureChildContext(uint64_t* parent_id) {
  const AmbientTrace& ambient = Ambient();
  if (ambient.collector == nullptr) {
    *parent_id = 0;
    return TraceContext{};
  }
  *parent_id = ambient.ctx.span_id;
  return TraceContext{ambient.ctx.trace_id, NextSpanId()};
}

TraceContextScope::TraceContextScope(TraceContext ctx) {
  AmbientTrace& ambient = Ambient();
  // Installing a context from a trace that is not the ambient one would
  // splice spans into the wrong tree (e.g. a participant captured under a
  // root that has since closed); such a scope stays a no-op.
  if (ctx.trace_id == 0 || ambient.collector == nullptr ||
      ambient.ctx.trace_id != ctx.trace_id) {
    return;
  }
  installed_ = true;
  prev_ = ambient.ctx;
  ambient.ctx = ctx;
}

TraceContextScope::~TraceContextScope() {
  if (installed_) {
    Ambient().ctx = prev_;
  }
}

TraceRoot::TraceRoot(TraceBuffer* buffer, const char* name, uint64_t tag)
    : TraceRoot(buffer, name, tag, TraceContext{}) {}

TraceRoot::TraceRoot(TraceBuffer* buffer, const char* name, uint64_t tag,
                     TraceContext remote_parent)
    : buffer_(buffer), name_(name), tag_(tag) {
  if (buffer_ == nullptr) {
    return;
  }
  start_us_ = NowMicros();
  AmbientTrace& ambient = Ambient();
  if (ambient.collector != nullptr) {
    // Nested root: an outer trace is already open on this thread (e.g. a
    // one-shot session inside an RPC handler's adopting root).  Forking a
    // second trace here would disconnect the causal chain, so degrade to
    // a child span of the ambient trace — same protocol as `Span`.
    nested_collector_ = ambient.collector;
    parent_id_ = ambient.ctx.span_id;
    ctx_ = TraceContext{ambient.ctx.trace_id, NextSpanId()};
    prev_ctx_ = ambient.ctx;
    ambient.ctx = ctx_;
    return;
  }
  const bool adopted = remote_parent.trace_id != 0;
  ctx_ = TraceContext{adopted ? remote_parent.trace_id : NextTraceId(),
                      NextSpanId()};
  parent_id_ = adopted ? remote_parent.span_id : 0;
  prev_ctx_ = ambient.ctx;
  prev_collector_ = ambient.collector;
  ambient.ctx = ctx_;
  ambient.collector = &events_;
}

TraceRoot::~TraceRoot() {
  if (buffer_ == nullptr) {
    return;
  }
  AmbientTrace& ambient = Ambient();
  const uint64_t dur_us = NowMicros() - start_us_;
  TraceEvent root;
  root.name = name_;
  root.start_us = start_us_;
  root.duration_us = dur_us;
  root.tag = tag_;
  root.thread_id = ThisThreadTraceId();
  root.trace_id = ctx_.trace_id;
  root.span_id = ctx_.span_id;
  root.parent_id = parent_id_;
  if (nested_collector_ != nullptr) {
    // Restore the outer context only if still ambient (same guard as
    // Span::~Span against out-of-stack-order destruction).  The outer
    // root owns retention, so MarkError here cannot force flight
    // retention of the enclosing tree — the enclosing root decides.
    if (ambient.collector == nested_collector_ &&
        ambient.ctx.span_id == ctx_.span_id) {
      ambient.ctx = prev_ctx_;
    }
    nested_collector_->push_back(root);
    return;
  }
  ambient.ctx = prev_ctx_;
  ambient.collector = prev_collector_;
  events_.push_back(root);
  buffer_->CloseTrace(std::move(events_), error_, dur_us);
}

Span::Span(TraceBuffer* buffer, const char* name, uint64_t tag)
    : buffer_(buffer), name_(name), tag_(tag) {
  AmbientTrace& ambient = Ambient();
  if (ambient.collector != nullptr) {
    // Child node: this span becomes the ambient parent for its duration.
    collector_ = ambient.collector;
    parent_id_ = ambient.ctx.span_id;
    ctx_ = TraceContext{ambient.ctx.trace_id, NextSpanId()};
    ambient.ctx = ctx_;
    start_us_ = NowMicros();
    return;
  }
  if (buffer_ == nullptr) {
    inert_ = true;  // free: no ids, no clock reads
    return;
  }
  start_us_ = NowMicros();
}

Span::~Span() {
  if (inert_) {
    return;
  }
  const uint64_t dur_us = NowMicros() - start_us_;
  if (collector_ != nullptr) {
    AmbientTrace& ambient = Ambient();
    // Restore the parent only if this span is still the ambient context
    // (out-of-stack-order destruction would otherwise clobber a sibling).
    if (ambient.collector == collector_ &&
        ambient.ctx.span_id == ctx_.span_id) {
      ambient.ctx = TraceContext{ctx_.trace_id, parent_id_};
    }
    TraceEvent e;
    e.name = name_;
    e.start_us = start_us_;
    e.duration_us = dur_us;
    e.tag = tag_;
    e.thread_id = ThisThreadTraceId();
    e.trace_id = ctx_.trace_id;
    e.span_id = ctx_.span_id;
    e.parent_id = parent_id_;
    collector_->push_back(e);
    return;
  }
  buffer_->Record(name_, start_us_, dur_us, tag_);
}

}  // namespace orion::obs
