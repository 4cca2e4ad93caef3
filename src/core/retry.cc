#include "core/retry.h"

#include <algorithm>
#include <thread>

namespace orion {

namespace {

/// Per-thread jitter state (LCG), seeded from the thread's stack address
/// so no two threads share a backoff pattern, and uncontended even when
/// sessions are pooled across threads.
uint64_t NextJitter() {
  thread_local uint64_t state = reinterpret_cast<uintptr_t>(&state) | 1;
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

}  // namespace

SessionCounters SessionCounters::Register(obs::MetricsRegistry& registry) {
  return SessionCounters{
      .commits = &registry.counter("session.commits"),
      .retries = &registry.counter("session.retries"),
      .failures = &registry.counter("session.failures"),
      .backoff_us = &registry.counter("session.backoff_us"),
  };
}

bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kDeadlock ||
         status.code() == StatusCode::kLockTimeout ||
         status.code() == StatusCode::kSchemaConflict;
}

std::chrono::microseconds BackoffDelay(const RetryPolicy& policy, int attempt,
                                       uint64_t draw) {
  const uint64_t jitter = draw % 100;  // [0, 100)
  auto base = policy.backoff_base.count() << std::min(attempt, 12);
  base = std::min<decltype(base)>(base, policy.backoff_cap.count());
  return std::chrono::microseconds(base / 2 +
                                   (base * static_cast<int64_t>(jitter)) / 100);
}

void Backoff(const RetryPolicy& policy, int attempt) {
  const std::chrono::microseconds delay =
      BackoffDelay(policy, attempt, NextJitter());
  if (delay.count() > 0) {
    if (policy.backoff_us != nullptr) {
      policy.backoff_us->Add(static_cast<uint64_t>(delay.count()));
    }
    std::this_thread::sleep_for(delay);
  }
}

}  // namespace orion
