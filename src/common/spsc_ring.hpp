// A bounded single-producer/single-consumer ring buffer for crossing the
// pipeline's thread boundaries (I/O ↔ consensus ↔ executor).
//
// Values move through the ring — an `EncodedBatch` crosses by shared_ptr,
// so no payload byte is copied at the boundary. The ring is
// deliberately a mutex + two condvars rather than a lock-free queue: the
// pipeline's stage threads block when they have nothing to do (no spinning
// on an otherwise idle replica), the mutex hand-off gives every popped value
// a happens-before edge covering everything the producer wrote before the
// push (this is what makes publishing a decoded `EncodedBatch` memo safe),
// and the whole structure is trivially provable under TSan. Throughput is
// bounded by consensus, not by this queue.
//
// Contract: exactly one producer thread calls push/try_push and exactly one
// consumer thread calls pop/try_pop/pop_for. close() may be called from any
// thread; after close, pushes fail and pops drain the remaining values
// before reporting exhaustion.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace shadow {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) : buf_(capacity) {
    SHADOW_REQUIRE_MSG(capacity > 0, "SpscRing capacity must be positive");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Blocks while the ring is full (backpressure). Returns false — and does
  /// not enqueue — once the ring is closed.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return count_ < buf_.size() || closed_; });
    if (closed_) return false;
    unlocked_put(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. On success the value is moved from; on a full or
  /// closed ring it is left intact and false is returned.
  bool try_push(T& value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || count_ == buf_.size()) return false;
      unlocked_put(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until a value is available. Returns nullopt only when the ring
  /// is closed AND drained — values pushed before close() are still
  /// delivered (shutdown drain).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    return unlocked_take(lock);
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::unique_lock<std::mutex> lock(mu_);
    return unlocked_take(lock);
  }

  /// Bounded-wait pop: blocks up to `timeout`, then behaves like try_pop.
  std::optional<T> pop_for(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, timeout, [&] { return count_ > 0 || closed_; });
    return unlocked_take(lock);
  }

  /// Wakes every blocked producer and consumer. Idempotent. Enqueued values
  /// remain poppable; new pushes fail.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Instantaneous occupancy — advisory only (the other thread moves it).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  std::size_t capacity() const { return buf_.size(); }

 private:
  void unlocked_put(T&& value) {
    buf_[(head_ + count_) % buf_.size()] = std::move(value);
    ++count_;
  }

  // Takes the oldest value if any (caller holds `lock`), notifying a blocked
  // producer after the unlock so it never wakes into a still-held mutex.
  std::optional<T> unlocked_take(std::unique_lock<std::mutex>& lock) {
    if (count_ == 0) return std::nullopt;
    std::optional<T> value(std::move(buf_[head_]));
    head_ = (head_ + 1) % buf_.size();
    --count_;
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> buf_;
  std::size_t head_ = 0;   // index of the oldest value
  std::size_t count_ = 0;  // occupied slots
  bool closed_ = false;
};

}  // namespace shadow
