// Bounded single-producer / single-consumer ring for the pipeline stage
// queues (server/slam_service.cpp), modeling the FIFOs between the
// FPGA fabric and the ARM host.
//
// All slot storage is allocated once at construction — the stage hot path
// itself never allocates (the LoopModels bump-allocator idiom applied to
// queueing): push/pop move elements through preallocated slots, and the
// two ends synchronize with one atomic index each, so a full/empty queue
// surfaces as back-pressure (`try_push`/`try_pop` returning false) rather
// than as memory growth.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace eslam {

template <typename T>
class SpscRing {
 public:
  // One sentinel slot distinguishes full from empty, so `capacity` usable
  // elements need capacity + 1 slots.
  explicit SpscRing(std::size_t capacity) : slots_(capacity + 1) {}

  // Producer side.  Returns false (and leaves `value` untouched) when the
  // ring is full.
  bool try_push(T&& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = advance(head);
    if (next == tail_.load(std::memory_order_acquire)) return false;
    slots_[head] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  // Consumer side.  Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return false;
    out = std::move(slots_[tail]);
    tail_.store(advance(tail), std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return slots_.size() - 1; }

  // Approximate when producer/consumer are live; exact when quiescent.
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : head + slots_.size() - tail;
  }
  bool empty() const { return size() == 0; }

 private:
  std::size_t advance(std::size_t i) const {
    return i + 1 == slots_.size() ? 0 : i + 1;
  }

  std::vector<T> slots_;
  std::atomic<std::size_t> head_{0};  // next slot the producer writes
  std::atomic<std::size_t> tail_{0};  // next slot the consumer reads
};

}  // namespace eslam
