// Deterministic parallel window engine.  The post-OPC flow's hot loops are
// embarrassingly parallel over independent windows (per-instance OPC, per-
// gate extraction, per-window ORC, per-sample Monte Carlo), so the pool's
// contract is built around that shape:
//
//   * work items are identified by a dense index in [0, n);
//   * results are written into pre-sized slots indexed by item id, never
//     into shared accumulators, so the answer is bit-identical regardless
//     of thread count or scheduling;
//   * reductions (parallel_map_reduce) materialize per-item values and
//     fold them on the calling thread in strict index order — double
//     addition is not associative, so the fold order is part of the
//     determinism contract;
//   * per-item randomness must come from counter-derived streams
//     (Rng::stream(seed, item)), never from a shared engine.
//
// Scheduling is work-stealing over per-thread chunk queues (the classic
// per-work-item scheduler shape): contiguous chunks of the index range are
// dealt round-robin into one queue per participant, each participant drains
// its own queue front-first and steals from the back of others when idle.
// Stealing balances load; determinism is unaffected because scheduling only
// decides *where* a chunk runs, never what it writes.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/error.h"

namespace poc {

/// Cooperative cancellation flag for the window loops.  Checked by
/// parallel_for / try_parallel_for before every item, whatever the chunk
/// width: a set token lets each in-flight window finish (so its result can
/// still be journaled), skips every later item — the rest of the in-flight
/// chunks included — and the loop then raises FlowException(kCancelled).
/// The flow's window loops (src/core/window_loop.h) poll it too before
/// settling each window of a batch, so they stop within one window of
/// cancellation even though a chunk's windows are computed together.
/// request_cancel() is a single relaxed atomic store — async-signal-safe,
/// so a SIGINT/SIGTERM handler may call it directly (see
/// ScopedGracefulShutdown in src/run/shutdown.h).
class CancelToken {
 public:
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The exception every cancelled loop raises: FlowException(kCancelled)
/// with the same origin whatever the thread count or kill timing, so
/// callers can match on FaultCode::kCancelled alone.
[[noreturn]] void throw_cancelled();

/// Process-wide token the signal handlers target.  Loops that pass no
/// explicit token are not affected by it — cancellation is opt-in per call.
CancelToken& global_cancel_token();

/// Work-stealing pool of `workers` persistent threads.  The thread calling
/// parallel_for always participates, so a pool with W workers runs batches
/// on up to W + 1 threads.  A pool with 0 workers degrades to serial
/// execution on the caller with identical results.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Runs fn(i) for every i in [0, n), split into contiguous chunks of
  /// `chunk` items, on up to `max_threads` threads (caller included; 0
  /// means caller + every worker).  Blocks until all items ran.  Within a
  /// chunk, indices are visited in ascending order.  If any fn invocation
  /// throws, the remaining items of that chunk are skipped, every other
  /// chunk still runs, and the exception from the lowest-indexed throwing
  /// chunk is rethrown on the caller — deterministically, whatever the
  /// thread count.  A non-null `cancel` token is polled before each item:
  /// once set, every item not yet started is abandoned (in-flight items
  /// finish) and FlowException(kCancelled) is thrown after the drain, but
  /// only if work was actually skipped — a token set during the last item
  /// changes nothing.
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads = 0,
                    const CancelToken* cancel = nullptr);

  /// True when the current thread is a pool worker (any pool's).  Nested
  /// parallel_for calls from inside a worker run serially inline — see
  /// poc::parallel_for — so worker threads never block on a child batch.
  static bool on_worker_thread();

 private:
  struct Batch {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t num_chunks = 0;
    const std::function<void(std::size_t)>* fn = nullptr;

    struct Queue {
      std::mutex mutex;
      std::deque<std::size_t> chunks;  ///< chunk indices
    };
    std::vector<Queue> queues;  ///< queue 0 = caller, 1..W = workers

    std::size_t max_extra_workers = 0;   ///< workers allowed to join
    std::atomic<std::size_t> joined{0};  ///< workers that tried to join

    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t chunks_remaining = 0;

    /// First error by chunk index, so the rethrown exception does not
    /// depend on scheduling.
    std::mutex error_mutex;
    std::exception_ptr error;
    std::size_t error_chunk = 0;

    /// Cooperative cancellation: polled before each item; a chunk claimed
    /// after cancellation is discarded, a running chunk stops at its next
    /// item.  Counts chunks with at least one skipped item.
    const CancelToken* cancel = nullptr;
    std::atomic<std::size_t> chunks_skipped{0};
  };

  void worker_loop(std::size_t queue_index);
  /// Drains `batch` from `home_queue`, stealing when the home queue runs
  /// dry.  Returns when no unclaimed chunks remain.
  static void run_chunks(Batch& batch, std::size_t home_queue);

  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::shared_ptr<Batch> batch_;    ///< current batch, null when idle
  std::uint64_t generation_ = 0;    ///< bumped per batch so workers join once
  bool stop_ = false;
};

/// Number of threads `requested` resolves to: 0 = hardware concurrency,
/// otherwise the value itself (minimum 1).
std::size_t resolve_threads(std::size_t requested);

/// Shared process-wide pool used by the free parallel_for below.  Lazily
/// constructed with enough workers that a `threads` request up to at least
/// 4 (or hardware concurrency, whichever is larger) is honoured even on
/// small machines — determinism tests deliberately oversubscribe 1-core
/// hosts.
ThreadPool& global_pool();

/// Deterministic parallel loop: fn(i) for i in [0, n) using up to `threads`
/// OS threads (after resolve_threads).  threads <= 1, n <= 1, or a call
/// from inside a pool worker (nested submission) runs serially inline on
/// the caller — bit-identical by construction, and deadlock-free under
/// nesting.  `chunk` must be >= 1.  A non-null `cancel` token makes the
/// loop cooperative: it is checked before every item (in the serial path
/// too), in-flight items drain, and FlowException(kCancelled) is thrown
/// when any item was left unrun.
void parallel_for(std::size_t threads, std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn,
                  const CancelToken* cancel = nullptr);

/// One captured per-item failure from try_parallel_for.
struct IndexedError {
  std::size_t index = 0;
  FlowError error;
};

/// Error-capturing variant of parallel_for: fn(i) still runs for every i
/// in [0, n), but a throwing item is captured as a FlowError (classified
/// via capture_flow_error, window = i, origin as given) instead of
/// unwinding — so a bad item never aborts the rest of its chunk, and
/// *every* failing index is reported, not just the lowest.  Returns the
/// failures sorted by index: bit-identical at any thread count.
/// Cancellation (see parallel_for) is NOT absorbed per item — a cancelled
/// loop still throws FlowException(kCancelled) after draining.
std::vector<IndexedError> try_parallel_for(
    std::size_t threads, std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t)>& fn, std::string_view origin = {},
    const CancelToken* cancel = nullptr);

/// Deterministic map/reduce: materializes map(i) into per-item slots in
/// parallel, then folds acc = reduce(move(acc), move(slot[i])) on the
/// calling thread in ascending index order.  T must be default- and
/// move-constructible.  Bit-identical for any thread count because the
/// fold order never changes.
template <typename T, typename Map, typename Reduce>
T parallel_map_reduce(std::size_t threads, std::size_t n, std::size_t chunk,
                      T init, Map&& map, Reduce&& reduce) {
  std::vector<T> slots(n);
  parallel_for(threads, n, chunk,
               [&](std::size_t i) { slots[i] = map(i); });
  T acc = std::move(init);
  for (std::size_t i = 0; i < n; ++i) {
    acc = reduce(std::move(acc), std::move(slots[i]));
  }
  return acc;
}

}  // namespace poc
