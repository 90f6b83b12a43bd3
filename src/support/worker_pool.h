// Spawn-once worker pool with barrier-style dispatch.
//
// Both parallel layers of libdhc — trial-level parallelism in the runner and
// shard-level parallelism inside the CONGEST simulator — need the same
// primitive: run N independent tasks across a fixed set of threads and block
// until every task has finished.  The simulator dispatches once per *round*
// (potentially hundreds of thousands of times per trial), so the pool keeps
// its threads alive between generations and wakes them with a short
// spin-then-sleep gate instead of spawning; the caller thread participates
// as a worker, so a pool of size 1 spawns no threads at all and executes
// every task inline, in task order.
//
// Each run() publishes an immutable, reference-counted generation record
// (task function, count, claim cursor); workers claim task indices from the
// generation they joined, so a worker that wakes late can only ever touch
// its own generation's cursor, never a newer one — run() may be called
// again immediately after returning without racing stragglers.
//
// Determinism contract: the pool only decides *when* tasks run, never what
// they compute.  Tasks are claimed from a shared cursor, so callers must
// not depend on which worker runs which task; callers that need a
// deterministic work partition (the simulator's shard slices) encode it in
// the task index.  With one worker, tasks run in ascending index order on
// the caller thread — the degenerate case is plain sequential execution.
//
// Exceptions thrown by a task are captured; the one with the LOWEST task
// index is rethrown on the caller thread after the barrier, once every
// other task of the generation has finished.  Lowest-index selection keeps
// error reporting deterministic for callers whose task order is meaningful
// — the simulator's shard slices partition the id-sorted active set, so
// the lowest-index shard error is exactly the error a one-shard round would
// have hit first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dhc::support {

class WorkerPool {
 public:
  /// A pool of `workers` total execution lanes (caller included): spawns
  /// `workers - 1` threads.  `workers` is clamped to at least 1.
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(0), fn(1), ..., fn(tasks - 1) across the pool and the calling
  /// thread, returning once all have completed.  Rethrows the captured task
  /// exception with the lowest task index, if any.  Not reentrant: one
  /// run() at a time per pool.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

  /// Total execution lanes, caller included.
  unsigned workers() const { return static_cast<unsigned>(threads_.size()) + 1; }

  /// Lanes appropriate for this machine: hardware_concurrency, at least 1.
  static unsigned hardware_lanes();

 private:
  /// One dispatch generation.  Immutable except for the claim cursor, the
  /// completion count, and the error slot.
  struct Generation {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t task_count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> pending{0};
    std::mutex error_mu;
    std::exception_ptr first_error;                  // error of the lowest-index…
    std::size_t first_error_index = std::size_t(-1);  // …failed task
  };

  void worker_loop();
  void work_through(Generation& gen);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::atomic<std::uint64_t> generation_id_{0};  // bumped by run(); workers chase it
  std::shared_ptr<Generation> current_;          // guarded by mu_
  std::atomic<bool> shutdown_{false};
};

}  // namespace dhc::support
