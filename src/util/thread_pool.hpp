#pragma once
// Fixed-size worker pool for embarrassingly parallel experiment batches.
//
// Deliberately minimal: tasks are type-erased void() thunks, submission
// returns a future for joining and exception propagation, and the pool
// joins its workers on destruction.  Determinism is the caller's job --
// BatchRunner achieves it by giving every scenario its own isolated
// context and seed so results are independent of scheduling order.
//
// Two submission paths:
//   submit()          one shared FIFO queue, any worker takes the oldest
//   submit_sharded()  per-worker deques with work-stealing: the task lands
//                     on deque `shard % num_threads`, its owner pops from
//                     the front (FIFO per shard), and an idle worker steals
//                     from the BACK of the fullest other deque -- so a
//                     shard stuck behind one long task drains through its
//                     neighbours instead of serializing.
//
// All queues share one mutex: at the granularity the pool is used for
// (whole scenarios, seconds each) queue contention is unmeasurable, and
// the single lock keeps wait_idle and shutdown trivially correct.  The
// stealing discipline is about *placement* (keeping related work on one
// worker until someone runs dry), not about lock-free throughput.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mvf::util {

class ThreadPool {
public:
    /// Spawns `threads` workers (clamped to >= 1).
    explicit ThreadPool(int threads);

    /// Drains outstanding tasks, then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int num_threads() const { return static_cast<int>(workers_.size()); }

    /// Enqueues a task on the shared queue; the future resolves when it
    /// finishes (or rethrows what it threw).
    std::future<void> submit(std::function<void()> task);

    /// Enqueues a task on worker deque `shard % num_threads()`.  The owner
    /// drains its deque FIFO; idle workers steal from other deques' backs.
    std::future<void> submit_sharded(std::size_t shard,
                                     std::function<void()> task);

    /// Blocks until every task submitted so far has completed.
    void wait_idle();

    /// Runs one pending task on the CALLING thread if any is queued;
    /// returns false without blocking when every queue is empty.  This is
    /// the helping-wait primitive: a pool worker that blocks on futures of
    /// tasks it submitted to its own pool would deadlock once all workers
    /// wait in the same pattern -- instead it loops `run_one()` until its
    /// futures are ready, so the pending subtasks make progress on the
    /// waiter's own thread even with zero free workers.
    bool run_one();

    /// Tasks taken from another worker's deque (stealing actually
    /// happened); monotone, for tests and telemetry.
    std::size_t steals() const;

private:
    void worker_loop(std::size_t worker);
    /// Pops the next task for `worker` (own deque, shared queue, then
    /// steal); pending_ must be > 0.  Requires mutex_ held.
    std::packaged_task<void()> take_locked(std::size_t worker);

    mutable std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable idle_;
    std::queue<std::packaged_task<void()>> queue_;
    std::vector<std::deque<std::packaged_task<void()>>> shards_;
    std::vector<std::thread> workers_;
    std::size_t pending_ = 0;  ///< queued but not yet taken, all queues
    std::size_t in_flight_ = 0;
    std::size_t steals_ = 0;
    bool stopping_ = false;
};

/// Runs body(i) for every i in [0, count) on the calling thread plus up to
/// num_threads() helper tasks queued on `pool`; indices are claimed one at
/// a time, so uneven items balance themselves.  Returns when every item has
/// finished; the first exception thrown by `body` is rethrown after that.
/// The caller helping-waits (ThreadPool::run_one), so it is safe to call
/// from inside a task of the same pool.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace mvf::util
