#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

namespace mvf::util {

ThreadPool::ThreadPool(int threads) {
    const int count = std::max(1, threads);
    shards_.resize(static_cast<std::size_t>(count));
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        workers_.emplace_back(
            [this, i] { worker_loop(static_cast<std::size_t>(i)); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::unique_lock lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        std::unique_lock lock(mutex_);
        queue_.push(std::move(packaged));
        ++pending_;
    }
    work_ready_.notify_one();
    return future;
}

std::future<void> ThreadPool::submit_sharded(std::size_t shard,
                                             std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        std::unique_lock lock(mutex_);
        shards_[shard % shards_.size()].push_back(std::move(packaged));
        ++pending_;
    }
    work_ready_.notify_one();
    return future;
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0 && in_flight_ == 0; });
}

bool ThreadPool::run_one() {
    std::packaged_task<void()> task;
    {
        std::unique_lock lock(mutex_);
        if (pending_ == 0) return false;
        // External callers have no shard of their own: drain the shared
        // queue first, then relieve the fullest deque from the back (same
        // placement discipline as a steal, but not counted as one -- the
        // caller is helping, not idle-stealing).
        if (!queue_.empty()) {
            task = std::move(queue_.front());
            queue_.pop();
        } else {
            std::size_t victim = shards_.size();
            std::size_t victim_size = 0;
            for (std::size_t i = 0; i < shards_.size(); ++i) {
                if (shards_[i].size() > victim_size) {
                    victim = i;
                    victim_size = shards_[i].size();
                }
            }
            task = std::move(shards_[victim].back());
            shards_[victim].pop_back();
        }
        --pending_;
        ++in_flight_;
    }
    task();  // exceptions land in the task's future
    {
        std::unique_lock lock(mutex_);
        --in_flight_;
        if (pending_ == 0 && in_flight_ == 0) idle_.notify_all();
    }
    return true;
}

std::size_t ThreadPool::steals() const {
    std::unique_lock lock(mutex_);
    return steals_;
}

std::packaged_task<void()> ThreadPool::take_locked(std::size_t worker) {
    std::deque<std::packaged_task<void()>>& own = shards_[worker];
    if (!own.empty()) {
        std::packaged_task<void()> task = std::move(own.front());
        own.pop_front();
        return task;
    }
    if (!queue_.empty()) {
        std::packaged_task<void()> task = std::move(queue_.front());
        queue_.pop();
        return task;
    }
    // Steal from the back of the fullest other deque: the back is the work
    // its owner would reach last, so stealing there keeps each shard's own
    // FIFO order intact for as long as possible.
    std::size_t victim = worker;
    std::size_t victim_size = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (i != worker && shards_[i].size() > victim_size) {
            victim = i;
            victim_size = shards_[i].size();
        }
    }
    std::packaged_task<void()> task = std::move(shards_[victim].back());
    shards_[victim].pop_back();
    ++steals_;
    return task;
}

void ThreadPool::worker_loop(std::size_t worker) {
    while (true) {
        std::packaged_task<void()> task;
        {
            std::unique_lock lock(mutex_);
            work_ready_.wait(lock,
                             [this] { return stopping_ || pending_ > 0; });
            if (pending_ == 0) return;  // stopping_ and drained
            task = take_locked(worker);
            --pending_;
            ++in_flight_;
        }
        task();  // exceptions land in the task's future
        {
            std::unique_lock lock(mutex_);
            --in_flight_;
            if (pending_ == 0 && in_flight_ == 0) idle_.notify_all();
        }
    }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                body(i);
            } catch (...) {
                next.store(count, std::memory_order_relaxed);  // stop early
                throw;
            }
        }
    };
    const std::size_t helpers = std::min(
        static_cast<std::size_t>(pool.num_threads()), count > 0 ? count - 1 : 0);
    std::vector<std::future<void>> futures;
    futures.reserve(helpers);
    for (std::size_t h = 0; h < helpers; ++h) futures.push_back(pool.submit(drain));

    std::exception_ptr error;
    try {
        drain();
    } catch (...) {
        error = std::current_exception();
    }
    for (std::future<void>& f : futures) {
        // Helping-wait: a queued helper may sit behind a busy pool; run it
        // (or other queued work) here.  Once nothing is queued, every
        // helper has been taken and will finish without us.
        while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            if (!pool.run_one()) {
                f.wait();
                break;
            }
        }
        try {
            f.get();
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);
}

}  // namespace mvf::util
