/**
 * @file
 * Fixed-size worker pool used by the MSA search engine and the tensor
 * library.
 *
 * The MSA stage of AFSysBench sweeps thread counts 1-8 (paper Fig 4);
 * the pool supports per-run sizing and a parallel-for primitive with
 * static block partitioning, matching how HMMER distributes database
 * chunks across workers.
 */

#ifndef AFSB_UTIL_THREADPOOL_HH
#define AFSB_UTIL_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace afsb {

/** Simple fixed-size thread pool with a shared task queue. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 is promoted to 1.
     */
    explicit ThreadPool(size_t num_threads);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count. */
    size_t size() const { return workers_.size(); }

    /**
     * True when the calling thread is owned by any ThreadPool.
     * Dispatch from such a thread runs inline: wait() counts the
     * caller itself as active, so a nested dispatch would never
     * drain.
     */
    static bool inWorker();

    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has completed. */
    void wait();

    /**
     * Run fn(i) for i in [0, n) across the pool and wait.
     * Iterations are divided into contiguous blocks, one per worker.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Chunked parallel-for: run fn(begin, end) over contiguous
     * blocks of ~grain iterations and wait. One std::function
     * dispatch per block (not per index), and more blocks than
     * workers, so skewed per-item cost load-balances dynamically
     * while each index is still processed by exactly one task.
     *
     * Dispatches through a work-stealing TaskGroup (the calling
     * thread helps), so skewed blocks load-balance; the block
     * partition — and thus the result — depends only on n and
     * grain.
     *
     * @param grain Iterations per block; 0 picks ~4 blocks per
     *        worker. Runs inline (serially) when the range fits one
     *        block, the pool has a single worker, or the caller is
     *        itself a pool worker or a TaskGroup task — nested
     *        dispatch would deadlock on wait().
     */
    void parallelFor(size_t n, size_t grain,
                     const std::function<void(size_t, size_t)> &fn);

    /**
     * Run fn(worker_id, begin, end) over a static block partition of
     * [0, n) and wait. Exposes the worker id so callers can keep
     * per-thread state (e.g. per-thread cache simulators).
     */
    void parallelBlocks(
        size_t n,
        const std::function<void(size_t, size_t, size_t)> &fn);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable taskCv_;
    std::condition_variable idleCv_;
    size_t active_ = 0;
    bool stop_ = false;
};

} // namespace afsb

#endif // AFSB_UTIL_THREADPOOL_HH
