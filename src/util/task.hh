/**
 * @file
 * Work-stealing task-group runtime layered on ThreadPool.
 *
 * `TaskGroup` gives the Cilk/TBB `spawn`/`sync` idiom without adding
 * a second thread pool to the process: a group borrows the existing
 * `ThreadPool` workers by submitting *participant* loops to it, and
 * the spawning (owner) thread helps too, so a group on a P-worker
 * pool runs on up to P+1 threads.  Each runner owns a Chase-Lev-style
 * deque: the owner pushes and pops at the bottom (LIFO, for cache
 * locality along dependency chains), thieves steal from the top
 * (FIFO, so the oldest — typically largest — subtrees migrate).  The
 * deques are mutex-guarded rather than lock-free: tasks in this tree
 * are tens of microseconds and up, so the lock is noise, and the
 * implementation stays portable and ThreadSanitizer-clean.
 *
 * Determinism contract (see DESIGN.md §5.7): the runtime schedules
 * *which thread* runs a task, never *what* the task computes.  Every
 * call site keeps its partition (block boundaries, unit ids, output
 * slots) a pure function of the problem shape, so results are
 * bit-identical at any worker count even though execution order is
 * not.
 *
 * Nesting: spawning from inside a task of the same group pushes onto
 * the running thread's own deque.  Spawning on a group created where
 * dispatch would deadlock (inside a pool worker's plain task, or
 * inside another group's task) runs the task inline — never blocks.
 */

#ifndef AFSB_UTIL_TASK_HH
#define AFSB_UTIL_TASK_HH

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/threadpool.hh"

namespace afsb {

class TaskGroup
{
  public:
    /**
     * @param pool Pool whose workers participate.  May be null: the
     *        group then runs every spawn inline on the calling
     *        thread (serial, same results).
     * @param maxParticipants Cap on pool workers borrowed (clamped
     *        to pool->size()).  SIZE_MAX borrows every worker.
     */
    explicit TaskGroup(ThreadPool *pool,
                       size_t maxParticipants = size_t(-1));

    /** Syncs outstanding tasks before destruction. */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Schedule fn to run.  Callable from the owner thread or from
     * inside a task of this group; tasks may spawn further tasks.
     * In inline mode (null pool / nested context) runs fn before
     * returning.
     */
    void spawn(std::function<void()> fn);

    /**
     * Launch participant loops, help run tasks until none remain,
     * then wait for the participants to retire.  Must be called from
     * the owner thread.  Spawned tasks only start executing once the
     * owner reaches sync(); building the whole graph first is cheap
     * (closure pushes) and makes the drained-group check exact.
     * After sync() the group is reusable for another graph.
     */
    void sync();

    /** True while the calling thread is running any TaskGroup task. */
    static bool inTask();

    /**
     * Dependency latch: holds a continuation until `count` arrive()
     * calls, then spawns it on this group.  Created before the graph
     * runs (on the owner thread); arrive() is thread-safe.
     */
    class Gate
    {
      public:
        void arrive(size_t k = 1);

      private:
        friend class TaskGroup;
        Gate(TaskGroup *g, size_t count, std::function<void()> fn)
            : group_(g), remaining_(count), fn_(std::move(fn))
        {
        }
        TaskGroup *group_;
        std::atomic<size_t> remaining_;
        std::function<void()> fn_;
    };

    /**
     * Create a gate owned by this group (freed at sync()).  `count`
     * must be > 0 and match the arrivals the graph will deliver.
     */
    Gate *gate(size_t count, std::function<void()> fn);

  private:
    struct Slot
    {
        std::mutex m;
        std::deque<std::function<void()>> q;
        // Separate hot slots across cache lines.
        char pad[64];
    };

    void participantLoop(size_t slot);
    bool popOrSteal(size_t slot, std::function<void()> &out);
    void runTask(std::function<void()> fn, size_t slot);
    void launchParticipants();

    ThreadPool *pool_;
    size_t participants_ = 0;
    std::vector<std::unique_ptr<Slot>> deques_;
    std::vector<std::unique_ptr<Gate>> gates_;
    std::mutex gateMutex_;
    /// Tasks spawned and not yet finished (decremented after the
    /// body returns, so a running task that still spawns can never
    /// observe a drained group).
    std::atomic<size_t> pending_{0};
    /// Participant loops submitted to the pool and not yet retired.
    std::atomic<size_t> live_{0};
    /// Round-robin cursor for owner-side spawns before helpers pick
    /// a home deque.
    std::atomic<size_t> rr_{0};
    bool launched_ = false;
    bool inlineMode_ = false;
};

} // namespace afsb

#endif // AFSB_UTIL_TASK_HH
