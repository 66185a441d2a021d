#include "util/task.hh"

#include <algorithm>
#include <chrono>
#include <thread>

namespace afsb {

namespace {

/**
 * Idle backoff for the help/participant loops: spin briefly (a task
 * usually appears within microseconds on a busy graph), then yield,
 * then sleep. The sleep tier matters when the machine is
 * oversubscribed — threads that merely yield still burn scheduler
 * slices the working thread needs, which shows up directly as wall
 * time on small hosts.
 */
inline void
idleBackoff(int &spins)
{
    ++spins;
    if (spins <= 64)
        return;
    if (spins <= 512) {
        std::this_thread::yield();
        return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/// Group + slot of the task the calling thread is currently running
/// (or helping from, for the owner inside sync()).
struct TaskContext
{
    TaskGroup *group = nullptr;
    size_t slot = 0;
};

thread_local TaskContext tls_task_ctx;

} // namespace

bool
TaskGroup::inTask()
{
    return tls_task_ctx.group != nullptr;
}

TaskGroup::TaskGroup(ThreadPool *pool, size_t maxParticipants)
    : pool_(pool)
{
    // Inline mode when dispatch could deadlock: no pool, a
    // single-worker pool (the submit()ed participant could be the
    // thread already blocked in sync -- not possible here, but a
    // 1-worker pool buys no parallelism either), a caller that is
    // itself a pool worker (its participant submission would wait on
    // itself through the shared queue), or a caller already inside a
    // task of another group.
    if (!pool_ || ThreadPool::inWorker() || TaskGroup::inTask()) {
        inlineMode_ = true;
        deques_.resize(1);
        deques_[0] = std::make_unique<Slot>();
        return;
    }
    participants_ = std::min(maxParticipants, pool_->size());
    participants_ = std::max<size_t>(participants_, 1);
    deques_.resize(participants_ + 1);
    for (auto &d : deques_)
        d = std::make_unique<Slot>();
}

TaskGroup::~TaskGroup()
{
    sync();
}

void
TaskGroup::launchParticipants()
{
    if (launched_ || inlineMode_)
        return;
    launched_ = true;
    live_.store(participants_, std::memory_order_relaxed);
    for (size_t p = 1; p <= participants_; ++p)
        pool_->submit([this, p] { participantLoop(p); });
}

void
TaskGroup::spawn(std::function<void()> fn)
{
    if (inlineMode_) {
        // Run immediately on the caller.  Recursion depth is bounded
        // by graph depth, not task count: a task spawned inline runs
        // to completion (including its own inline spawns) before the
        // spawner continues.
        runTask(std::move(fn), 0);
        return;
    }
    pending_.fetch_add(1, std::memory_order_relaxed);
    size_t home;
    if (tls_task_ctx.group == this) {
        home = tls_task_ctx.slot; // push onto own deque (LIFO hot end)
    } else {
        // Owner-side spawn: round-robin across deques so the initial
        // graph roots are spread before any stealing happens.
        home = rr_.fetch_add(1, std::memory_order_relaxed)
               % deques_.size();
    }
    {
        std::lock_guard lock(deques_[home]->m);
        deques_[home]->q.push_back(std::move(fn));
    }
}

bool
TaskGroup::popOrSteal(size_t slot, std::function<void()> &out)
{
    // Own deque: bottom (most recently pushed).
    {
        Slot &d = *deques_[slot];
        std::lock_guard lock(d.m);
        if (!d.q.empty()) {
            out = std::move(d.q.back());
            d.q.pop_back();
            return true;
        }
    }
    // Steal: top (oldest) of the others, scanning from the next
    // slot so thieves spread instead of convoying on deque 0.
    const size_t n = deques_.size();
    for (size_t k = 1; k < n; ++k) {
        Slot &d = *deques_[(slot + k) % n];
        std::lock_guard lock(d.m);
        if (!d.q.empty()) {
            out = std::move(d.q.front());
            d.q.pop_front();
            return true;
        }
    }
    return false;
}

void
TaskGroup::runTask(std::function<void()> fn, size_t slot)
{
    const TaskContext saved = tls_task_ctx;
    tls_task_ctx = TaskContext{this, slot};
    fn();
    tls_task_ctx = saved;
    if (!inlineMode_)
        pending_.fetch_sub(1, std::memory_order_release);
}

void
TaskGroup::participantLoop(size_t slot)
{
    int idleSpins = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
        std::function<void()> fn;
        if (popOrSteal(slot, fn)) {
            runTask(std::move(fn), slot);
            idleSpins = 0;
        } else {
            idleBackoff(idleSpins);
        }
    }
    live_.fetch_sub(1, std::memory_order_release);
}

void
TaskGroup::sync()
{
    if (!inlineMode_) {
        // Participants are launched here, not at spawn(): once the
        // owner reaches sync() the only transient pending_ == 0 the
        // loops can observe is the real end of the graph (a task
        // that spawns or fires a gate does so before its own pending
        // decrement, so an incomplete graph always has pending_ >= 1
        // from the moment the first root is queued).
        if (pending_.load(std::memory_order_acquire) != 0)
            launchParticipants();
        // Help until the graph drains.  The owner never blocks on the
        // pool: even if every pool worker is busy elsewhere, this
        // loop alone retires the graph.
        int idleSpins = 0;
        while (pending_.load(std::memory_order_acquire) != 0) {
            std::function<void()> fn;
            if (popOrSteal(0, fn)) {
                runTask(std::move(fn), 0);
                idleSpins = 0;
            } else {
                idleBackoff(idleSpins);
            }
        }
        // Wait for participant loops to retire before the deques can
        // be reused or destroyed.
        idleSpins = 0;
        while (live_.load(std::memory_order_acquire) != 0)
            idleBackoff(idleSpins);
        launched_ = false;
    }
    std::lock_guard lock(gateMutex_);
    gates_.clear();
}

TaskGroup::Gate *
TaskGroup::gate(size_t count, std::function<void()> fn)
{
    auto g = std::unique_ptr<Gate>(
        new Gate(this, count, std::move(fn)));
    Gate *raw = g.get();
    std::lock_guard lock(gateMutex_);
    gates_.push_back(std::move(g));
    return raw;
}

void
TaskGroup::Gate::arrive(size_t k)
{
    if (remaining_.fetch_sub(k, std::memory_order_acq_rel) == k)
        group_->spawn(std::move(fn_));
}

} // namespace afsb
