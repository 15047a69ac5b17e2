#include "common/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace naspipe {

const char *
lockRankName(LockRank rank)
{
    switch (rank) {
    case LockRank::ServeClient:
        return "serve.client";
    case LockRank::ServeFinisher:
        return "serve.finisher";
    case LockRank::ServePoolIncident:
        return "serve.pool_incident";
    case LockRank::ExecQueue:
        return "exec.queue";
    case LockRank::ExecWorkerSignal:
        return "exec.worker_signal";
    case LockRank::TrainContext:
        return "train.context";
    case LockRank::VerifyOracle:
        return "verify.oracle";
    }
    return "unknown";
}

namespace lockdebug {

namespace {

void
defaultHandler(const std::string &message)
{
    std::fprintf(stderr, "naspipe lock witness: %s\n", message.c_str());
    std::fflush(stderr);
    std::abort();
}

std::atomic<ViolationHandler> gHandler{&defaultHandler};

} // namespace

ViolationHandler
setViolationHandler(ViolationHandler handler)
{
    if (handler == nullptr)
        handler = &defaultHandler;
    return gHandler.exchange(handler);
}

#if NASPIPE_LOCK_WITNESS_ENABLED

namespace {

struct HeldLock {
    const void *mutex;
    LockRank rank;
};

// Fixed capacity keeps the hot path allocation-free; eleven ranks
// exist, so a thread can never legally hold more than eleven locks.
constexpr int kMaxHeld = 16;

struct HeldStack {
    HeldLock entries[kMaxHeld];
    int size = 0;
};

thread_local HeldStack tHeld;

std::string
describeViolation(LockRank incoming, const HeldStack &held)
{
    std::ostringstream os;
    os << "rank-order violation: acquiring " << lockRankName(incoming)
       << " (rank " << static_cast<int>(incoming) << ")";
    // The newest offending lock is the diagnosis; the full stack is
    // the context.
    for (int i = held.size - 1; i >= 0; --i) {
        if (static_cast<int>(held.entries[i].rank) >=
            static_cast<int>(incoming)) {
            os << " while holding " << lockRankName(held.entries[i].rank)
               << " (rank " << static_cast<int>(held.entries[i].rank)
               << ")";
            break;
        }
    }
    os << "; held stack outermost-first: [";
    for (int i = 0; i < held.size; ++i) {
        if (i > 0)
            os << ", ";
        os << lockRankName(held.entries[i].rank);
    }
    os << "]";
    return os.str();
}

} // namespace

void
noteAcquire(const void *mutex, LockRank rank)
{
    HeldStack &held = tHeld;
    for (int i = 0; i < held.size; ++i) {
        if (static_cast<int>(held.entries[i].rank) >=
            static_cast<int>(rank)) {
            gHandler.load()(describeViolation(rank, held));
            // A non-aborting (test) handler returns; keep the stack
            // consistent with the acquisition that proceeds anyway.
            break;
        }
    }
    if (held.size < kMaxHeld) {
        held.entries[held.size].mutex = mutex;
        held.entries[held.size].rank = rank;
        ++held.size;
    }
}

void
noteRelease(const void *mutex)
{
    HeldStack &held = tHeld;
    // Locks are almost always released in LIFO order; scan from the
    // top so out-of-order unique_lock releases still unwind cleanly.
    for (int i = held.size - 1; i >= 0; --i) {
        if (held.entries[i].mutex == mutex) {
            for (int j = i; j + 1 < held.size; ++j)
                held.entries[j] = held.entries[j + 1];
            --held.size;
            return;
        }
    }
}

std::vector<LockRank>
heldRanks()
{
    const HeldStack &held = tHeld;
    std::vector<LockRank> ranks;
    ranks.reserve(static_cast<size_t>(held.size));
    for (int i = 0; i < held.size; ++i)
        ranks.push_back(held.entries[i].rank);
    return ranks;
}

#endif // NASPIPE_LOCK_WITNESS_ENABLED

} // namespace lockdebug

} // namespace naspipe
