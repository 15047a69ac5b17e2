#include "serve/finisher.h"

#include <algorithm>
#include <system_error>

#include "common/logging.h"
#include "obs/wall_clock.h"

namespace naspipe {
namespace serve {

JobFinisher::~JobFinisher()
{
    {
        std::lock_guard<RankedMutex> lock(_finishMu);
        _stop = true;
    }
    _workCv.notify_all();
    for (std::thread &t : _threads)
        t.join();
}

void
JobFinisher::post(int jobId, std::function<RunResult()> work)
{
    static const int kMaxThreads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    bool spawn;
    {
        std::lock_guard<RankedMutex> lock(_finishMu);
        _work.emplace_back(jobId, std::move(work));
        spawn = _idle < static_cast<int>(_work.size()) &&
                static_cast<int>(_threads.size()) < kMaxThreads;
    }
    _outstanding++;
    if (spawn) {
        try {
            _threads.emplace_back([this] { loop(); });
            return;
        } catch (const std::system_error &) {
            if (_threads.empty())
                throw;  // nothing would ever run the work
        }
    }
    _workCv.notify_one();
}

std::vector<JobFinisher::Finished>
JobFinisher::takeDone()
{
    std::vector<Finished> out;
    out.swap(_done);
    _outstanding -= static_cast<int>(out.size());
    return out;
}

std::vector<JobFinisher::Finished>
JobFinisher::poll()
{
    std::lock_guard<RankedMutex> lock(_finishMu);
    return takeDone();
}

std::vector<JobFinisher::Finished>
JobFinisher::wait()
{
    NASPIPE_ASSERT(_outstanding > 0, "finisher wait with nothing posted");
    std::unique_lock<RankedMutex> lock(_finishMu);
    _doneCv.wait(lock, [this] { return !_done.empty(); });
    return takeDone();
}

void
JobFinisher::loop()
{
    std::unique_lock<RankedMutex> lock(_finishMu);
    for (;;) {
        _idle++;
        _workCv.wait(lock, [this] { return _stop || !_work.empty(); });
        _idle--;
        if (_work.empty())
            return;  // stopping, and every posted finish was taken
        Finished f;
        f.jobId = _work.front().first;
        std::function<RunResult()> work = std::move(_work.front().second);
        _work.pop_front();
        lock.unlock();
        obs::TimePoint start = obs::now();
        try {
            f.result = work();
        } catch (...) {
            f.error = std::current_exception();
        }
        f.seconds = obs::secondsSince(start);
        lock.lock();
        _done.push_back(std::move(f));
        _doneCv.notify_all();
    }
}

} // namespace serve
} // namespace naspipe
