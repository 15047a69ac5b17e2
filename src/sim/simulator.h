/**
 * @file
 * The simulation kernel: a clock plus the event queue.
 */

#ifndef NASPIPE_SIM_SIMULATOR_H
#define NASPIPE_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>

#include "sim/event.h"

namespace naspipe {

/**
 * Deterministic discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute or relative times; run()
 * executes them in deterministic (time, priority, insertion) order.
 * A step limit guards against accidental livelock in model code.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p action at absolute time @p when (>= now). */
    void scheduleAt(Tick when, std::function<void()> action,
                    EventPriority priority = EventPriority::Default);

    /** Schedule @p action @p delay ticks from now. */
    void scheduleAfter(Tick delay, std::function<void()> action,
                       EventPriority priority = EventPriority::Default);

    /** Run until the event queue drains; returns events executed. */
    std::uint64_t run();

    /**
     * Abort the current run() from inside an event callback: no
     * further events execute and run() returns with the queue's
     * remaining events intact (a fail-stop fault freezes the world
     * mid-instant). The flag clears on the next run()/runUntil().
     */
    void stop() { _stopRequested = true; }

    /**
     * Run until simulated time would exceed @p deadline; events at
     * exactly @p deadline still execute. Returns events executed.
     */
    std::uint64_t runUntil(Tick deadline);

    /** Number of events executed so far. */
    std::uint64_t executedEvents() const { return _executed; }

    /** Pending event count. */
    std::size_t pendingEvents() const { return _queue.size(); }

    /**
     * Upper bound on events executed per run() call; exceeding it
     * panics (it indicates a model bug, e.g. a zero-delay self-loop).
     */
    void stepLimit(std::uint64_t limit) { _stepLimit = limit; }

    /** Reset time to zero and drop pending events. */
    void reset();

  private:
    std::uint64_t runLoop(bool bounded, Tick deadline);

    EventQueue _queue;
    Tick _now = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _stepLimit = 500'000'000ULL;
    bool _stopRequested = false;
};

} // namespace naspipe

#endif // NASPIPE_SIM_SIMULATOR_H
