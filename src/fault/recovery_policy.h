/**
 * @file
 * RecoveryPolicy — bounded retries with exponential backoff.
 *
 * Recovery must terminate: a run that keeps crashing into the same
 * wall (a corrupt environment, a fault plan denser than the
 * checkpoint cadence can absorb) has to give up eventually rather
 * than loop forever. The policy counts *consecutive* recovery
 * attempts — any completed subnet after a recovery proves forward
 * progress and resets the counter — and refuses further retries once
 * the bound is hit (the CLI surfaces that as exit code 5).
 *
 * Backoff is *modeled*, not slept: each consecutive attempt charges
 * base * 2^(attempt-1) seconds (capped) into the run's modeled time
 * offsets, exactly like the rollback's restart time. That keeps
 * the accounting realistic while tests stay fast and — because the
 * charge is a pure function of the attempt number — deterministic.
 */

#ifndef NASPIPE_FAULT_RECOVERY_POLICY_H
#define NASPIPE_FAULT_RECOVERY_POLICY_H

namespace naspipe {
namespace fault {

class RecoveryPolicy
{
  public:
    struct Config {
        /** Consecutive recoveries (without a completed subnet in
         *  between) before the run gives up. 0 refuses the first
         *  retry outright. */
        int maxRetries = 3;
        /** Backoff charged on the first consecutive attempt. */
        double baseBackoffSeconds = 1.0;
        /** Cap on the exponential backoff. */
        double maxBackoffSeconds = 60.0;
    };

    RecoveryPolicy() = default;

    explicit RecoveryPolicy(Config config) : _config(config) {}

    /** May another recovery be attempted right now? */
    bool allowRetry() const
    {
        return _consecutive < _config.maxRetries;
    }

    /**
     * Charge the next recovery attempt: bumps the consecutive and
     * total counters and returns the modeled backoff seconds
     * (base * 2^(consecutive-so-far), capped).
     */
    double nextBackoffSeconds();

    /** A subnet completed — the run is making progress again. */
    void noteProgress() { _consecutive = 0; }

    /** Consecutive recovery attempts since the last progress. */
    int consecutiveFailures() const { return _consecutive; }

    /** Total recovery attempts charged over the run. */
    int totalRecoveries() const { return _total; }

    const Config &config() const { return _config; }

  private:
    Config _config;
    int _consecutive = 0;
    int _total = 0;
};

} // namespace fault
} // namespace naspipe

#endif // NASPIPE_FAULT_RECOVERY_POLICY_H
