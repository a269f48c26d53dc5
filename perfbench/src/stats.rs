//! Sample statistics, the open-loop rate-ladder verdict and failure
//! accounting.  Pure functions over recorded numbers, so the self-tests at
//! the bottom exercise them on synthetic inputs.

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest rank of percentile `p` among `n` samples (1-based).
fn rank_of(n: usize, p: f64) -> usize {
    ((p * n as f64) / 100.0).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_of(sorted.len(), p) - 1]
}

/// The nearest rank of the highest percentile at most `p` that leaves at
/// least [`TAIL_SAMPLES`] samples beyond it, or `None` when `n` is too
/// small for any tail (`n <= TAIL_SAMPLES`).
pub fn supported_rank(n: usize, p: f64) -> Option<usize> {
    (n > TAIL_SAMPLES).then(|| rank_of(n, p).min(n - TAIL_SAMPLES))
}

/// Median and tail of a set of timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median (`0` for no samples).
    pub p50: f64,
    /// The percentile the tail was taken at (see [`supported_rank`]);
    /// `0` when there were too few samples for any tail.
    pub tail_p: f64,
    /// The tail value (the maximum when no percentile is supported).
    pub tail: f64,
}

/// Summarises `samples` with the median and the tail at `p` (or the
/// highest percentile below it that the sample supports).
pub fn summarize(samples: &[f64], p: f64) -> Summary {
    if samples.is_empty() {
        return Summary {
            n: 0,
            p50: 0.0,
            tail_p: 0.0,
            tail: 0.0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail_p, tail) = match supported_rank(n, p) {
        Some(rank) => (100.0 * rank as f64 / n as f64, sorted[rank - 1]),
        None => (0.0, sorted[n - 1]),
    };
    Summary {
        n: sorted.len(),
        p50: nearest_rank(&sorted, 50.0),
        tail_p,
        tail,
    }
}

/// Median of `values` (nearest rank); `0` for none.
pub fn median(values: &[f64]) -> f64 {
    summarize(values, 50.0).p50
}

/// What one rate step of the open-loop ladder observed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepObservation {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Requests sent during the step.
    pub sent: usize,
    /// Requests answered (Exact or Degraded) within the latency limit,
    /// measured from their due times.
    pub within_limit: usize,
    /// 99th-percentile generator lag, milliseconds.
    pub lag_p99_ms: f64,
    /// Outstanding tickets when the step started.
    pub backlog_start: usize,
    /// Outstanding tickets when the step's arrivals ended.
    pub backlog_end: usize,
}

/// Verdict on one ladder step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepVerdict {
    /// The step met the latency limit share without a growing backlog.
    Pass,
    /// Fewer than the required share answered within the limit.
    MissedLimit,
    /// The backlog grew across the step.
    BacklogGrew,
    /// The generator ran later than the latency limit, so the step did
    /// not offer the rate it names: reported as invalid, not as numbers.
    Invalid,
}

/// Share of requests sent that must be answered within the limit.
pub const REQUIRED_WITHIN: f64 = 0.9;

/// Judges one step: invalid when the generator lag exceeds `limit_ms`;
/// otherwise a pass needs [`REQUIRED_WITHIN`] of the requests sent
/// answered within the limit and a backlog that grew by at most `slack`.
pub fn judge_step(step: &StepObservation, limit_ms: f64, slack: usize) -> StepVerdict {
    if step.lag_p99_ms > limit_ms {
        StepVerdict::Invalid
    } else if (step.within_limit as f64) < REQUIRED_WITHIN * step.sent as f64 || step.sent == 0 {
        StepVerdict::MissedLimit
    } else if step.backlog_end > step.backlog_start + slack {
        StepVerdict::BacklogGrew
    } else {
        StepVerdict::Pass
    }
}

/// Share of its rounds a ladder rate must hold for: a rate passes when at
/// least this share of its rounds pass.
pub const HOLD_SHARE: f64 = 0.75;

/// One rate's verdict over its rounds: `Pass` (standing for the rate with
/// its first passing round) when at least [`HOLD_SHARE`] of the rounds
/// pass, else its first failing round.
pub fn held_verdict(rounds: &[(StepObservation, StepVerdict)]) -> (StepObservation, StepVerdict) {
    assert!(!rounds.is_empty(), "a rate needs at least one round");
    let passes = rounds
        .iter()
        .filter(|(_, v)| *v == StepVerdict::Pass)
        .count();
    let held = passes as f64 >= HOLD_SHARE * rounds.len() as f64;
    *rounds
        .iter()
        .find(|(_, v)| (*v == StepVerdict::Pass) == held)
        .expect("a round with the held verdict exists")
}

/// Highest rate among passing steps (`0` when none passes).
pub fn max_passing_rate(steps: &[(StepObservation, StepVerdict)]) -> f64 {
    steps
        .iter()
        .filter(|(_, verdict)| *verdict == StepVerdict::Pass)
        .map(|(step, _)| step.rate)
        .fold(0.0, f64::max)
}

/// How one operation ended, as the correctness oracle sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// A verified exhaustive answer.
    Exact,
    /// A verified best-effort answer (value at or above its lower bound).
    Degraded,
    /// Refused by admission, shedding or a queue bound: not a failure, but
    /// it misses every latency limit.
    Refused,
    /// Errored, panicked, never resolved, or returned a wrong answer.
    Failed,
}

/// Failure accounting over the operations of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Exact answers.
    pub exact: usize,
    /// Degraded answers.
    pub degraded: usize,
    /// Refusals.
    pub refused: usize,
    /// Failures.
    pub failed: usize,
    /// Answers (Exact or Degraded) within the latency limit.
    pub within_limit: usize,
}

impl Tally {
    /// Records one operation that took `latency_ms`, against `limit_ms`.
    pub fn record(&mut self, outcome: Outcome, latency_ms: f64, limit_ms: f64) {
        self.attempted += 1;
        let answered = match outcome {
            Outcome::Exact => {
                self.exact += 1;
                true
            }
            Outcome::Degraded => {
                self.degraded += 1;
                true
            }
            Outcome::Refused => {
                self.refused += 1;
                false
            }
            Outcome::Failed => {
                self.failed += 1;
                false
            }
        };
        if answered && latency_ms <= limit_ms {
            self.within_limit += 1;
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.exact += other.exact;
        self.degraded += other.degraded;
        self.refused += other.refused;
        self.failed += other.failed;
        self.within_limit += other.within_limit;
    }

    fn share(&self, count: usize) -> f64 {
        ratio(count, self.attempted)
    }

    /// (Exact + Degraded) / attempted.
    pub fn answered_frac(&self) -> f64 {
        self.share(self.exact + self.degraded)
    }

    /// Exact / attempted.
    pub fn exact_frac(&self) -> f64 {
        self.share(self.exact)
    }

    /// Failed / attempted.
    pub fn failed_frac(&self) -> f64 {
        self.share(self.failed)
    }
}

/// `part / whole`, or `0` when `whole` is 0.
pub fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `true` when a degraded `value` is at least its certified `lower_bound`
/// (up to a relative 1e-9).
pub fn respects_bound(value: f64, lower_bound: f64) -> bool {
    value + 1e-9 * value.abs().max(1.0) >= lower_bound
}

/// `true` when `value` equals `reference` up to a relative 1e-9 (the
/// solvers are deterministic, but a relabelled instance may sum the same
/// terms in another order).
pub fn same_value(value: f64, reference: f64) -> bool {
    (value - reference).abs() <= 1e-9 * reference.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 50.0);
        assert_eq!(nearest_rank(&sorted, 90.0), 90.0);
        assert_eq!(nearest_rank(&sorted, 99.0), 99.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 100.0), 100.0);
        assert_eq!(nearest_rank(&[3.0, 7.0], 50.0), 3.0);
        assert_eq!(nearest_rank(&[3.0, 7.0], 51.0), 7.0);
    }

    #[test]
    fn reported_tail_always_leaves_ten_samples_beyond() {
        for n in 11..2000 {
            let rank = supported_rank(n, 99.0).expect("n > 10 supports a tail");
            assert!(n - rank >= TAIL_SAMPLES, "n={n}: rank={rank}");
            assert!(rank <= rank_of(n, 99.0));
        }
        assert_eq!(supported_rank(100, 90.0), Some(90));
        assert_eq!(supported_rank(100, 99.0), Some(90));
        assert_eq!(supported_rank(1000, 99.0), Some(990));
        assert_eq!(supported_rank(10, 50.0), None);
    }

    #[test]
    fn summarize_falls_back_to_the_supported_tail() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples, 99.0);
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (100, 50.0, 90.0, 90.0));
        let s = summarize(&samples[..5], 99.0);
        assert_eq!((s.tail_p, s.tail), (0.0, 100.0));
        assert_eq!(summarize(&[], 99.0).n, 0);
    }

    fn step(sent: usize, within: usize, lag: f64, start: usize, end: usize) -> StepObservation {
        StepObservation {
            rate: sent as f64,
            sent,
            within_limit: within,
            lag_p99_ms: lag,
            backlog_start: start,
            backlog_end: end,
        }
    }

    #[test]
    fn ladder_verdicts_and_max_rate() {
        let limit = 1.0;
        assert_eq!(
            judge_step(&step(100, 95, 0.2, 0, 3), limit, 16),
            StepVerdict::Pass
        );
        assert_eq!(
            judge_step(&step(100, 90, 0.2, 0, 3), limit, 16),
            StepVerdict::Pass
        );
        assert_eq!(
            judge_step(&step(100, 89, 0.2, 0, 3), limit, 16),
            StepVerdict::MissedLimit
        );
        assert_eq!(
            judge_step(&step(100, 99, 0.2, 4, 40), limit, 16),
            StepVerdict::BacklogGrew
        );
        // A late generator invalidates the step whatever else it saw.
        assert_eq!(
            judge_step(&step(100, 99, 1.5, 0, 0), limit, 16),
            StepVerdict::Invalid
        );
        assert_eq!(
            judge_step(&step(0, 0, 0.0, 0, 0), limit, 16),
            StepVerdict::MissedLimit
        );
        let ladder = vec![
            (step(100, 99, 0.1, 0, 0), StepVerdict::Pass),
            (step(200, 199, 0.1, 0, 0), StepVerdict::Pass),
            (step(300, 100, 0.1, 0, 900), StepVerdict::BacklogGrew),
            (step(400, 399, 3.0, 0, 0), StepVerdict::Invalid),
        ];
        assert_eq!(max_passing_rate(&ladder), 200.0);
        assert_eq!(max_passing_rate(&ladder[2..]), 0.0);
    }

    #[test]
    fn ladder_rates_hold_for_three_quarters_of_the_rounds() {
        let pass = (step(100, 99, 0.1, 0, 0), StepVerdict::Pass);
        let miss = (step(100, 50, 0.1, 0, 0), StepVerdict::MissedLimit);
        assert_eq!(held_verdict(&[pass, pass, pass, miss]).1, StepVerdict::Pass);
        assert_eq!(
            held_verdict(&[pass, pass, miss, miss]).1,
            StepVerdict::MissedLimit
        );
        assert_eq!(held_verdict(&[miss, pass, pass, pass]).0, pass.0);
    }

    #[test]
    fn refusals_miss_the_limit_and_wrong_values_fail() {
        let mut tally = Tally::default();
        tally.record(Outcome::Exact, 0.5, 1.0);
        tally.record(Outcome::Exact, 2.0, 1.0);
        tally.record(Outcome::Degraded, 0.1, 1.0);
        tally.record(Outcome::Refused, 0.0, 1.0);
        tally.record(Outcome::Failed, 0.0, 1.0);
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.within_limit, 2, "a fast refusal still misses");
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.answered_frac(), 0.6);
        assert_eq!(tally.exact_frac(), 0.4);
        assert_eq!(tally.failed_frac(), 0.2);
        let mut total = Tally::default();
        total.merge(&tally);
        total.merge(&tally);
        assert_eq!((total.attempted, total.failed), (10, 2));
    }

    #[test]
    fn value_check_tolerates_rounding_only() {
        assert!(respects_bound(3.0, 3.0));
        assert!(respects_bound(3.0, 2.5));
        assert!(!respects_bound(2.4, 2.5));
        assert!(same_value(12.5, 12.5));
        assert!(same_value(12.5 + 1e-12, 12.5));
        assert!(!same_value(12.5001, 12.5));
        assert!(!same_value(f64::NAN, 12.5));
    }
}
