//! The benchmark's own arithmetic: nearest-rank percentiles over exact
//! samples, request-outcome accounting, CPU per request and span self
//! time. Kept free of I/O so every rule here is unit-tested.

/// Nearest-rank `q`-quantile of an ascending slice: the smallest sample
/// such that at least `q · n` samples are at or below it. `None` when
/// empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts `values` ascending (total order, NaN last) and returns the
/// nearest-rank median.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    nearest_rank(values, 0.5)
}

/// How one attempted request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with a prediction.
    Predicted,
    /// Refused by admission control (`Overloaded`).
    Overloaded,
    /// Answered with any other error response (`Rejected`, `Malformed`,
    /// `TooLarge`, `UnknownTag`) or an unexpected response kind.
    Refused,
    /// Never answered: the connection failed first.
    Transport,
}

/// Outcome tallies for a set of attempted requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests answered with a prediction.
    pub predicted: u64,
    /// `Overloaded` refusals.
    pub overloaded: u64,
    /// Other error responses.
    pub refused: u64,
    /// Requests lost to a transport failure.
    pub transport: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Predicted => self.predicted += 1,
            Outcome::Overloaded => self.overloaded += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Transport => self.transport += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.predicted += other.predicted;
        self.overloaded += other.overloaded;
        self.refused += other.refused;
        self.transport += other.transport;
    }

    /// Every attempted request.
    pub fn attempted(&self) -> u64 {
        self.predicted + self.failed()
    }

    /// Attempted requests not answered with a prediction.
    pub fn failed(&self) -> u64 {
        self.overloaded + self.refused + self.transport
    }

    /// Predictions over attempts (0 when nothing was attempted).
    pub fn success_ratio(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.predicted as f64 / n as f64,
        }
    }
}

/// Server CPU per completed request in microseconds: the process's CPU
/// over the measured phase minus the load generator's own, divided by the
/// requests completed in it. All CPU figures are in clock ticks of
/// `tick_hz`. `None` when nothing completed.
pub fn cpu_us_per_req(
    process_ticks: u64,
    generator_ticks: u64,
    tick_hz: u64,
    completed: u64,
) -> Option<f64> {
    if completed == 0 || tick_hz == 0 {
        return None;
    }
    let server_ticks = process_ticks.saturating_sub(generator_ticks);
    Some(server_ticks as f64 * 1e6 / tick_hz as f64 / completed as f64)
}

/// Length covered by the union of `intervals` after clipping each to
/// `[lo, hi]`: overlapping intervals count once.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Marks the quarter (rounded up) of slices with the least host steal;
/// ties go to the earlier slice.
pub fn quietest_quarter(steal: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let mut quiet = vec![false; steal.len()];
    for &k in order.iter().take(steal.len().div_ceil(4)) {
        quiet[k] = true;
    }
    quiet
}

/// One recorded span: `[start, end]` in nanoseconds since the trace
/// epoch, its parent's index, and the request it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `protocol.decode_request`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch (`start` while still open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span served.
    pub request: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end.saturating_sub(span.start);
            duration - covered(span.start, span.end, kids).min(duration)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_q() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&ten, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&ten, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&ten, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&ten, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&ten, 0.0), Some(1.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_sorts_first() {
        let mut values = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&mut values), Some(3.0));
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn overloaded_and_transport_count_as_failures() {
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Predicted,
            Outcome::Predicted,
            Outcome::Predicted,
            Outcome::Overloaded,
            Outcome::Refused,
            Outcome::Transport,
        ] {
            tally.record(outcome);
        }
        assert_eq!(tally.attempted(), 6);
        assert_eq!(tally.failed(), 3);
        assert!((tally.success_ratio() - 0.5).abs() < 1e-12);

        let mut only_overloaded = Tally::default();
        only_overloaded.record(Outcome::Predicted);
        only_overloaded.record(Outcome::Overloaded);
        assert!((only_overloaded.success_ratio() - 0.5).abs() < 1e-12);

        let mut merged = Tally::default();
        merged.absorb(tally);
        merged.absorb(only_overloaded);
        assert_eq!(merged.attempted(), 8);
        assert_eq!(merged.overloaded, 2);
        assert_eq!(Tally::default().success_ratio(), 0.0);
    }

    #[test]
    fn cpu_per_request_subtracts_the_generator() {
        // 300 ticks of process CPU at 100 Hz = 3 s; the generator used
        // 1 s of it; 10 000 requests share the remaining 2 s = 200 µs each.
        let us = cpu_us_per_req(300, 100, 100, 10_000).unwrap();
        assert!((us - 200.0).abs() < 1e-9, "{us}");
        // A generator reading above the process total cannot go negative.
        assert_eq!(cpu_us_per_req(10, 20, 100, 5), Some(0.0));
        assert_eq!(cpu_us_per_req(10, 0, 100, 0), None);
    }

    #[test]
    fn quietest_quarter_keeps_the_least_stolen_slices() {
        let steal = [0.3, 0.1, 0.2, 0.1, 0.5, 0.4, 0.0, 0.3];
        let quiet = quietest_quarter(&steal);
        assert_eq!(quiet, vec![false, true, false, false, false, false, true, false]);
        // Rounds up: five slices keep two.
        assert_eq!(quietest_quarter(&[0.5, 0.4, 0.3, 0.2, 0.1]).iter().filter(|&&q| q).count(), 2);
        assert!(quietest_quarter(&[]).is_empty());
    }

    #[test]
    fn union_coverage_clips_and_merges() {
        assert_eq!(covered(0, 100, &mut []), 0);
        assert_eq!(covered(0, 100, &mut [(10, 20), (30, 40)]), 20);
        // Overlapping and nested intervals count once.
        assert_eq!(covered(0, 100, &mut [(10, 50), (20, 30), (40, 60)]), 50);
        // Clipped to the parent's window.
        assert_eq!(covered(10, 20, &mut [(0, 15), (18, 40)]), 7);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 1 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("request", 0, 100, None),
            span("decode", 0, 10, Some(0)),
            span("store", 20, 80, Some(0)),
            // Two overlapping children of `store`: 30..60 ∪ 50..70 = 40.
            span("predict", 30, 60, Some(2)),
            span("predict", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 30, 20]);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans =
            [span("a", 0, 100, None), span("b", 10, 90, Some(0)), span("c", 20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![20, 70, 10]);
    }
}
