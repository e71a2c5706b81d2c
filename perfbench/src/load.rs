//! The load harness every workload shares: a closed loop for throughput,
//! an open loop at a fixed Poisson rate for latency, and a ladder of
//! offered rates for the highest rate that meets a p90 limit.
//!
//! One FIFO server runs inline on the calling thread: a request is served
//! when it is due or, if the server is still busy, as soon as it frees up.
//! Each request is timed from when it was due, so a stall is charged to
//! every request queued behind it.
//!
//! Latencies are wall-clock times. Rates (throughput and the SLO rate) are
//! requests per second of the process's CPU time ([`crate::host::cpu_s`]),
//! which leaves out the time the process waited for a core or had it
//! stolen by the hypervisor, and they are read at [`RATE_QUANTILE`] over
//! windows of [`WINDOW`] requests rather than at the median: on a shared
//! VM one core's speed flickers, within a second, between a steady slow
//! state and bursts up to twice as fast, and a run's median lands in one
//! state or the other depending on how much of the run the bursts took.

use std::time::Instant;

use crate::host::cpu_s;
use crate::rng::Rng;
use crate::stats::{median, quantile};

/// Serves request `i`; returns whether its output passed the inline checks.
pub type Serve<'a> = dyn FnMut(u64) -> bool + 'a;

/// Running request counter and check tally shared by every phase, so each
/// request gets a fresh index and every served request is counted.
#[derive(Debug, Default)]
pub struct Tally {
    pub next: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn serve(&mut self, serve: &mut Serve<'_>) {
        let i = self.next;
        self.next += 1;
        self.attempted += 1;
        if !serve(i) {
            self.failed += 1;
        }
    }
}

/// Consecutive requests per rate window.
pub const WINDOW: usize = 8;

/// The quantile of window rates a run's rate is read at: the rate that
/// three windows in four reached. The host's bursts of speed come and go
/// from run to run; its slow state is in every run. A lower quantile
/// rests on too few windows of the closed loop and spread more.
pub const RATE_QUANTILE: f64 = 0.25;

/// Service times of a closed-loop block, seconds, one pair per request.
#[derive(Debug, Default)]
pub struct Service {
    pub wall: Vec<f64>,
    /// Process CPU time of each request.
    pub cpu: Vec<f64>,
}

/// Back-to-back requests for `secs` (at least one); returns every
/// service time.
pub fn closed_loop(secs: f64, tally: &mut Tally, serve: &mut Serve<'_>) -> Service {
    let t0 = Instant::now();
    let mut service = Service::default();
    while service.wall.is_empty() || t0.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let c = cpu_s();
        tally.serve(serve);
        service.cpu.push(cpu_s() - c);
        service.wall.push(t.elapsed().as_secs_f64());
    }
    service
}

/// Work done per second in each window of [`WINDOW`] consecutive
/// requests (one window over all of them if there are fewer), from each
/// request's work and seconds.
pub fn window_rates(work: &[f64], secs: &[f64]) -> Vec<f64> {
    let rate = |w: &[f64], s: &[f64]| w.iter().sum::<f64>() / s.iter().sum::<f64>();
    if secs.len() < WINDOW {
        return vec![rate(work, secs)];
    }
    work.chunks_exact(WINDOW)
        .zip(secs.chunks_exact(WINDOW))
        .map(|(w, s)| rate(w, s))
        .collect()
}

/// Requests per second in each window, from service times.
pub fn request_rates(service: &[f64]) -> Vec<f64> {
    window_rates(&vec![1.0; service.len()], service)
}

/// A run's rate: its window rates read at [`RATE_QUANTILE`].
pub fn sustained(rates: &[f64]) -> f64 {
    quantile(rates, RATE_QUANTILE)
}

/// What one open-loop phase measured, in seconds.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due-to-finish time of every served request.
    pub latency: Vec<f64>,
    /// Time each request waited for the server to free up.
    pub queue_wait: Vec<f64>,
    /// How late the generator issued each request once the server was
    /// free (the spin-wait's overshoot).
    pub gen_late: Vec<f64>,
    /// Requests due before the phase ended that had not started by then.
    pub backlog: usize,
}

impl OpenLoop {
    pub fn p90(&self) -> f64 {
        quantile(&self.latency, 0.90)
    }

    /// Whether the queue was still growing when arrivals stopped: more
    /// than 4% of the phase's requests (and at least three) left waiting.
    pub fn backlog_grew(&self) -> bool {
        self.backlog > 3.max(self.latency.len() / 25)
    }
}

/// Poisson arrivals at `rate` per second for `secs`, served inline.
///
/// Requests due in the phase are all served; if a slow program leaves
/// the phase running past `4 x secs + 5` s, the rest are refused and
/// counted as failed.
pub fn open_loop(
    rate: f64,
    secs: f64,
    rng: &mut Rng,
    tally: &mut Tally,
    serve: &mut Serve<'_>,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let deadline = 4.0 * secs + 5.0;
    let t0 = Instant::now();
    let mut due = rng.exp_gap(rate);
    let mut prev_finish = 0.0f64;
    while due < secs {
        let mut now = t0.elapsed().as_secs_f64();
        if now > deadline {
            tally.attempted += 1;
            tally.failed += 1;
            due += rng.exp_gap(rate);
            continue;
        }
        while now < due {
            std::hint::spin_loop();
            now = t0.elapsed().as_secs_f64();
        }
        tally.serve(serve);
        let finish = t0.elapsed().as_secs_f64();
        out.latency.push(finish - due);
        out.queue_wait.push((prev_finish - due).max(0.0));
        out.gen_late.push(now - due.max(prev_finish));
        if now >= secs {
            out.backlog += 1;
        }
        prev_finish = finish;
        due += rng.exp_gap(rate);
    }
    out
}

/// Rounds per run. Every round runs a closed-loop block, a block of the
/// fixed-rate open loop and one probe of the SLO ladder, so each metric
/// samples the whole run rather than one stretch of it: on a shared host
/// the speed drifts over seconds.
pub const ROUNDS: usize = 20;

/// Offered rates of the SLO ladder, as fractions of the throughput of the
/// closed-loop block just before the probe, so a probe and the speed it is
/// measured against come from the same stretch of the run. Round `r`
/// probes rung `r % 5`, so each rung gets four probes.
pub const RUNGS: [f64; 5] = [0.6, 0.7, 0.8, 0.9, 1.0];

/// The end-to-end figures of one run.
#[derive(Debug)]
pub struct Measured {
    /// Closed-loop requests per second of CPU time, [`sustained`].
    pub throughput: f64,
    /// Closed-loop requests per second of wall-clock time, median over
    /// windows.
    pub throughput_wall: f64,
    /// Every closed-loop service time.
    pub service: Service,
    /// Median latency of the fixed-rate open loop, seconds.
    pub lat_p50: f64,
    /// The open loop's p90 in each round, median over the rounds.
    pub lat_p90: f64,
    /// The highest offered rate meeting the p90 limit, per second.
    pub slo: f64,
    /// Every request of the fixed-rate open loop.
    pub open: OpenLoop,
    /// Per rung: its fraction of throughput and the share of its probes
    /// that met the limit.
    pub rungs: Vec<(f64, f64)>,
}

/// Runs [`ROUNDS`] rounds over `secs`: per round a closed-loop block (a
/// fifth of the round), a block of the open loop at `open_rate` (0.45 of
/// it) and one ladder probe (the rest).
///
/// A probe passes if its p90 stays within `limit` seconds and it left no
/// growing backlog. Each probe is offered a fraction of the wall-clock
/// throughput just measured, the rate the server could take at that
/// moment; `slo` is [`slo_fraction`] of the ladder times the run's
/// CPU-time throughput.
pub fn measure(
    secs: f64,
    open_rate: f64,
    limit: f64,
    rng: &mut Rng,
    tally: &mut Tally,
    serve: &mut Serve<'_>,
) -> Measured {
    let round = secs / ROUNDS as f64;
    let mut service = Service::default();
    let mut open = OpenLoop::default();
    let mut round_p90 = Vec::new();
    let mut passes = [0usize; RUNGS.len()];
    let mut probes = [0usize; RUNGS.len()];
    for r in 0..ROUNDS {
        let block = closed_loop(0.2 * round, tally, serve);
        let local = median(&request_rates(&block.wall));
        service.wall.extend(block.wall);
        service.cpu.extend(block.cpu);
        let ol = open_loop(open_rate, 0.45 * round, rng, tally, serve);
        let p90 = ol.p90();
        if p90.is_finite() {
            round_p90.push(p90);
        }
        open.latency.extend(ol.latency);
        open.queue_wait.extend(ol.queue_wait);
        open.gen_late.extend(ol.gen_late);
        open.backlog += ol.backlog;

        let k = r % RUNGS.len();
        let probe = open_loop(RUNGS[k] * local, 0.35 * round, rng, tally, serve);
        probes[k] += 1;
        if !probe.backlog_grew() && probe.p90() <= limit {
            passes[k] += 1;
        }
    }
    let rungs: Vec<(f64, f64)> = RUNGS
        .iter()
        .zip(passes.iter().zip(&probes))
        .map(|(&f, (&p, &n))| (f, p as f64 / n.max(1) as f64))
        .collect();
    let throughput_wall = median(&request_rates(&service.wall));
    let throughput = sustained(&request_rates(&service.cpu));
    Measured {
        throughput,
        throughput_wall,
        service,
        lat_p50: median(&open.latency),
        lat_p90: median(&round_p90),
        slo: slo_fraction(&rungs) * throughput,
        open,
        rungs,
    }
}

/// The fraction of throughput at which probes stop meeting the limit,
/// from evenly spaced rungs `(fraction, share passing)`: the
/// Spearman-Karber estimate, which takes every rung below the ladder as
/// passing and every rung above it as failing, so the answer runs from
/// half a step below the first rung to half a step above the last.
pub fn slo_fraction(rungs: &[(f64, f64)]) -> f64 {
    let (Some(first), Some(second)) = (rungs.first(), rungs.get(1)) else {
        return rungs.first().map_or(f64::NAN, |r| r.0 * r.1);
    };
    let step = second.0 - first.0;
    first.0 - step / 2.0 + step * rungs.iter().map(|r| r.1).sum::<f64>()
}

impl Measured {
    /// One line on the closed loop, the open loop and the ladder behind
    /// the figures.
    pub fn note(&self, open_rate: f64, limit: f64) -> String {
        let rungs: Vec<String> = self
            .rungs
            .iter()
            .map(|(f, share)| format!("{f}x {share}"))
            .collect();
        format!(
            "load: closed loop {} requests, {:.2}/s of CPU time (p25), {:.2}/s of wall time (p50), \
             service p50 {:.3} ms p99 {:.3} ms (wall); open loop {} requests at {open_rate}/s, p90 {:.3} ms (median over rounds), \
             p99 {:.3} ms (pooled); ladder share passing p90 <= {:.0} ms: {}",
            self.service.wall.len(),
            self.throughput,
            self.throughput_wall,
            median(&self.service.wall) * 1e3,
            quantile(&self.service.wall, 0.99) * 1e3,
            self.open.latency.len(),
            self.lat_p90 * 1e3,
            quantile(&self.open.latency, 0.99) * 1e3,
            limit * 1e3,
            rungs.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) -> impl FnMut(u64) -> bool {
        move |_| {
            let t = Instant::now();
            while t.elapsed().as_micros() < u128::from(us) {
                std::hint::spin_loop();
            }
            true
        }
    }

    #[test]
    fn closed_loop_counts_requests_per_second() {
        let mut tally = Tally::default();
        let service = closed_loop(0.05, &mut tally, &mut busy(500));
        assert_eq!(tally.attempted as usize, service.wall.len());
        assert_eq!(service.cpu.len(), service.wall.len());
        let qps = median(&request_rates(&service.wall));
        // A 500 us request caps the rate at 2000/s; contention only lowers it.
        assert!(qps > 0.0 && qps <= 2000.0, "qps {qps}");
        // CPU time includes other test threads, so only its sign is sure.
        assert!(service.cpu.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn open_loop_times_from_due() {
        let mut tally = Tally::default();
        let mut rng = Rng::new(1, 1);
        let ol = open_loop(200.0, 0.2, &mut rng, &mut tally, &mut busy(500));
        assert!(!ol.latency.is_empty());
        assert!(ol.latency.iter().all(|&l| l >= 0.0005));
    }

    #[test]
    fn window_rates_divide_work_by_time() {
        let secs = [0.5; 16];
        let mut work = [1.0; 16];
        work[8..].fill(3.0);
        assert_eq!(window_rates(&work, &secs), vec![2.0, 6.0]);
        assert_eq!(window_rates(&[1.0, 2.0], &[0.5, 0.5]), vec![3.0]);
        let rates: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((sustained(&rates) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn slo_fraction_counts_passing_probes() {
        let all = [(0.6, 1.0), (0.7, 1.0), (0.8, 1.0), (0.9, 1.0), (1.0, 1.0)];
        assert!((slo_fraction(&all) - 1.05).abs() < 1e-9);
        let none = [(0.6, 0.0), (0.7, 0.0), (0.8, 0.0), (0.9, 0.0), (1.0, 0.0)];
        assert!((slo_fraction(&none) - 0.55).abs() < 1e-9);
        // A clean step between 0.7 and 0.8 lands halfway between them.
        let step = [(0.6, 1.0), (0.7, 1.0), (0.8, 0.0), (0.9, 0.0), (1.0, 0.0)];
        assert!((slo_fraction(&step) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn measure_stays_below_capacity() {
        let mut tally = Tally::default();
        let mut rng = Rng::new(2, 1);
        let m = measure(0.4, 300.0, 0.01, &mut rng, &mut tally, &mut busy(1000));
        assert!(
            m.throughput_wall > 0.0 && m.throughput_wall <= 1000.0,
            "{m:?}"
        );
        assert!(m.throughput > 0.0, "{m:?}");
        assert!(m.slo > 0.0 && m.slo <= 1.05 * m.throughput, "{m:?}");
        // Every request takes at least its 1 ms of service.
        assert!(m.lat_p50 >= 0.001 && m.lat_p90 >= 0.001, "{m:?}");
    }
}
