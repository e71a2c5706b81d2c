//! The `fig19-elastic` workload: `Simulation::run` of full-size RM1 on the
//! Elastic CPU-only plan under Figure 19's stepped traffic. One request
//! is one whole simulated run with its own arrival seed.

use std::time::Instant;

use elasticrec::{
    plan, Calibration, Platform, ServingPlan, Simulation, SimulationConfig, SimulationOutcome,
    Strategy,
};
use er_model::configs;
use er_workload::TrafficSchedule;

use crate::host::cpu_s;
use crate::load::{self, Tally};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace::{Layer, Tracer, NO_PARENT};
use crate::RunArgs;

#[derive(Debug, Clone)]
pub struct Spec {
    /// Traffic of the first step; steps climb to 5x, then drop to 2x.
    pub base_qps: f64,
    pub step_secs: f64,
    /// Simulated seconds per run.
    pub duration_secs: f64,
    /// Offered rate of the fixed-rate open loop, simulations per second.
    pub open_rate: f64,
    /// p90 limit of the SLO ladder, seconds.
    pub limit_s: f64,
    /// Set-ups (`plan` calls) per run; `setup_s` is their median.
    pub setups: usize,
}

pub fn spec(smoke: bool) -> Spec {
    if smoke {
        // The full traffic: a shorter one never scales the model-wise
        // replica up, so the memory check would have nothing to compare.
        Spec {
            open_rate: 20.0,
            limit_s: 0.5,
            setups: 2,
            ..spec(false)
        }
    } else {
        Spec {
            base_qps: 20.0,
            step_secs: 7.5,
            duration_secs: 60.0,
            open_rate: 20.0,
            limit_s: 0.25,
            setups: 9,
        }
    }
}

impl Spec {
    fn schedule(&self) -> TrafficSchedule {
        TrafficSchedule::figure19(self.base_qps, self.step_secs)
    }

    /// Expected arrivals: the schedule's rate integrated over the run.
    fn expected_queries(&self) -> f64 {
        let sched = self.schedule();
        let segs = sched.segments();
        let mut total = 0.0;
        for (i, &(start, rate)) in segs.iter().enumerate() {
            let end = segs
                .get(i + 1)
                .map_or(self.duration_secs, |&(s, _)| s)
                .min(self.duration_secs);
            total += rate * (end - start.min(end)).max(0.0);
        }
        total
    }
}

/// What one simulated run is checked and measured by.
#[derive(Debug, Clone, Copy)]
struct RunStat {
    /// Process CPU time of the run, seconds.
    host_s: f64,
    injected: u64,
    completed: u64,
    replica_changes: f64,
    peak_replicas: f64,
    digest: u64,
}

fn fnv(digest: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest(out: &SimulationOutcome) -> u64 {
    let mut d = 0xCBF2_9CE4_8422_2325;
    fnv(&mut d, out.total_queries);
    fnv(&mut d, out.completed_queries);
    fnv(&mut d, out.sla_violation_intervals as u64);
    fnv(&mut d, out.peak_memory_gib.to_bits());
    fnv(&mut d, out.latency.percentile(0.95).to_bits());
    for series in [
        &out.memory_gib,
        &out.p95_ms,
        &out.total_replicas,
        &out.achieved_qps,
    ] {
        for p in series.points() {
            fnv(&mut d, p.time.to_bits());
            fnv(&mut d, p.value.to_bits());
        }
    }
    d
}

fn stat(out: &SimulationOutcome, host_s: f64) -> RunStat {
    let replicas: Vec<f64> = out
        .total_replicas
        .points()
        .iter()
        .map(|p| p.value)
        .collect();
    RunStat {
        host_s,
        injected: out.total_queries,
        completed: out.completed_queries,
        replica_changes: replicas.windows(2).map(|w| (w[1] - w[0]).abs()).sum(),
        peak_replicas: replicas.iter().copied().fold(0.0, f64::max),
        digest: digest(out),
    }
}

/// Injected queries lie within five standard deviations of the
/// schedule's integral (Poisson: variance equals the mean).
pub fn check_injected(injected: u64, expected: f64) -> Result<(), String> {
    let bound = 5.0 * expected.sqrt() + 1.0;
    if (injected as f64 - expected).abs() <= bound {
        Ok(())
    } else {
        Err(format!(
            "injected {injected}, schedule integral {expected:.0} +- {bound:.0}"
        ))
    }
}

pub fn check_completed(injected: u64, completed: u64) -> Result<(), String> {
    if completed <= injected {
        Ok(())
    } else {
        Err(format!("completed {completed} > injected {injected}"))
    }
}

pub fn check_repeat(first: u64, again: u64) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!("outcome digest {first:016x} then {again:016x}"))
    }
}

pub fn check_memory(elastic_gib: f64, model_wise_gib: f64) -> Result<(), String> {
    if elastic_gib < model_wise_gib {
        Ok(())
    } else {
        Err(format!(
            "elastic peak {elastic_gib:.1} GiB not below model-wise {model_wise_gib:.1} GiB"
        ))
    }
}

/// The arrival seed of request `i`.
fn request_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed, 1_000_000 + i).next_u64()
}

struct Sim<'a> {
    spec: &'a Spec,
    plan: ServingPlan,
    calib: Calibration,
    seed: u64,
    expected: f64,
    stats: Vec<RunStat>,
}

impl Sim<'_> {
    fn config(&self, i: u64) -> SimulationConfig {
        SimulationConfig::new(
            self.spec.schedule(),
            self.spec.duration_secs,
            request_seed(self.seed, i),
        )
    }

    fn serve(&mut self, i: u64) -> bool {
        let cfg = self.config(i);
        let c = cpu_s();
        let out = Simulation::run(&self.plan, &self.calib, &cfg);
        let s = stat(&out, cpu_s() - c);
        self.stats.push(s);
        check_injected(s.injected, self.expected).is_ok()
            && check_completed(s.injected, s.completed).is_ok()
    }
}

/// Runs the workload; with tracing on, returns the spans.
pub fn run(spec: &Spec, args: &RunArgs, report: &mut Report) -> Option<Tracer> {
    let calib = Calibration::cpu_only();
    let model = configs::rm1();
    let mut plan_s = Vec::new();
    let mut elastic = None;
    for _ in 0..spec.setups {
        drop(elastic.take());
        let t = Instant::now();
        let p = plan(&model, Platform::CpuOnly, Strategy::Elastic, &calib);
        plan_s.push(t.elapsed().as_secs_f64());
        elastic = Some(p);
    }
    report.set("setup_s", median(&plan_s));
    report.set("core.plan_s", median(&plan_s));
    let plan = elastic.expect("at least one set-up");
    let emb_shards = plan.embedding_shards().count() as f64;
    report.notes.push(format!(
        "fig19: RM1 Elastic CPU-only plan, {} shards ({emb_shards} embedding); traffic \
         figure19(base {} QPS, step {} s) over {} s, {:.0} queries expected per run",
        plan.num_shards(),
        spec.base_qps,
        spec.step_secs,
        spec.duration_secs,
        spec.expected_queries()
    ));
    let mut sim = Sim {
        spec,
        plan,
        calib,
        seed: args.seed,
        expected: spec.expected_queries(),
        stats: Vec::new(),
    };
    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed, 3);
    let secs = args.seconds;
    let mut tracer = None;
    if args.trace {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        let mut k = 0u32;
        while t0.elapsed().as_secs_f64() < 0.55 * secs || k < 2 {
            let s = tr.begin(Layer::SimRun, NO_PARENT, k);
            tally.attempted += 1;
            if !sim.serve(u64::from(k)) {
                tally.failed += 1;
            }
            tr.end(s);
            k += 1;
        }
        tally.next = u64::from(k);
        let stats = &sim.stats;
        let pick = |f: &dyn Fn(&RunStat) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
        report.set("core.sim_run_s", pick(&|s| s.host_s));
        report.set(
            "sim.host_ns_per_rpc",
            pick(&|s| s.host_s * 1e9 / (s.completed as f64 * emb_shards)),
        );
        report.set("sim.queries", pick(&|s| s.completed as f64));
        report.set(
            "sim.fanout_rpcs",
            pick(&|s| s.completed as f64 * emb_shards),
        );
        report.set("cluster.replica_changes", pick(&|s| s.replica_changes));
        report.set("cluster.peak_replicas", pick(&|s| s.peak_replicas));
        let ol = load::open_loop(
            spec.open_rate,
            0.35 * secs,
            &mut rng,
            &mut tally,
            &mut |i| sim.serve(i),
        );
        report.set(
            "serve.queue_wait_ms_p99",
            quantile(&ol.queue_wait, 0.99) * 1e3,
        );
        report.set("serve.gen_late_ms_p99", quantile(&ol.gen_late, 0.99) * 1e3);
        report.set("serve.lat_p99_ms", quantile(&ol.latency, 0.99) * 1e3);
        for name in [
            "distribution.remap_us",
            "partition.bucketize_us",
            "model.gather_us",
            "core.merge_us",
            "model.gather_bytes",
            "model.gather_gbps",
            "partition.hot_shard_share",
            "tensor.bottom_mlp_us",
            "tensor.top_mlp_us",
            "tensor.mlp_gflops",
            "model.interaction_us",
            "core.forward_us",
            "trace.overhead_us",
            "model.init_s",
            "model.count_s",
            "partition.plan_s",
            "core.shard_s",
            "core.shard_param_mib",
        ] {
            report.set(name, 0.0);
        }
        tracer = Some(tr);
    } else {
        let mut serve = |i| sim.serve(i);
        let m = load::measure(
            secs,
            spec.open_rate,
            spec.limit_s,
            &mut rng,
            &mut tally,
            &mut serve,
        );
        report.set("throughput_qps", m.throughput);
        report.set("lat_p50_ms", m.lat_p50 * 1e3);
        report.set("slo_qps", m.slo);
        let completed: Vec<f64> = sim.stats.iter().map(|s| s.completed as f64).collect();
        let host_s: Vec<f64> = sim.stats.iter().map(|s| s.host_s).collect();
        report.set(
            "sim_queries_per_s",
            load::sustained(&load::window_rates(&completed, &host_s)),
        );
        report.set("peak_rss_mib", crate::host::peak_rss_mib());
        report.notes.push(m.note(spec.open_rate, spec.limit_s));
    }
    checks(report, &sim, &model);
    crate::tally_into(report, &tally);
    tracer
}

/// The checks made apart from the timed runs, and the simulated figures.
fn checks(report: &mut Report, sim: &Sim<'_>, model: &er_model::ModelConfig) {
    let expected = sim.expected;
    let injected_ok = sim
        .stats
        .iter()
        .map(|s| check_injected(s.injected, expected))
        .find(Result::is_err)
        .unwrap_or(Ok(()));
    report.check(
        &format!(
            "injected queries of all {} runs within 5 sigma of the schedule integral {expected:.0}",
            sim.stats.len()
        ),
        injected_ok,
    );
    let completed_ok = sim
        .stats
        .iter()
        .map(|s| check_completed(s.injected, s.completed))
        .find(Result::is_err)
        .unwrap_or(Ok(()));
    report.check("completed <= injected on every run", completed_ok);

    let cfg = sim.config(0);
    let again = Simulation::run(&sim.plan, &sim.calib, &cfg);
    report.check(
        "the same arrival seed repeats the outcome exactly",
        check_repeat(sim.stats[0].digest, digest(&again)),
    );
    let mw_plan = plan(model, Platform::CpuOnly, Strategy::ModelWise, &sim.calib);
    let mw = Simulation::run(&mw_plan, &sim.calib, &cfg);
    report.check(
        "elastic peak memory below model-wise on the same traffic",
        check_memory(again.peak_memory_gib, mw.peak_memory_gib),
    );
    for (name, out) in [("elastic", &again), ("model-wise", &mw)] {
        report.notes.push(format!(
            "fig19 {name}: peak {:.1} GiB, p95 {:.1} ms, SLA-violating intervals {}/{}, \
             completed {}/{}",
            out.peak_memory_gib,
            out.latency.percentile(0.95) * 1e3,
            out.sla_violation_intervals,
            out.metric_intervals,
            out.completed_queries,
            out.total_queries
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_simulation_outcomes_fail() {
        assert!(check_injected(12_600, 12_600.0).is_ok());
        assert!(check_injected(13_400, 12_600.0).is_err());
        assert!(check_injected(0, 12_600.0).is_err());
        assert!(check_completed(10, 10).is_ok());
        assert!(check_completed(10, 11).is_err());
        assert!(check_repeat(7, 7).is_ok());
        assert!(check_repeat(7, 8).is_err());
        assert!(check_memory(40.0, 169.0).is_ok());
        assert!(check_memory(169.0, 169.0).is_err());
    }

    #[test]
    fn schedule_integral_matches_the_steps() {
        // 7.5 s at each of 20..100 QPS, then 22.5 s at 40 QPS.
        assert!((spec(false).expected_queries() - 3_150.0).abs() < 1e-9);
    }
}
