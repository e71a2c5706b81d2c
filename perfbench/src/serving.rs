//! The serving workloads, `rm1-sparse` and `rm3-dense`: batch-32 queries
//! scored through `ShardedDlrm::forward_ws` on a model sharded by the DP
//! plan over an observed access history.

use std::hint::black_box;
use std::time::Instant;

use elasticrec::{Calibration, ForwardWorkspace, ShardedDlrm};
use er_distribution::sorting::HotnessPermutation;
use er_distribution::{EmpiricalCdf, LocalityTarget};
use er_model::configs::{self, RM_TABLE_ROWS};
use er_model::{
    dot_interaction_into, AccessCounter, Dlrm, EmbeddingTable, ModelConfig, QueryBatch, TableLookup,
};
use er_partition::{
    bucketize_into, partition_bucketed, AnalyticGatherModel, BucketizedLookup, CostModel,
    PartitionPlan,
};
use er_tensor::{Matrix, Mlp};
use er_units::{Bytes, BytesPerSec, Qps, Secs};

use crate::load::{self, Tally};
use crate::reference::{self, Reference};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace::{Layer, Tracer, NO_PARENT};
use crate::RunArgs;

/// The make-up of one serving workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub cfg: ModelConfig,
    /// Queries in the access history the hotness sort and plan come from.
    pub history: usize,
    /// Distinct queries served, in turn.
    pub pool: usize,
    /// Offered rate of the fixed-rate open loop, requests per second.
    pub open_rate: f64,
    /// p90 limit of the SLO ladder, seconds.
    pub limit_s: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Pool queries compared against the naive reference.
    pub reference_samples: usize,
}

pub fn spec(workload: &str, smoke: bool) -> Option<Spec> {
    let (base, rows, open_rate, limit_s) = match workload {
        "rm1-sparse" => (configs::rm1(), 400_000, 110.0, 0.050),
        "rm3-dense" => (configs::rm3(), 200_000, 32.0, 0.150),
        _ => return None,
    };
    Some(if smoke {
        Spec {
            cfg: base.scaled_tables(3_000).with_num_tables(3),
            history: 20,
            pool: 8,
            open_rate: 50.0,
            limit_s: 0.5,
            setups: 2,
            reference_samples: 2,
        }
    } else {
        Spec {
            cfg: base.scaled_tables(rows),
            history: 200,
            pool: 128,
            open_rate,
            limit_s,
            setups: 3,
            reference_samples: 4,
        }
    })
}

/// Seeded inputs: an access history and a pool of queries to serve.
///
/// Lookups draw a Zipf rank at the model's locality `P` from the
/// tabulated CDF and map it through a per-table random permutation, so
/// hot rows are scattered over the table and only the observed history
/// can find them.
#[derive(Debug)]
pub struct Inputs {
    pub history: Vec<QueryBatch>,
    pub pool: Vec<QueryBatch>,
}

pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let cfg = &spec.cfg;
    let rows = cfg.tables[0].rows;
    assert!(
        cfg.tables.iter().all(|t| t.rows == rows),
        "tables share one size"
    );
    let cdf = LocalityTarget::new(cfg.locality_p).solve(rows).tabulate();
    let scrambles: Vec<Vec<u32>> = (0..cfg.tables.len())
        .map(|t| Rng::new(seed, 100 + t as u64).permutation(rows as u32))
        .collect();
    let mut rng = Rng::new(seed, 1);
    let mut query = || {
        let batch = cfg.batch_size;
        let dense_data = (0..batch * cfg.num_dense_features)
            .map(|_| rng.uniform() as f32)
            .collect();
        let dense = Matrix::from_vec(batch, cfg.num_dense_features, dense_data)
            .expect("sized by construction");
        let lookups = cfg
            .tables
            .iter()
            .zip(&scrambles)
            .map(|(t, scramble)| {
                let pooling = t.pooling as usize;
                let indices = (0..batch * pooling)
                    .map(|_| scramble[cdf.quantile(rng.uniform()) as usize - 1])
                    .collect();
                let offsets = (0..batch).map(|b| (b * pooling) as u32).collect();
                TableLookup::new(indices, offsets).expect("offsets are valid")
            })
            .collect();
        QueryBatch { dense, lookups }
    };
    let history = (0..spec.history).map(|_| query()).collect();
    let pool = (0..spec.pool).map(|_| query()).collect();
    Inputs { history, pool }
}

/// The model-weight seed of a run.
fn model_seed(seed: u64) -> u64 {
    Rng::new(seed, 2).next_u64()
}

/// The DP plan of one table from its observed counts, with the CPU-only
/// calibration's gather model and DP settings. The minimum allocation is
/// scaled by the table's size against the paper's 20M-row tables, so
/// the scaled-down tables split the way the full-size ones do.
fn plan_table(cfg: &ModelConfig, t: usize, counts: &[u64]) -> PartitionPlan {
    let calib = Calibration::cpu_only();
    let table = &cfg.tables[t];
    let vector_bytes = table.vector_bytes();
    let cdf = EmpiricalCdf::from_counts(counts);
    let hardware = AnalyticGatherModel::new(
        Secs::of(calib.sparse_base_secs),
        BytesPerSec::of(f64::from(calib.sparse_cores) * calib.gather_bytes_per_sec_per_core),
        Bytes::of_u64(vector_bytes),
    );
    let min_alloc =
        (calib.min_mem_alloc_bytes as f64 * table.rows as f64 / RM_TABLE_ROWS as f64) as u64;
    let n_t = (cfg.batch_size as u64 * u64::from(table.pooling)) as f64;
    let cost = CostModel::new(
        &cdf,
        &hardware,
        n_t,
        Bytes::of_u64(vector_bytes),
        Bytes::of_u64(min_alloc.max(vector_bytes)),
    )
    .with_target_traffic(Qps::of(calib.dp_target_traffic));
    partition_bucketed(table.rows, calib.s_max, calib.dp_candidates, |k, j| {
        cost.cost(k, j).raw()
    })
}

/// Seconds spent in each set-up step.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    init: f64,
    count: f64,
    plan: f64,
    shard: f64,
    total: f64,
}

struct Served {
    sharded: ShardedDlrm,
    ws: ForwardWorkspace,
    counts: Vec<Vec<u64>>,
    plans: Vec<PartitionPlan>,
}

/// One set-up: the program calls only, inputs made beforehand.
fn setup(spec: &Spec, seed: u64, inputs: &Inputs) -> (Served, SetupTimes) {
    let t0 = Instant::now();
    let model = Dlrm::with_seed(&spec.cfg, model_seed(seed));
    let t1 = Instant::now();
    let mut counter = AccessCounter::new(&spec.cfg);
    for q in &inputs.history {
        counter.observe(q);
    }
    let counts = counter.into_counts();
    let t2 = Instant::now();
    let plans: Vec<PartitionPlan> = counts
        .iter()
        .enumerate()
        .map(|(t, c)| plan_table(&spec.cfg, t, c))
        .collect();
    let t3 = Instant::now();
    let sharded = ShardedDlrm::new(model, &counts, plans.clone()).expect("plans fit the model");
    let t4 = Instant::now();
    let mut ws = sharded.workspace();
    for q in inputs.pool.iter().take(4) {
        black_box(sharded.forward_ws(q, &mut ws));
    }
    let t5 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        init: secs(t0, t1),
        count: secs(t1, t2),
        plan: secs(t2, t3),
        shard: secs(t3, t4),
        total: secs(t0, t5),
    };
    (
        Served {
            sharded,
            ws,
            counts,
            plans,
        },
        times,
    )
}

/// Runs the set-up `spec.setups` times, keeping the last model.
fn setups(spec: &Spec, seed: u64, inputs: &Inputs) -> (Served, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut served = None;
    for _ in 0..spec.setups {
        drop(served.take());
        let (s, t) = setup(spec, seed, inputs);
        times.push(t);
        served = Some(s);
    }
    (served.expect("at least one set-up"), times)
}

fn serve_one(served: &mut Served, pool: &[QueryBatch], i: u64) -> bool {
    let q = &pool[(i % pool.len() as u64) as usize];
    let out = served.sharded.forward_ws(q, &mut served.ws);
    let ok = reference::check_probabilities(out.as_slice()).is_ok();
    black_box(out);
    ok
}

/// Compares a sample of pool queries against the naive reference over a
/// freshly built (same-seed) monolithic model.
fn reference_checks(
    report: &mut Report,
    spec: &Spec,
    served: &mut Served,
    pool: &[QueryBatch],
    model: &Dlrm,
) {
    let reference = Reference::new(model);
    let stride = (pool.len() / spec.reference_samples).max(1);
    let mut result = Ok(());
    for k in 0..spec.reference_samples {
        let q = &pool[(k * stride) % pool.len()];
        let out = served.sharded.forward_ws(q, &mut served.ws);
        let expected = reference.forward(q);
        result = reference::check_probabilities(out.as_slice())
            .and_then(|()| reference::check_against_reference(out.as_slice(), &expected))
            .map_err(|e| format!("query {}: {e}", k * stride));
        if result.is_err() {
            break;
        }
    }
    report.check(
        &format!(
            "forward_ws matches the naive reference on {} queries (|diff| <= {:e})",
            spec.reference_samples,
            reference::TOLERANCE
        ),
        result,
    );
}

fn plan_note(plans: &[PartitionPlan]) -> String {
    let cuts: Vec<String> = plans.iter().map(|p| format!("{:?}", p.cuts())).collect();
    format!("plan cuts per table: {}", cuts.join(" "))
}

/// Runs the workload; with tracing on, returns the spans.
pub fn run(spec: &Spec, args: &RunArgs, report: &mut Report) -> Option<Tracer> {
    let inputs = inputs(spec, args.seed);
    let (mut served, times) = setups(spec, args.seed, &inputs);
    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", pick(|t| t.total));
    report.set("model.init_s", pick(|t| t.init));
    report.set("model.count_s", pick(|t| t.count));
    report.set("partition.plan_s", pick(|t| t.plan));
    report.set("core.shard_s", pick(|t| t.shard));
    let shard_mib = served.sharded.shard_param_bytes().raw() / f64::from(1 << 20);
    report.set("core.shard_param_mib", shard_mib);
    report.notes.push(plan_note(&served.plans));
    report.notes.push(format!(
        "model: {} tables x {} rows x dim {}, pooling {}, batch {}, locality P={}; \
         shard storage {shard_mib:.1} MiB",
        spec.cfg.tables.len(),
        spec.cfg.tables[0].rows,
        spec.cfg.tables[0].dim,
        spec.cfg.tables[0].pooling,
        spec.cfg.batch_size,
        spec.cfg.locality_p
    ));

    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed, 3);
    let pool = &inputs.pool;
    let batch = spec.cfg.batch_size as f64;
    let secs = args.seconds;

    let mut tracer = None;
    if args.trace {
        let model = Dlrm::with_seed(&spec.cfg, model_seed(args.seed));
        let mut traced = TracedPath::new(&model, &served.counts, &served.plans);
        let tr = traced_phase(report, spec, &mut served, &mut traced, pool, 0.55 * secs);
        drop(traced);
        tracer = Some(tr);
        let ol = load::open_loop(
            spec.open_rate,
            0.35 * secs,
            &mut rng,
            &mut tally,
            &mut |i| serve_one(&mut served, pool, i),
        );
        report.set(
            "serve.queue_wait_ms_p99",
            quantile(&ol.queue_wait, 0.99) * 1e3,
        );
        report.set("serve.gen_late_ms_p99", quantile(&ol.gen_late, 0.99) * 1e3);
        report.set("serve.lat_p99_ms", quantile(&ol.latency, 0.99) * 1e3);
        reference_checks(report, spec, &mut served, pool, &model);
        for name in [
            "core.plan_s",
            "core.sim_run_s",
            "sim.host_ns_per_rpc",
            "sim.queries",
            "sim.fanout_rpcs",
            "cluster.replica_changes",
            "cluster.peak_replicas",
        ] {
            report.set(name, 0.0);
        }
    } else {
        let mut serve = |i| serve_one(&mut served, pool, i);
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
        report.set("sim_queries_per_s", m.throughput * batch);
        report.set("peak_rss_mib", crate::host::peak_rss_mib());
        report.notes.push(m.note(spec.open_rate, spec.limit_s));
        let model = Dlrm::with_seed(&spec.cfg, model_seed(args.seed));
        reference_checks(report, spec, &mut served, pool, &model);
    }
    crate::tally_into(report, &tally);
    tracer
}

/// The forward pass rebuilt from the same public calls `forward_ws` makes,
/// with a span around each, over its own copy of the shard storage.
struct TracedPath {
    perms: Vec<HotnessPermutation>,
    plans: Vec<PartitionPlan>,
    shards: Vec<Vec<EmbeddingTable>>,
    bottom: Mlp,
    top: Mlp,
    row_bytes: Vec<u64>,
    sorted: Vec<u32>,
    buckets: BucketizedLookup,
    partial: Matrix,
    pooled: Vec<Matrix>,
    interacted: Matrix,
    mlp_a: Matrix,
    mlp_b: Matrix,
}

/// Counts one traced pass produced.
#[derive(Debug, Default, Clone, Copy)]
struct PassCounts {
    gathers: u64,
    gather_bytes: u64,
    hot_gathers: u64,
}

impl TracedPath {
    fn new(model: &Dlrm, counts: &[Vec<u64>], plans: &[PartitionPlan]) -> Self {
        let mut perms = Vec::new();
        let mut shards = Vec::new();
        for ((table, c), plan) in model.tables().iter().zip(counts).zip(plans) {
            let perm = HotnessPermutation::from_counts(c);
            let sorted = table.permuted(|pos| perm.to_original(pos), table.rows());
            shards.push(
                plan.shards()
                    .into_iter()
                    .map(|(k, j)| sorted.slice(k as u32, j as u32))
                    .collect(),
            );
            perms.push(perm);
        }
        let n = model.tables().len();
        Self {
            perms,
            plans: plans.to_vec(),
            shards,
            bottom: model.bottom_mlp().clone(),
            top: model.top_mlp().clone(),
            row_bytes: model
                .config()
                .tables
                .iter()
                .map(|t| t.vector_bytes())
                .collect(),
            sorted: Vec::new(),
            buckets: BucketizedLookup {
                indices: Vec::new(),
                offsets: Vec::new(),
            },
            partial: Matrix::zeros(1, 1),
            pooled: vec![Matrix::zeros(1, 1); n],
            interacted: Matrix::zeros(1, 1),
            mlp_a: Matrix::zeros(1, 1),
            mlp_b: Matrix::zeros(1, 1),
        }
    }

    fn forward(&mut self, q: &QueryBatch, tr: &mut Tracer, qid: u32) -> (Vec<f32>, PassCounts) {
        let mut counts = PassCounts::default();
        let root = tr.begin(Layer::Forward, NO_PARENT, qid);
        for (t, lookup) in q.lookups.iter().enumerate() {
            let s = tr.begin(Layer::Remap, root, qid);
            self.sorted.clear();
            let perm = &self.perms[t];
            self.sorted
                .extend(lookup.indices().iter().map(|&i| perm.to_sorted(i)));
            tr.end(s);

            let s = tr.begin(Layer::Bucketize, root, qid);
            bucketize_into(
                &self.sorted,
                lookup.offsets(),
                &self.plans[t],
                &mut self.buckets,
            );
            tr.end(s);

            let merge = tr.begin(Layer::Merge, root, qid);
            let dim = self.shards[t][0].dim() as usize;
            self.pooled[t].reshape_zeroed(lookup.num_inputs(), dim);
            for (s_idx, table) in self.shards[t].iter().enumerate() {
                let g = tr.begin(Layer::Gather, merge, qid);
                table.gather_pool_into(
                    &self.buckets.indices[s_idx],
                    &self.buckets.offsets[s_idx],
                    &mut self.partial,
                );
                tr.end(g);
                self.pooled[t]
                    .add_assign(&self.partial)
                    .expect("pooled and partial have one shape");
            }
            tr.end(merge);
            let n = self.buckets.indices.iter().map(Vec::len).sum::<usize>() as u64;
            counts.gathers += n;
            counts.gather_bytes += n * self.row_bytes[t];
            counts.hot_gathers += self.buckets.indices[0].len() as u64;
        }
        let s = tr.begin(Layer::BottomMlp, root, qid);
        let bottom = self
            .bottom
            .forward_into(&q.dense, &mut self.mlp_a, &mut self.mlp_b);
        tr.end(s);
        let s = tr.begin(Layer::Interaction, root, qid);
        dot_interaction_into(bottom, &self.pooled, &mut self.interacted);
        tr.end(s);
        let s = tr.begin(Layer::TopMlp, root, qid);
        let out = self
            .top
            .forward_into(&self.interacted, &mut self.mlp_a, &mut self.mlp_b);
        tr.end(s);
        tr.end(root);
        (out.as_slice().to_vec(), counts)
    }
}

/// Alternates an untimed-by-span `forward_ws` on one query (the untraced
/// service time) with a traced pass on the next, and checks every traced
/// pass against `forward_ws` on the same query, bit for bit.
fn traced_phase(
    report: &mut Report,
    spec: &Spec,
    served: &mut Served,
    traced: &mut TracedPath,
    pool: &[QueryBatch],
    secs: f64,
) -> Tracer {
    let mut tr = Tracer::new();
    let mut untraced = Vec::new();
    let mut counts = Vec::new();
    let mut mismatch = None;
    let t0 = Instant::now();
    let mut k = 0usize;
    while t0.elapsed().as_secs_f64() < secs || k < 4 {
        let a = &pool[(2 * k) % pool.len()];
        let b = &pool[(2 * k + 1) % pool.len()];
        let t = Instant::now();
        black_box(served.sharded.forward_ws(a, &mut served.ws));
        untraced.push(t.elapsed().as_secs_f64());
        let (out, c) = traced.forward(b, &mut tr, k as u32);
        counts.push(c);
        let served_out = served.sharded.forward_ws(b, &mut served.ws);
        if mismatch.is_none() {
            if let Err(e) = reference::check_bit_identical(&out, served_out.as_slice()) {
                mismatch = Some(format!("traced query {k}: {e}"));
            }
        }
        k += 1;
    }
    report.attempted += 2 * k as u64;
    report.check(
        &format!("traced pass reproduces forward_ws bit for bit on all {k} traced queries"),
        mismatch.map_or(Ok(()), Err),
    );

    let st = tr.self_times(k);
    let layer = |l: Layer| median(&st.iter().map(|q| q[l as usize]).collect::<Vec<_>>());
    let us = |l: Layer| layer(l) * 1e6;
    let bottom_flops = traced.bottom.flops(spec.cfg.batch_size) as f64;
    let top_flops = traced.top.flops(spec.cfg.batch_size) as f64;
    let gflops: Vec<f64> = st
        .iter()
        .map(|q| {
            (bottom_flops + top_flops)
                / (q[Layer::BottomMlp as usize] + q[Layer::TopMlp as usize])
                / 1e9
        })
        .collect();
    let gbps: Vec<f64> = st
        .iter()
        .zip(&counts)
        .map(|(q, c)| c.gather_bytes as f64 / q[Layer::Gather as usize] / 1e9)
        .collect();
    let totals: Vec<f64> = st.iter().map(|q| q.iter().sum::<f64>()).collect();
    let hot: u64 = counts.iter().map(|c| c.hot_gathers).sum();
    let all: u64 = counts.iter().map(|c| c.gathers).sum();
    let forward_us = median(&untraced) * 1e6;
    report.set("distribution.remap_us", us(Layer::Remap));
    report.set("partition.bucketize_us", us(Layer::Bucketize));
    report.set("model.gather_us", us(Layer::Gather));
    report.set("core.merge_us", us(Layer::Merge));
    report.set(
        "model.gather_bytes",
        median(
            &counts
                .iter()
                .map(|c| c.gather_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("model.gather_gbps", median(&gbps));
    report.set("partition.hot_shard_share", hot as f64 / all as f64);
    report.set("tensor.bottom_mlp_us", us(Layer::BottomMlp));
    report.set("tensor.top_mlp_us", us(Layer::TopMlp));
    report.set("tensor.mlp_gflops", median(&gflops));
    report.set("model.interaction_us", us(Layer::Interaction));
    report.set("core.forward_us", forward_us);
    report.set("trace.overhead_us", median(&totals) * 1e6 - forward_us);
    report.notes.push(format!(
        "traced {k} queries; traced pass {:.1} us vs untraced forward_ws {forward_us:.1} us; \
         remainder self time (loop and span bookkeeping) {:.1} us",
        median(&totals) * 1e6,
        us(Layer::Forward)
    ));
    tr
}
