//! Independent output checks.
//!
//! The serving reference is a naive DLRM written here: plain gather-sum
//! over the unsharded tables, row-by-row matmul with ReLU, pairwise dot
//! interaction and a sigmoid head, all accumulated in f64. It shares no
//! kernel with the serving path; the MLP weights are read out of the
//! model by pushing identity rows through each layer with its activation
//! replaced by the identity, which multiplies every weight by exactly 1.

use er_model::{Dlrm, QueryBatch};
use er_tensor::{Activation, Matrix, Mlp};

/// Largest absolute difference allowed between a served probability and
/// the f64 reference. The f32 path rounds at every sum; over RM3's
/// 2560-wide layers that stays below 1e-5 on these weights, so 1e-4
/// leaves room without hiding a wrong row, shard or table.
pub const TOLERANCE: f64 = 1e-4;

#[derive(Debug)]
struct NaiveLayer {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `in_dim x out_dim`.
    w: Vec<f64>,
    b: Vec<f64>,
    activation: Activation,
}

#[derive(Debug)]
pub struct NaiveMlp {
    layers: Vec<NaiveLayer>,
}

impl NaiveMlp {
    pub fn extract(mlp: &Mlp) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|layer| {
                let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
                let linear = layer.replace_activation(Activation::Identity);
                let b: Vec<f64> = linear
                    .forward(&Matrix::zeros(1, in_dim))
                    .row(0)
                    .iter()
                    .map(|&x| f64::from(x))
                    .collect();
                let probed = linear.forward(&Matrix::identity(in_dim));
                let mut w = Vec::with_capacity(in_dim * out_dim);
                for r in 0..in_dim {
                    w.extend(
                        probed
                            .row(r)
                            .iter()
                            .zip(&b)
                            .map(|(&x, &bj)| f64::from(x) - bj),
                    );
                }
                NaiveLayer {
                    in_dim,
                    out_dim,
                    w,
                    b,
                    activation: layer.activation(),
                }
            })
            .collect();
        Self { layers }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        for l in &self.layers {
            assert_eq!(h.len(), l.in_dim);
            let mut z = l.b.clone();
            for (i, &hi) in h.iter().enumerate() {
                let row = &l.w[i * l.out_dim..(i + 1) * l.out_dim];
                for (zj, &wij) in z.iter_mut().zip(row) {
                    *zj += hi * wij;
                }
            }
            for v in &mut z {
                *v = match l.activation {
                    Activation::Relu => v.max(0.0),
                    Activation::Sigmoid => 1.0 / (1.0 + (-*v).exp()),
                    Activation::Identity => *v,
                };
            }
            h = z;
        }
        h
    }
}

/// The naive reference model over a monolithic (unsharded) DLRM.
#[derive(Debug)]
pub struct Reference<'m> {
    model: &'m Dlrm,
    bottom: NaiveMlp,
    top: NaiveMlp,
}

impl<'m> Reference<'m> {
    pub fn new(model: &'m Dlrm) -> Self {
        Self {
            model,
            bottom: NaiveMlp::extract(model.bottom_mlp()),
            top: NaiveMlp::extract(model.top_mlp()),
        }
    }

    /// The click probability of every row of `q`.
    pub fn forward(&self, q: &QueryBatch) -> Vec<f64> {
        let tables = self.model.tables();
        (0..q.batch_size())
            .map(|r| {
                let dense: Vec<f64> = q.dense.row(r).iter().map(|&x| f64::from(x)).collect();
                let mut latent = vec![self.bottom.forward(&dense)];
                for (table, lookup) in tables.iter().zip(&q.lookups) {
                    let mut pooled = vec![0.0f64; table.dim() as usize];
                    for &id in lookup.indices_for(r) {
                        for (p, &x) in pooled.iter_mut().zip(table.vector(id)) {
                            *p += f64::from(x);
                        }
                    }
                    latent.push(pooled);
                }
                let mut features = latent[0].clone();
                for i in 0..latent.len() {
                    for j in i + 1..latent.len() {
                        features.push(latent[i].iter().zip(&latent[j]).map(|(a, b)| a * b).sum());
                    }
                }
                self.top.forward(&features)[0]
            })
            .collect()
    }
}

/// Every output is a finite probability in [0, 1]: the inline check on
/// every served request, where no reference is at hand. A sigmoid in f32
/// rounds to exactly 0 or 1 once the logit passes about 17, so the open
/// interval is checked against the reference instead.
pub fn check_probabilities(out: &[f32]) -> Result<(), String> {
    match out
        .iter()
        .position(|p| !(p.is_finite() && (0.0..=1.0).contains(p)))
    {
        Some(i) => Err(format!("output {i} = {} is not a probability", out[i])),
        None => Ok(()),
    }
}

/// Served outputs match the reference within [`TOLERANCE`], and lie
/// strictly inside (0, 1) unless the reference itself rounds to 0 or 1
/// in f32.
pub fn check_against_reference(out: &[f32], reference: &[f64]) -> Result<(), String> {
    if out.len() != reference.len() {
        return Err(format!(
            "served {} outputs, reference has {}",
            out.len(),
            reference.len()
        ));
    }
    for (i, (&o, &r)) in out.iter().zip(reference).enumerate() {
        let inside = o > 0.0 && o < 1.0;
        let saturated = o == r as f32 && (o == 0.0 || o == 1.0);
        if !(inside || saturated) {
            return Err(format!("output {i} = {o} is not in (0, 1); reference {r}"));
        }
        let diff = (f64::from(o) - r).abs();
        // A NaN difference fails too.
        if diff.is_nan() || diff > TOLERANCE {
            return Err(format!(
                "output {i}: served {o} vs reference {r} (|diff| {diff:e} > {TOLERANCE:e})"
            ));
        }
    }
    Ok(())
}

/// Two outputs agree bit for bit.
pub fn check_bit_identical(a: &[f32], b: &[f32]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("lengths differ: {} vs {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => Err(format!("output {i} differs: {} vs {}", a[i], b[i])),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_probabilities_fail() {
        assert!(check_probabilities(&[0.2, 0.7, 1.0]).is_ok());
        for bad in [1.5, -0.1, f32::NAN, f32::INFINITY] {
            assert!(check_probabilities(&[0.2, bad]).is_err(), "{bad} passed");
        }
    }

    #[test]
    fn corrupted_outputs_fail_the_reference_check() {
        let reference = [0.25f64, 0.5];
        assert!(check_against_reference(&[0.25, 0.5], &reference).is_ok());
        assert!(check_against_reference(&[0.25, 0.501], &reference).is_err());
        assert!(check_against_reference(&[0.25, f32::NAN], &reference).is_err());
        assert!(check_against_reference(&[0.25], &reference).is_err());
        // Exactly 1 only where the reference rounds to 1 in f32.
        assert!(check_against_reference(&[1.0], &[1.0 - 1e-9]).is_ok());
        assert!(check_against_reference(&[1.0], &[1.0 - 5e-5]).is_err());
    }

    #[test]
    fn a_flipped_bit_fails_bit_identity() {
        let a = [0.25f32, 0.5];
        let mut b = a;
        assert!(check_bit_identical(&a, &b).is_ok());
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert!(check_bit_identical(&a, &b).is_err());
    }

    #[test]
    fn extracted_weights_reproduce_the_layer() {
        let mlp = Mlp::with_seed(5, &[7, 3], Activation::Relu, 9)
            .with_output_activation(Activation::Sigmoid);
        let naive = NaiveMlp::extract(&mlp);
        let x = Matrix::from_vec(1, 5, vec![0.1, -0.4, 0.3, 0.9, -0.2]).unwrap();
        let served = mlp.forward(&x);
        let xs: Vec<f64> = x.row(0).iter().map(|&v| f64::from(v)).collect();
        let refd = naive.forward(&xs);
        for (s, r) in served.row(0).iter().zip(&refd) {
            assert!((f64::from(*s) - r).abs() < 1e-6, "{s} vs {r}");
        }
    }
}
