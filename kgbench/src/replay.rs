//! Kernel replay: the public tensor and nn calls one RGCN layer makes per
//! epoch, timed one by one at a workload's graph shape. Training calls
//! them inside `train_rgcn_nc`, where the benchmark cannot put spans, so
//! the traced run replays them instead.

use kgtosa_kg::{HeteroGraph, Rid};
use kgtosa_nn::{mean_aggregate, RgcnLayer};
use kgtosa_tensor::{uniform, Adam, AdamConfig, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{stats, trace, Outcome};

const REPS: usize = 5;

fn timed<T>(name: &str, times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let _s = trace::span(name);
    let t = std::time::Instant::now();
    let out = std::hint::black_box(f());
    times.push(crate::since(t));
    out
}

/// Replays the forward calls at `g`'s shape with `dim`-wide features,
/// and with `backward` also the weight gradient, the layer backward pass
/// and the optimizer step over the embedding table.
pub fn replay(o: &mut Outcome, g: &HeteroGraph, dim: usize, backward: bool) {
    let _s = trace::span("replay");
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(0x7e91a7);
    let layer = RgcnLayer::new(g.num_relations(), dim, dim, true, &mut rng);
    let h = uniform(n, dim, 1.0, &mut rng);
    let grad = uniform(n, dim, 1.0, &mut rng);
    let mut agg = Matrix::zeros(n, dim);
    let mut param = uniform(n, dim, 1.0, &mut rng);
    let mut adam = Adam::new(n * dim, AdamConfig::default());
    let (mut mm, mut ma, mut fw, mut tm, mut bw, mut ad) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for _ in 0..REPS {
        timed("tensor.matmul", &mut mm, || h.matmul(&layer.w_self));
        timed("nn.mean_aggregate", &mut ma, || {
            for r in 0..g.num_relations() {
                let adj = g.relation(Rid(r as u32));
                mean_aggregate(&adj.inc, &h, &mut agg);
                mean_aggregate(&adj.out, &h, &mut agg);
            }
        });
        let (_, cache) = timed("nn.RgcnLayer::forward", &mut fw, || layer.forward(g, &h));
        if backward {
            timed("tensor.t_matmul", &mut tm, || h.t_matmul(&grad));
            let grad_out = grad.clone();
            timed("nn.RgcnLayer::backward", &mut bw, || {
                layer.backward(g, &h, &cache, grad_out)
            });
            timed("tensor.Adam::step", &mut ad, || {
                adam.step(&mut param, &grad)
            });
        }
    }
    o.layer("tensor.matmul_s", stats::median(&mm));
    o.layer("nn.mean_aggregate_s", stats::median(&ma));
    o.layer("nn.rgcn_forward_s", stats::median(&fw));
    if backward {
        o.layer("tensor.t_matmul_s", stats::median(&tm));
        o.layer("nn.rgcn_backward_s", stats::median(&bw));
        o.layer("tensor.adam_s", stats::median(&ad));
    }
}
