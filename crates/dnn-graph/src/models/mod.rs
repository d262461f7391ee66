//! Programmatic builders for the eight DNN workloads evaluated in the paper
//! (Table I), plus small synthetic networks used in tests and examples.
//!
//! Layer-count convention: the graphs contain every *scheduled* operator —
//! convolutions, fully-connected layers, pooling, global pooling, residual
//! additions, concatenations and squeeze-and-excitation ops. Inference-mode
//! BatchNorm and activations are folded into their producing layer (they are
//! fused element-wise post-processing on the engine's vector unit and never
//! scheduled separately), so our node counts are lower than the paper's
//! Table I, which counts BN/ReLU as layers. Shapes, topology and MAC counts —
//! the inputs that actually drive scheduling — follow the published
//! architectures.

mod efficientnet;
mod inception;
mod nasnet;
mod random;
mod resnet;
mod vgg;

pub use efficientnet::efficientnet;
pub use inception::inception_v3;
pub use nasnet::{nasnet, pnasnet};
pub use random::{random, RandomGraphConfig};
pub use resnet::{resnet1001, resnet152, resnet50};
pub use vgg::vgg19;

use std::sync::OnceLock;

use crate::{ConvParams, Graph, PoolParams, TensorShape};

/// Names of the eight paper workloads, in the paper's Table I order.
pub const PAPER_WORKLOADS: [&str; 8] = [
    "vgg19",
    "resnet50",
    "resnet152",
    "resnet1001",
    "inception_v3",
    "nasnet",
    "pnasnet",
    "efficientnet",
];

/// Builds one registered model.
type Builder = fn() -> Graph;

/// Every model [`by_name`] builds, in one list: [`shared`] keeps model `i`
/// in slot `i` of its cache.
const REGISTRY: [(&str, Builder); 10] = [
    ("vgg19", vgg19),
    ("resnet50", resnet50),
    ("resnet152", resnet152),
    ("resnet1001", resnet1001),
    ("inception_v3", inception_v3),
    ("nasnet", nasnet),
    ("pnasnet", pnasnet),
    ("efficientnet", efficientnet),
    ("tiny_cnn", tiny_cnn),
    ("tiny_branchy", tiny_branchy),
];

/// The registered models, each built on its first [`shared`] call.
static SHARED: [OnceLock<Graph>; REGISTRY.len()] = [const { OnceLock::new() }; REGISTRY.len()];

fn registry_slot(name: &str) -> Option<usize> {
    REGISTRY.iter().position(|(n, _)| *n == name)
}

/// Builds a paper workload by name.
///
/// Accepted names are the entries of [`PAPER_WORKLOADS`] plus the synthetic
/// `"tiny_cnn"` and `"tiny_branchy"`.
pub fn by_name(name: &str) -> Option<Graph> {
    registry_slot(name).map(|i| (REGISTRY[i].1)())
}

/// The model [`by_name`] builds, built once per process and shared.
///
/// The first call for a name builds the graph; every later call returns
/// the same graph, whose [`Graph::canonical_fingerprint`] is then also
/// computed only once. Nothing is built before a name is first asked for.
/// Unknown names give `None`, as in [`by_name`].
pub fn shared(name: &str) -> Option<&'static Graph> {
    registry_slot(name).map(|i| SHARED[i].get_or_init(REGISTRY[i].1))
}

/// All eight paper workloads (expensive to build for the NAS networks).
#[allow(clippy::expect_used)] // the list only names registered models
pub fn all_paper_workloads() -> Vec<Graph> {
    PAPER_WORKLOADS
        .iter()
        // `PAPER_WORKLOADS` only lists names `by_name` resolves.
        .map(|n| by_name(n).expect("known name")) // ad-lint: allow(panic)
        .collect()
}

/// A small strictly-linear CNN (VGG-like) for fast tests: 4 convolutions,
/// 2 pools and a classifier on a 32×32×3 input.
pub fn tiny_cnn() -> Graph {
    let mut g = Graph::new("tiny_cnn");
    let x = g.add_input(TensorShape::new(32, 32, 3));
    let c1 = g.add_conv("conv1", x, ConvParams::new(3, 1, 1, 16));
    let c2 = g.add_conv("conv2", c1, ConvParams::new(3, 1, 1, 16));
    let p1 = g.add_pool("pool1", c2, PoolParams::max(2, 2));
    let c3 = g.add_conv("conv3", p1, ConvParams::new(3, 1, 1, 32));
    let c4 = g.add_conv("conv4", c3, ConvParams::new(3, 1, 1, 32));
    let p2 = g.add_pool("pool2", c4, PoolParams::max(2, 2));
    let gap = g.add_gap("gap", p2);
    g.add_fc("fc", gap, 10);
    g
}

/// A small residual/branching network for fast tests: two parallel branches
/// joined by an `Add`, then a concat cell — exercising the same-depth and
/// dependent-layer parallelism types of Fig. 6.
pub fn tiny_branchy() -> Graph {
    let mut g = Graph::new("tiny_branchy");
    let x = g.add_input(TensorShape::new(32, 32, 8));
    let stem = g.add_conv("stem", x, ConvParams::new(3, 1, 1, 16));
    // Residual block.
    let a = g.add_conv("b1_a", stem, ConvParams::new(3, 1, 1, 16));
    let b = g.add_conv("b1_b", a, ConvParams::new(3, 1, 1, 16));
    let add = g.add_add("b1_add", &[stem, b]);
    // Branching cell.
    let l = g.add_conv("cell_l", add, ConvParams::new(1, 1, 0, 8));
    let m = g.add_conv("cell_m", add, ConvParams::new(3, 1, 1, 8));
    let r = g.add_pool("cell_r", add, PoolParams::avg(3, 1).with_pad(1));
    let cat = g.add_concat("cell_cat", &[l, m, r]);
    let gap = g.add_gap("gap", cat);
    g.add_fc("fc", gap, 10);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_and_validate() {
        for name in PAPER_WORKLOADS {
            let g = by_name(name).unwrap();
            assert!(g.validate().is_ok(), "{name} failed validation");
            assert_eq!(g.inputs().len(), 1, "{name} should have one input");
            assert!(!g.outputs().is_empty(), "{name} has no outputs");
        }
    }

    #[test]
    fn workload_scale_sanity() {
        // MAC counts should be in the right ballpark for the published
        // architectures (±~40%): VGG-19 ≈ 19.6G, ResNet-50 ≈ 4.1G.
        let vgg = vgg19();
        let s = vgg.stats();
        assert!(
            s.macs > 15_000_000_000 && s.macs < 25_000_000_000,
            "vgg19 macs={}",
            s.macs
        );
        assert!(
            s.params > 120_000_000 && s.params < 160_000_000,
            "vgg19 params={}",
            s.params
        );

        let r50 = resnet50();
        let s = r50.stats();
        assert!(
            s.macs > 3_000_000_000 && s.macs < 5_500_000_000,
            "r50 macs={}",
            s.macs
        );
        assert!(
            s.params > 20_000_000 && s.params < 30_000_000,
            "r50 params={}",
            s.params
        );
    }

    #[test]
    fn structural_characteristics() {
        // Table I "characteristics": residual bypass / branching / NAS wiring.
        let r50 = resnet50();
        let has_add = r50.layers().any(|l| matches!(l.op(), crate::OpKind::Add));
        assert!(has_add, "resnet50 must contain residual adds");

        let inc = inception_v3();
        let has_cat = inc
            .layers()
            .any(|l| matches!(l.op(), crate::OpKind::Concat));
        assert!(has_cat, "inception must contain concats");

        // VGG is strictly layer-cascaded: every non-input layer has 1 pred.
        let vgg = vgg19();
        for l in vgg.layers() {
            assert!(vgg.preds(l.id()).len() <= 1, "vgg should be linear");
        }
    }

    #[test]
    fn depth_ordering_respects_edges() {
        let g = nasnet();
        let d = g.depths();
        for (p, c) in g.edges() {
            assert!(d[p.index()] < d[c.index()]);
        }
    }

    #[test]
    fn by_name_unknown() {
        assert!(by_name("alexnet").is_none());
    }

    #[test]
    fn shared_models_are_built_once_and_match_by_name() {
        // A shifted slot would answer one name with another model, and a
        // daemon would then serve that model's plan. Four threads race to
        // build each model first.
        for (name, _) in REGISTRY {
            let from_threads: Vec<usize> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| s.spawn(move || std::ptr::from_ref(shared(name).unwrap()) as usize))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let first = shared(name).unwrap();
            for p in from_threads {
                assert_eq!(p, std::ptr::from_ref(first) as usize, "{name}");
            }
            assert!(std::ptr::eq(first, shared(name).unwrap()), "{name}");
            let built = by_name(name).unwrap();
            assert_eq!(first.name(), built.name(), "{name}");
            assert_eq!(first.name(), name);
            assert_eq!(
                first.canonical_fingerprint(),
                built.canonical_fingerprint(),
                "{name}"
            );
        }
        assert!(shared("alexnet").is_none());
        assert!(shared("").is_none());
    }
}
