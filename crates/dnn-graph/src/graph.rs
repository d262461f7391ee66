use std::collections::HashMap;
use std::fmt;

use ad_util::cast::u32_from_usize;

use crate::layer::Layer;
use crate::op::{Activation, ConvParams, OpKind, PoolKind, PoolParams};
use crate::shape::TensorShape;
use crate::stats::GraphStats;

/// Index of a layer within its [`Graph`].
///
/// Ids are dense (`0..layer_count()`) and assigned in insertion order, which
/// is also a valid topological order because edges may only point to
/// already-inserted layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub u32);

impl LayerId {
    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Errors produced when constructing an ill-formed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A referenced producer layer does not exist in this graph.
    UnknownLayer(LayerId),
    /// The operator requires at least this many inputs.
    ArityMismatch {
        /// Operator mnemonic.
        op: &'static str,
        /// Inputs the operator needs.
        expected: usize,
        /// Inputs that were supplied.
        got: usize,
    },
    /// Producer shapes are incompatible with the operator.
    ShapeMismatch {
        /// Layer name being added.
        layer: String,
        /// Explanation of the incompatibility.
        reason: String,
    },
    /// Two layers share a name; names must be unique for lookup.
    DuplicateName(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownLayer(id) => write!(f, "unknown producer layer {id}"),
            GraphError::ArityMismatch { op, expected, got } => {
                write!(
                    f,
                    "operator {op} expects at least {expected} inputs, got {got}"
                )
            }
            GraphError::ShapeMismatch { layer, reason } => {
                write!(f, "shape mismatch at layer `{layer}`: {reason}")
            }
            GraphError::DuplicateName(name) => write!(f, "duplicate layer name `{name}`"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A DNN inference workload: a directed acyclic graph of [`Layer`]s.
///
/// Construction is incremental and validating — every `add_*` method infers
/// the output shape from the producers and returns the new layer's id.
/// Convenience builders panic on wiring errors (models are static, so an
/// error is a bug in the model description); [`Graph::try_add_layer`] is the
/// fallible primitive beneath them.
///
/// ```rust
/// use dnn_graph::{ConvParams, Graph, TensorShape};
///
/// let mut g = Graph::new("tiny");
/// let x = g.add_input(TensorShape::new(32, 32, 3));
/// let c = g.add_conv("conv1", x, ConvParams::new(3, 1, 1, 16));
/// let p = g.add_pool("pool1", c, dnn_graph::PoolParams::max(2, 2));
/// let f = g.add_fc("fc", p, 10);
/// assert_eq!(g.layer(f).out_shape().c, 10);
/// assert!(g.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    layers: Vec<Layer>,
    preds: Vec<Vec<LayerId>>,
    succs: Vec<Vec<LayerId>>,
    by_name: HashMap<String, LayerId>,
}

impl Graph {
    /// Creates an empty graph with the given workload name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Workload name (e.g. `"resnet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers (graph nodes), inputs included.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a layer of this graph.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Looks a layer up by its unique name.
    pub fn layer_by_name(&self, name: &str) -> Option<&Layer> {
        self.by_name.get(name).map(|id| self.layer(*id))
    }

    /// All layers in insertion (= topological) order.
    pub fn layers(&self) -> impl Iterator<Item = &Layer> {
        self.layers.iter()
    }

    /// Direct producers of `id`.
    pub fn preds(&self, id: LayerId) -> &[LayerId] {
        &self.preds[id.index()]
    }

    /// Direct consumers of `id`.
    pub fn succs(&self, id: LayerId) -> &[LayerId] {
        &self.succs[id.index()]
    }

    /// Every edge `(producer, consumer)` of the DAG.
    pub fn edges(&self) -> impl Iterator<Item = (LayerId, LayerId)> + '_ {
        self.layers
            .iter()
            .flat_map(move |l| self.preds(l.id()).iter().map(move |p| (*p, l.id())))
    }

    /// Ids of all `Input` layers.
    pub fn inputs(&self) -> Vec<LayerId> {
        self.layers
            .iter()
            .filter(|l| l.op().is_input())
            .map(|l| l.id())
            .collect()
    }

    /// Ids of all sink layers (no consumers).
    pub fn outputs(&self) -> Vec<LayerId> {
        self.layers
            .iter()
            .filter(|l| self.succs(l.id()).is_empty())
            .map(|l| l.id())
            .collect()
    }

    /// A topological order of layer ids. Insertion order already is one, so
    /// this is simply `0..n`, but callers should not rely on that detail.
    pub fn topo_order(&self) -> Vec<LayerId> {
        (0..u32_from_usize(self.layers.len()))
            .map(LayerId)
            .collect()
    }

    /// Longest-path depth of every layer from the graph sources, as defined
    /// in Sec. IV-B of the paper: layers at the same depth can run in
    /// parallel once shallower depths have finished.
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.layers.len()];
        for id in self.topo_order() {
            let d = self
                .preds(id)
                .iter()
                .map(|p| depth[p.index()] + 1)
                .max()
                .unwrap_or(0);
            depth[id.index()] = d;
        }
        depth
    }

    /// Aggregate workload statistics (layer/MAC/parameter counts).
    pub fn stats(&self) -> GraphStats {
        GraphStats::of(self)
    }

    /// A stable content hash of the graph's *canonical form*: the same
    /// workload produces the same fingerprint regardless of layer names,
    /// graph name, or the particular topological insertion order used to
    /// build it. This is the graph half of the plan cache key.
    ///
    /// Each node is hashed bottom-up Merkle-style: operator tag + hyper-
    /// parameters, output shape, and the hashes of its producers. Producer
    /// hashes are sorted for order-insensitive operators (`Add` — addition
    /// commutes) and kept in edge order where the order is semantic
    /// (`Concat` concatenates channels in edge order; `ChannelScale`
    /// distinguishes feature map from gate). The graph digest is the sorted
    /// multiset of node hashes, so insertion order cannot leak in. Batch is
    /// not part of the graph and lives in the config fingerprint.
    pub fn canonical_fingerprint(&self) -> ad_util::Fingerprint {
        let mut node_hash = vec![0u64; self.layers.len()];
        for id in self.topo_order() {
            let l = self.layer(id);
            let mut h = ad_util::FpHasher::new();
            hash_op(&mut h, l.op());
            let s = l.out_shape();
            h.write_usize(s.h);
            h.write_usize(s.w);
            h.write_usize(s.c);
            let mut preds: Vec<u64> = self
                .preds(id)
                .iter()
                .map(|p| node_hash[p.index()])
                .collect();
            if !matches!(l.op(), OpKind::Concat | OpKind::ChannelScale) {
                preds.sort_unstable();
            }
            h.write_usize(preds.len());
            for p in preds {
                h.write_u64(p);
            }
            node_hash[id.index()] = h.finish().0;
        }
        node_hash.sort_unstable();
        let mut h = ad_util::FpHasher::new();
        h.write_usize(node_hash.len());
        for n in node_hash {
            h.write_u64(n);
        }
        h.finish()
    }

    /// Re-checks structural invariants: dense ids, unique names, edge
    /// symmetry, acyclicity-by-construction and per-layer shape consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. A graph built exclusively
    /// through the `add_*` API never fails validation.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, l) in self.layers.iter().enumerate() {
            if l.id().index() != i {
                return Err(GraphError::UnknownLayer(l.id()));
            }
            for p in self.preds(l.id()) {
                if p.index() >= i {
                    return Err(GraphError::ShapeMismatch {
                        layer: l.name().to_string(),
                        reason: format!("edge from {p} does not respect insertion order"),
                    });
                }
                if !self.succs(*p).contains(&l.id()) {
                    return Err(GraphError::ShapeMismatch {
                        layer: l.name().to_string(),
                        reason: format!("asymmetric edge from {p}"),
                    });
                }
            }
            if l.op().is_input() {
                continue; // Input shapes are user-supplied, not inferred.
            }
            let shapes: Vec<TensorShape> = self
                .preds(l.id())
                .iter()
                .map(|p| self.layer(*p).out_shape())
                .collect();
            let expect = infer_shape(l.name(), l.op(), &shapes)?;
            if expect != l.out_shape() {
                return Err(GraphError::ShapeMismatch {
                    layer: l.name().to_string(),
                    reason: format!("stored shape {} != inferred {}", l.out_shape(), expect),
                });
            }
        }
        Ok(())
    }

    // ---- builders ---------------------------------------------------------

    /// Adds a network input of the given shape.
    #[allow(clippy::expect_used)] // documented infallible wiring
    pub fn add_input(&mut self, shape: TensorShape) -> LayerId {
        let n = self.by_name.len();
        let id = self
            .try_add_layer(format!("input{n}"), OpKind::Input, &[])
            // Input layers have no producers, so wiring cannot fail.
            // ad-lint: allow(panic)
            .expect("adding an input cannot fail");
        // Patch the shape: Input has no producers to infer from.
        self.layers[id.index()].in_shape = shape;
        self.layers[id.index()].out_shape = shape;
        id
    }

    /// Adds any operator, inferring and validating shapes.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when producers are unknown, arity is wrong,
    /// shapes are incompatible, or the name is already taken.
    pub fn try_add_layer(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: &[LayerId],
    ) -> Result<LayerId, GraphError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        for p in inputs {
            if p.index() >= self.layers.len() {
                return Err(GraphError::UnknownLayer(*p));
            }
        }
        let shapes: Vec<TensorShape> = inputs.iter().map(|p| self.layer(*p).out_shape()).collect();
        let out_shape = infer_shape(&name, op, &shapes)?;
        let in_shape = shapes.first().copied().unwrap_or(out_shape);

        let id = LayerId(u32_from_usize(self.layers.len()));
        self.layers.push(Layer {
            id,
            name: name.clone(),
            op,
            in_shape,
            out_shape,
        });
        self.preds.push(inputs.to_vec());
        self.succs.push(Vec::new());
        for p in inputs {
            self.succs[p.index()].push(id);
        }
        self.by_name.insert(name, id);
        Ok(id)
    }

    #[allow(clippy::expect_used)] // documented panicking contract
    fn add_unary(&mut self, name: impl Into<String>, op: OpKind, input: LayerId) -> LayerId {
        self.try_add_layer(name, op, &[input])
            .expect("model builder wiring error") // ad-lint: allow(panic)
    }

    /// Adds a convolution. Panics on wiring errors (see [`Graph::try_add_layer`]).
    pub fn add_conv(&mut self, name: impl Into<String>, input: LayerId, p: ConvParams) -> LayerId {
        self.add_unary(name, OpKind::Conv(p), input)
    }

    /// Adds a fully-connected layer.
    pub fn add_fc(&mut self, name: impl Into<String>, input: LayerId, out: usize) -> LayerId {
        self.add_unary(name, OpKind::Fc { out_features: out }, input)
    }

    /// Adds a pooling layer.
    pub fn add_pool(&mut self, name: impl Into<String>, input: LayerId, p: PoolParams) -> LayerId {
        self.add_unary(name, OpKind::Pool(p), input)
    }

    /// Adds a global average pooling layer.
    pub fn add_gap(&mut self, name: impl Into<String>, input: LayerId) -> LayerId {
        self.add_unary(name, OpKind::GlobalAvgPool, input)
    }

    /// Adds an element-wise activation.
    pub fn add_act(&mut self, name: impl Into<String>, input: LayerId, a: Activation) -> LayerId {
        self.add_unary(name, OpKind::Act(a), input)
    }

    /// Adds an inference-mode batch-normalization layer.
    pub fn add_bn(&mut self, name: impl Into<String>, input: LayerId) -> LayerId {
        self.add_unary(name, OpKind::BatchNorm, input)
    }

    /// Adds an element-wise addition over ≥ 2 equal-shaped producers.
    #[allow(clippy::expect_used)] // documented panicking contract
    pub fn add_add(&mut self, name: impl Into<String>, inputs: &[LayerId]) -> LayerId {
        self.try_add_layer(name, OpKind::Add, inputs)
            .expect("model builder wiring error") // ad-lint: allow(panic)
    }

    /// Adds a channel concatenation over ≥ 2 producers with equal `H × W`.
    #[allow(clippy::expect_used)] // documented panicking contract
    pub fn add_concat(&mut self, name: impl Into<String>, inputs: &[LayerId]) -> LayerId {
        self.try_add_layer(name, OpKind::Concat, inputs)
            .expect("model builder wiring error") // ad-lint: allow(panic)
    }

    /// Adds a channel-wise scale: `inputs[0]` is the feature map, `inputs[1]`
    /// a `1×1×C` gating vector (squeeze-and-excitation multiply).
    #[allow(clippy::expect_used)] // documented panicking contract
    pub fn add_scale(&mut self, name: impl Into<String>, fmap: LayerId, gate: LayerId) -> LayerId {
        self.try_add_layer(name, OpKind::ChannelScale, &[fmap, gate])
            .expect("model builder wiring error") // ad-lint: allow(panic)
    }

    /// Renders the graph in Graphviz DOT format (node label: name, op and
    /// output shape), for visual inspection of model-zoo topologies.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n  rankdir=TB;\n", self.name));
        out.push_str("  node [shape=box, fontsize=10];\n");
        for l in self.layers() {
            out.push_str(&format!(
                "  L{} [label=\"{}\\n{} {}\"];\n",
                l.id().0,
                l.name(),
                l.op(),
                l.out_shape()
            ));
        }
        for (p, c) in self.edges() {
            out.push_str(&format!("  L{} -> L{};\n", p.0, c.0));
        }
        out.push_str("}\n");
        out
    }
}

/// Feeds an operator's identity (variant tag + every hyper-parameter) into
/// the canonical-form hasher. Tags are part of the fingerprint contract:
/// renumbering them changes every pinned golden digest.
fn hash_op(h: &mut ad_util::FpHasher, op: OpKind) {
    match op {
        OpKind::Input => h.write_u64(0),
        OpKind::Conv(p) => {
            h.write_u64(1);
            h.write_usize(p.kh);
            h.write_usize(p.kw);
            h.write_usize(p.stride);
            h.write_usize(p.pad);
            h.write_usize(p.out_channels);
            h.write_usize(p.groups);
        }
        OpKind::Fc { out_features } => {
            h.write_u64(2);
            h.write_usize(out_features);
        }
        OpKind::Pool(p) => {
            h.write_u64(3);
            h.write_u64(match p.kind {
                PoolKind::Max => 0,
                PoolKind::Avg => 1,
            });
            h.write_usize(p.k);
            h.write_usize(p.stride);
            h.write_usize(p.pad);
        }
        OpKind::GlobalAvgPool => h.write_u64(4),
        OpKind::Add => h.write_u64(5),
        OpKind::Concat => h.write_u64(6),
        OpKind::Act(a) => {
            h.write_u64(7);
            h.write_u64(match a {
                Activation::Relu => 0,
                Activation::Sigmoid => 1,
                Activation::Swish => 2,
            });
        }
        OpKind::BatchNorm => h.write_u64(8),
        OpKind::ChannelScale => h.write_u64(9),
    }
}

/// Infers the output shape of `op` applied to producers with `shapes`.
fn infer_shape(name: &str, op: OpKind, shapes: &[TensorShape]) -> Result<TensorShape, GraphError> {
    let mismatch = |reason: String| GraphError::ShapeMismatch {
        layer: name.to_string(),
        reason,
    };
    let need = |n: usize, op: &'static str| -> Result<(), GraphError> {
        if shapes.len() < n {
            Err(GraphError::ArityMismatch {
                op,
                expected: n,
                got: shapes.len(),
            })
        } else {
            Ok(())
        }
    };

    match op {
        OpKind::Input => {
            // Placeholder; patched by `add_input`.
            Ok(*shapes.first().unwrap_or(&TensorShape { h: 1, w: 1, c: 1 }))
        }
        OpKind::Conv(p) => {
            need(1, "conv")?;
            let s = shapes[0];
            if p.stride == 0 || p.out_channels == 0 {
                return Err(mismatch(format!(
                    "stride {} and C_o {} must be non-zero",
                    p.stride, p.out_channels
                )));
            }
            if p.groups == 0 || s.c % p.groups != 0 {
                return Err(mismatch(format!(
                    "groups {} do not divide C_i {}",
                    p.groups, s.c
                )));
            }
            if p.groups > 1 && p.out_channels % p.groups != 0 {
                return Err(mismatch(format!(
                    "groups {} do not divide C_o {}",
                    p.groups, p.out_channels
                )));
            }
            let (h, w) = if p.kh != p.kw {
                // Rectangular kernels (Inception 1×7 / 7×1) use stride-1
                // "same" padding.
                if p.stride != 1 {
                    return Err(mismatch("rectangular kernels require stride 1".into()));
                }
                (s.h, s.w)
            } else {
                match (
                    ConvParams::out_extent(s.h, p.kh, p.stride, p.pad),
                    ConvParams::out_extent(s.w, p.kw, p.stride, p.pad),
                ) {
                    (Some(h), Some(w)) => (h, w),
                    _ => {
                        return Err(mismatch(format!(
                            "kernel {}x{} does not fit input {} padded by {}",
                            p.kh, p.kw, s, p.pad
                        )))
                    }
                }
            };
            Ok(TensorShape::new(h, w, p.out_channels))
        }
        OpKind::Fc { out_features } => {
            need(1, "fc")?;
            if out_features == 0 {
                return Err(mismatch("fc needs at least one output feature".into()));
            }
            Ok(TensorShape::vector(out_features))
        }
        OpKind::Pool(p) => {
            need(1, "pool")?;
            let s = shapes[0];
            if p.stride == 0 {
                return Err(mismatch("pool stride must be non-zero".into()));
            }
            match (
                ConvParams::out_extent(s.h, p.k, p.stride, p.pad),
                ConvParams::out_extent(s.w, p.k, p.stride, p.pad),
            ) {
                (Some(h), Some(w)) => Ok(TensorShape::new(h, w, s.c)),
                _ => Err(mismatch(format!(
                    "pool window {} does not fit input {} padded by {}",
                    p.k, s, p.pad
                ))),
            }
        }
        OpKind::GlobalAvgPool => {
            need(1, "gap")?;
            Ok(TensorShape::vector(shapes[0].c))
        }
        OpKind::Add => {
            need(2, "add")?;
            let s = shapes[0];
            if shapes.iter().any(|x| *x != s) {
                return Err(mismatch(format!(
                    "add inputs disagree: {:?}",
                    shapes.iter().map(|s| s.to_string()).collect::<Vec<_>>()
                )));
            }
            Ok(s)
        }
        OpKind::Concat => {
            need(2, "concat")?;
            let s = shapes[0];
            if shapes.iter().any(|x| x.h != s.h || x.w != s.w) {
                return Err(mismatch("concat inputs disagree on spatial size".into()));
            }
            let c = shapes
                .iter()
                .try_fold(0usize, |c, x| c.checked_add(x.c))
                .ok_or_else(|| mismatch("concat channel count overflows".into()))?;
            Ok(TensorShape::new(s.h, s.w, c))
        }
        OpKind::Act(_) | OpKind::BatchNorm => {
            need(1, "elementwise")?;
            Ok(shapes[0])
        }
        OpKind::ChannelScale => {
            need(2, "scale")?;
            let (fmap, gate) = (shapes[0], shapes[1]);
            if !gate.is_vector() || gate.c != fmap.c {
                return Err(mismatch(format!(
                    "gate {} is not a 1x1x{} vector",
                    gate, fmap.c
                )));
            }
            Ok(fmap)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::PoolKind;

    fn diamond() -> Graph {
        // input -> a -> {b, c} -> add -> out
        let mut g = Graph::new("diamond");
        let x = g.add_input(TensorShape::new(16, 16, 8));
        let a = g.add_conv("a", x, ConvParams::new(3, 1, 1, 16));
        let b = g.add_conv("b", a, ConvParams::new(3, 1, 1, 16));
        let c = g.add_conv("c", a, ConvParams::new(1, 1, 0, 16));
        let s = g.add_add("sum", &[b, c]);
        g.add_gap("gap", s);
        g
    }

    #[test]
    fn builds_and_validates() {
        let g = diamond();
        assert_eq!(g.layer_count(), 6);
        assert!(g.validate().is_ok());
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn depths_follow_longest_path() {
        let g = diamond();
        let d = g.depths();
        let by = |n: &str| d[g.layer_by_name(n).unwrap().id().index()];
        assert_eq!(by("a"), 1);
        assert_eq!(by("b"), 2);
        assert_eq!(by("c"), 2);
        assert_eq!(by("sum"), 3);
        assert_eq!(by("gap"), 4);
    }

    #[test]
    fn add_shape_mismatch_rejected() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(8, 8, 4));
        let a = g.add_conv("a", x, ConvParams::new(3, 1, 1, 8));
        let b = g.add_conv("b", x, ConvParams::new(3, 2, 1, 8)); // 4x4x8
        let err = g.try_add_layer("bad", OpKind::Add, &[a, b]).unwrap_err();
        assert!(matches!(err, GraphError::ShapeMismatch { .. }));
    }

    #[test]
    fn concat_sums_channels() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(8, 8, 4));
        let a = g.add_conv("a", x, ConvParams::new(1, 1, 0, 8));
        let b = g.add_conv("b", x, ConvParams::new(1, 1, 0, 24));
        let c = g.add_concat("cat", &[a, b]);
        assert_eq!(g.layer(c).out_shape(), TensorShape::new(8, 8, 32));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(8, 8, 4));
        g.add_conv("a", x, ConvParams::new(1, 1, 0, 8));
        let err = g.try_add_layer("a", OpKind::Add, &[x, x]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateName(_)));
    }

    #[test]
    fn unknown_producer_rejected() {
        let mut g = Graph::new("t");
        let err = g
            .try_add_layer("x", OpKind::Act(Activation::Relu), &[LayerId(7)])
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownLayer(LayerId(7)));
    }

    #[test]
    fn pool_shape() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(224, 224, 64));
        let p = g.add_pool(
            "p",
            x,
            PoolParams {
                kind: PoolKind::Max,
                k: 3,
                stride: 2,
                pad: 1,
            },
        );
        assert_eq!(g.layer(p).out_shape(), TensorShape::new(112, 112, 64));
    }

    #[test]
    fn edges_are_symmetric() {
        let g = diamond();
        for (p, c) in g.edges() {
            assert!(g.succs(p).contains(&c));
            assert!(g.preds(c).contains(&p));
        }
    }

    #[test]
    fn scale_requires_gate_vector() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(8, 8, 16));
        let v = g.add_gap("g", x);
        let fcg = g.add_fc("fc", v, 16);
        let s = g.add_scale("se", x, fcg);
        assert_eq!(g.layer(s).out_shape(), TensorShape::new(8, 8, 16));

        let bad = g.try_add_layer("bad", OpKind::ChannelScale, &[x, x]);
        assert!(bad.is_err());
    }

    #[test]
    fn fingerprint_insensitive_to_names_and_insertion_order() {
        // Same DAG as `diamond`, but with different layer names, a different
        // graph name, and the two middle branches inserted in the opposite
        // order (a valid alternative topological insertion order).
        let mut g = Graph::new("other-name");
        let x = g.add_input(TensorShape::new(16, 16, 8));
        let a = g.add_conv("stem", x, ConvParams::new(3, 1, 1, 16));
        let c = g.add_conv("right", a, ConvParams::new(1, 1, 0, 16));
        let b = g.add_conv("left", a, ConvParams::new(3, 1, 1, 16));
        let s = g.add_add("merge", &[c, b]);
        g.add_gap("head", s);
        assert_eq!(g.canonical_fingerprint(), diamond().canonical_fingerprint());
    }

    #[test]
    fn fingerprint_sensitive_to_params_and_structure() {
        let base = diamond().canonical_fingerprint();

        // Perturb one conv hyper-parameter.
        let mut g = Graph::new("diamond");
        let x = g.add_input(TensorShape::new(16, 16, 8));
        let a = g.add_conv("a", x, ConvParams::new(3, 1, 1, 16));
        let b = g.add_conv("b", a, ConvParams::new(3, 1, 1, 32)); // 16 -> 32
        let c = g.add_conv("c", a, ConvParams::new(1, 1, 0, 32));
        let s = g.add_add("sum", &[b, c]);
        g.add_gap("gap", s);
        assert_ne!(g.canonical_fingerprint(), base);

        // Concat edge order is semantic and must change the digest.
        let cat = |first_wide: bool| {
            let mut g = Graph::new("t");
            let x = g.add_input(TensorShape::new(8, 8, 4));
            let a = g.add_conv("a", x, ConvParams::new(1, 1, 0, 8));
            let b = g.add_conv("b", x, ConvParams::new(1, 1, 0, 24));
            if first_wide {
                g.add_concat("cat", &[b, a]);
            } else {
                g.add_concat("cat", &[a, b]);
            }
            g.canonical_fingerprint()
        };
        assert_ne!(cat(false), cat(true));
    }

    #[test]
    fn dot_export_contains_all_nodes_and_edges() {
        let g = diamond();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        for l in g.layers() {
            assert!(dot.contains(&format!("L{} [", l.id().0)), "{}", l.name());
        }
        let edge_lines = dot.lines().filter(|l| l.contains(" -> ")).count();
        assert_eq!(edge_lines, g.edges().count());
    }
}
