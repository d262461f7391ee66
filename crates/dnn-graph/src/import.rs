//! Front-end model import (the "front-end parser" of the paper's Fig. 4).
//!
//! The paper ingests ONNX; scheduling consumes only operator types, tensor
//! shapes and wiring, so this module defines a minimal JSON-serializable
//! model-description format carrying exactly that information, plus a
//! loader that reconstructs a validated [`Graph`]. Any ONNX graph can be
//! transcribed into this format with a few lines of Python; the importer is
//! what lets the framework "process various DNN workloads" without binding
//! to a heavyweight protobuf toolchain.
//!
//! Operators are encoded as internally-tagged objects
//! (`{"type": "conv", "k": 3, ...}` with snake_case tags), and every
//! malformed input — unparseable JSON, missing or mistyped fields, duplicate
//! layer names, dangling references — surfaces as a typed [`ImportError`],
//! never a panic.
//!
//! ```rust
//! use dnn_graph::import::{LayerDesc, ModelDesc, OpDesc};
//!
//! let desc = ModelDesc {
//!     name: "two_layer".into(),
//!     input: [8, 8, 3],
//!     layers: vec![
//!         LayerDesc { name: "c1".into(), op: OpDesc::Conv { k: 3, stride: 1, pad: 1, out_channels: 16, groups: 1 }, inputs: vec!["input".into()] },
//!         LayerDesc { name: "fc".into(), op: OpDesc::Fc { out_features: 10 }, inputs: vec!["c1".into()] },
//!     ],
//! };
//! let g = desc.build().unwrap();
//! assert_eq!(g.layer_count(), 3);
//! ```

use std::collections::HashMap;

use ad_util::Json;

use crate::{Activation, ConvParams, Graph, GraphError, LayerId, OpKind, PoolParams, TensorShape};

/// Operator description in the interchange format.
#[derive(Debug, Clone, PartialEq)]
pub enum OpDesc {
    /// 2-D convolution (`groups == in_channels` ⇒ depthwise).
    Conv {
        /// Square kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric padding.
        pad: usize,
        /// Output channels.
        out_channels: usize,
        /// Channel groups.
        groups: usize,
    },
    /// Rectangular stride-1 "same" convolution (Inception's 1×7 / 7×1).
    ConvRect {
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Output channels.
        out_channels: usize,
    },
    /// Fully connected.
    Fc {
        /// Output features.
        out_features: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Window.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Global average pooling.
    GlobalAvgPool,
    /// Element-wise addition of all inputs.
    Add,
    /// Channel concatenation of all inputs.
    Concat,
    /// ReLU activation (kept when a model chooses not to fold it).
    Relu,
    /// Inference-mode batch normalization.
    BatchNorm,
    /// Channel-wise scale: `inputs[0]` feature map, `inputs[1]` gate vector.
    ChannelScale,
}

/// One layer of the interchange format; `inputs` name earlier layers (or
/// `"input"` for the network input).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDesc {
    /// Unique layer name.
    pub name: String,
    /// Operator.
    pub op: OpDesc,
    /// Producer names.
    pub inputs: Vec<String>,
}

/// A whole model: input shape `[h, w, c]` plus layers in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDesc {
    /// Model name.
    pub name: String,
    /// Network input shape `[H, W, C]`.
    pub input: [usize; 3],
    /// Layers, each referring to earlier layers by name.
    pub layers: Vec<LayerDesc>,
}

/// Errors produced while importing a model description.
#[derive(Debug)]
pub enum ImportError {
    /// A layer referenced an input name that has not been defined.
    UnknownInput {
        /// Layer being built.
        layer: String,
        /// The missing producer name.
        input: String,
    },
    /// Two layers (or a layer and the reserved `"input"` name) collide.
    DuplicateLayer {
        /// The repeated name.
        name: String,
    },
    /// The underlying graph construction rejected the layer.
    Graph(GraphError),
    /// The JSON text could not be parsed (syntax error, truncation).
    Json(String),
    /// The JSON parsed but does not match the model-description schema.
    Schema(String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::UnknownInput { layer, input } => {
                write!(f, "layer `{layer}` references unknown input `{input}`")
            }
            ImportError::DuplicateLayer { name } => {
                write!(f, "duplicate layer name `{name}`")
            }
            ImportError::Graph(e) => write!(f, "graph construction failed: {e}"),
            ImportError::Json(e) => write!(f, "invalid model JSON: {e}"),
            ImportError::Schema(e) => write!(f, "model JSON does not match schema: {e}"),
        }
    }
}

impl std::error::Error for ImportError {}

impl From<GraphError> for ImportError {
    fn from(e: GraphError) -> Self {
        ImportError::Graph(e)
    }
}

fn schema(msg: impl Into<String>) -> ImportError {
    ImportError::Schema(msg.into())
}

fn str_field(v: &Json, ctx: &str, key: &str) -> Result<String, ImportError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| schema(format!("{ctx}: missing string field `{key}`")))
}

fn usize_field(v: &Json, ctx: &str, key: &str) -> Result<usize, ImportError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| schema(format!("{ctx}: missing non-negative integer field `{key}`")))
}

impl OpDesc {
    fn to_json(&self) -> Json {
        let tagged = |tag: &str, fields: &[(&str, usize)]| {
            let mut members = vec![("type".to_string(), Json::from(tag))];
            members.extend(fields.iter().map(|&(k, v)| (k.to_string(), Json::from(v))));
            Json::Obj(members)
        };
        match *self {
            OpDesc::Conv {
                k,
                stride,
                pad,
                out_channels,
                groups,
            } => tagged(
                "conv",
                &[
                    ("k", k),
                    ("stride", stride),
                    ("pad", pad),
                    ("out_channels", out_channels),
                    ("groups", groups),
                ],
            ),
            OpDesc::ConvRect {
                kh,
                kw,
                out_channels,
            } => tagged(
                "conv_rect",
                &[("kh", kh), ("kw", kw), ("out_channels", out_channels)],
            ),
            OpDesc::Fc { out_features } => tagged("fc", &[("out_features", out_features)]),
            OpDesc::MaxPool { k, stride, pad } => {
                tagged("max_pool", &[("k", k), ("stride", stride), ("pad", pad)])
            }
            OpDesc::AvgPool { k, stride, pad } => {
                tagged("avg_pool", &[("k", k), ("stride", stride), ("pad", pad)])
            }
            OpDesc::GlobalAvgPool => tagged("global_avg_pool", &[]),
            OpDesc::Add => tagged("add", &[]),
            OpDesc::Concat => tagged("concat", &[]),
            OpDesc::Relu => tagged("relu", &[]),
            OpDesc::BatchNorm => tagged("batch_norm", &[]),
            OpDesc::ChannelScale => tagged("channel_scale", &[]),
        }
    }

    fn from_json(v: &Json, layer: &str) -> Result<OpDesc, ImportError> {
        let ctx = format!("layer `{layer}` op");
        let tag = str_field(v, &ctx, "type")?;
        match tag.as_str() {
            "conv" => Ok(OpDesc::Conv {
                k: usize_field(v, &ctx, "k")?,
                stride: usize_field(v, &ctx, "stride")?,
                pad: usize_field(v, &ctx, "pad")?,
                out_channels: usize_field(v, &ctx, "out_channels")?,
                groups: usize_field(v, &ctx, "groups")?,
            }),
            "conv_rect" => Ok(OpDesc::ConvRect {
                kh: usize_field(v, &ctx, "kh")?,
                kw: usize_field(v, &ctx, "kw")?,
                out_channels: usize_field(v, &ctx, "out_channels")?,
            }),
            "fc" => Ok(OpDesc::Fc {
                out_features: usize_field(v, &ctx, "out_features")?,
            }),
            "max_pool" => Ok(OpDesc::MaxPool {
                k: usize_field(v, &ctx, "k")?,
                stride: usize_field(v, &ctx, "stride")?,
                pad: usize_field(v, &ctx, "pad")?,
            }),
            "avg_pool" => Ok(OpDesc::AvgPool {
                k: usize_field(v, &ctx, "k")?,
                stride: usize_field(v, &ctx, "stride")?,
                pad: usize_field(v, &ctx, "pad")?,
            }),
            "global_avg_pool" => Ok(OpDesc::GlobalAvgPool),
            "add" => Ok(OpDesc::Add),
            "concat" => Ok(OpDesc::Concat),
            "relu" => Ok(OpDesc::Relu),
            "batch_norm" => Ok(OpDesc::BatchNorm),
            "channel_scale" => Ok(OpDesc::ChannelScale),
            other => Err(schema(format!("{ctx}: unknown operator type `{other}`"))),
        }
    }
}

impl ModelDesc {
    /// Builds the validated [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns [`ImportError`] on a zero input dimension, duplicate layer
    /// names, dangling references or shape mismatches (including zero
    /// strides and empty outputs).
    pub fn build(&self) -> Result<Graph, ImportError> {
        if self.input.contains(&0) {
            return Err(schema(format!(
                "model: `input` dimensions must be non-zero, got {:?}",
                self.input
            )));
        }
        let mut g = Graph::new(self.name.clone());
        let mut by_name: HashMap<&str, LayerId> = HashMap::new();
        let input = g.add_input(TensorShape::new(
            self.input[0],
            self.input[1],
            self.input[2],
        ));
        by_name.insert("input", input);

        for l in &self.layers {
            if by_name.contains_key(l.name.as_str()) {
                return Err(ImportError::DuplicateLayer {
                    name: l.name.clone(),
                });
            }
            let mut ids = Vec::with_capacity(l.inputs.len());
            for name in &l.inputs {
                let id = by_name
                    .get(name.as_str())
                    .ok_or_else(|| ImportError::UnknownInput {
                        layer: l.name.clone(),
                        input: name.clone(),
                    })?;
                ids.push(*id);
            }
            let op = match &l.op {
                OpDesc::Conv {
                    k,
                    stride,
                    pad,
                    out_channels,
                    groups,
                } => OpKind::Conv(ConvParams {
                    kh: *k,
                    kw: *k,
                    stride: *stride,
                    pad: *pad,
                    out_channels: *out_channels,
                    groups: *groups,
                }),
                OpDesc::ConvRect {
                    kh,
                    kw,
                    out_channels,
                } => OpKind::Conv(ConvParams::rect(*kh, *kw, 1, kh / 2, *out_channels)),
                OpDesc::Fc { out_features } => OpKind::Fc {
                    out_features: *out_features,
                },
                OpDesc::MaxPool { k, stride, pad } => {
                    OpKind::Pool(PoolParams::max(*k, *stride).with_pad(*pad))
                }
                OpDesc::AvgPool { k, stride, pad } => {
                    OpKind::Pool(PoolParams::avg(*k, *stride).with_pad(*pad))
                }
                OpDesc::GlobalAvgPool => OpKind::GlobalAvgPool,
                OpDesc::Add => OpKind::Add,
                OpDesc::Concat => OpKind::Concat,
                OpDesc::Relu => OpKind::Act(Activation::Relu),
                OpDesc::BatchNorm => OpKind::BatchNorm,
                OpDesc::ChannelScale => OpKind::ChannelScale,
            };
            let id = g.try_add_layer(l.name.clone(), op, &ids)?;
            by_name.insert(l.name.as_str(), id);
        }
        Ok(g)
    }

    /// Parses a JSON model description back into a [`ModelDesc`].
    ///
    /// # Errors
    ///
    /// Returns [`ImportError::Json`] for syntactically malformed text
    /// (including truncated documents) and [`ImportError::Schema`] for JSON
    /// that parses but misses or mistypes fields.
    pub fn parse(text: &str) -> Result<ModelDesc, ImportError> {
        let v = Json::parse(text).map_err(|e| ImportError::Json(e.to_string()))?;
        let name = str_field(&v, "model", "name")?;
        let input_arr = v
            .get("input")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("model: missing array field `input`"))?;
        if input_arr.len() != 3 {
            return Err(schema(format!(
                "model: `input` must be [H, W, C], got {} elements",
                input_arr.len()
            )));
        }
        let mut input = [0usize; 3];
        for (i, dim) in input_arr.iter().enumerate() {
            input[i] = dim
                .as_usize()
                .ok_or_else(|| schema(format!("model: `input[{i}]` is not an integer")))?;
        }
        let layers_arr = v
            .get("layers")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("model: missing array field `layers`"))?;
        let mut layers = Vec::with_capacity(layers_arr.len());
        for (i, lv) in layers_arr.iter().enumerate() {
            let ctx = format!("layers[{i}]");
            let name = str_field(lv, &ctx, "name")?;
            let op_v = lv
                .get("op")
                .ok_or_else(|| schema(format!("{ctx}: missing field `op`")))?;
            let op = OpDesc::from_json(op_v, &name)?;
            let inputs_arr = lv
                .get("inputs")
                .and_then(Json::as_array)
                .ok_or_else(|| schema(format!("{ctx}: missing array field `inputs`")))?;
            let mut inputs = Vec::with_capacity(inputs_arr.len());
            for (j, iv) in inputs_arr.iter().enumerate() {
                inputs.push(
                    iv.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| schema(format!("{ctx}: `inputs[{j}]` is not a string")))?,
                );
            }
            layers.push(LayerDesc { name, op, inputs });
        }
        Ok(ModelDesc {
            name,
            input,
            layers,
        })
    }

    /// Parses a JSON model description and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns [`ImportError::Json`] / [`ImportError::Schema`] for malformed
    /// text, otherwise as [`ModelDesc::build`].
    pub fn from_json(text: &str) -> Result<Graph, ImportError> {
        Self::parse(text)?.build()
    }

    /// Serializes a graph-description round-trip for a built-in model — the
    /// inverse direction, handy for exporting zoo models to JSON.
    pub fn to_json(&self) -> String {
        let layers = self
            .layers
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("name".into(), Json::from(l.name.as_str())),
                    ("op".into(), l.op.to_json()),
                    (
                        "inputs".into(),
                        Json::Arr(l.inputs.iter().map(|s| Json::from(s.as_str())).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::from(self.name.as_str())),
            (
                "input".into(),
                Json::Arr(self.input.iter().map(|&d| Json::from(d)).collect()),
            ),
            ("layers".into(), Json::Arr(layers)),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_desc() -> ModelDesc {
        ModelDesc {
            name: "res_block".into(),
            input: [16, 16, 8],
            layers: vec![
                LayerDesc {
                    name: "stem".into(),
                    op: OpDesc::Conv {
                        k: 3,
                        stride: 1,
                        pad: 1,
                        out_channels: 16,
                        groups: 1,
                    },
                    inputs: vec!["input".into()],
                },
                LayerDesc {
                    name: "branch".into(),
                    op: OpDesc::Conv {
                        k: 3,
                        stride: 1,
                        pad: 1,
                        out_channels: 16,
                        groups: 1,
                    },
                    inputs: vec!["stem".into()],
                },
                LayerDesc {
                    name: "sum".into(),
                    op: OpDesc::Add,
                    inputs: vec!["stem".into(), "branch".into()],
                },
                LayerDesc {
                    name: "gap".into(),
                    op: OpDesc::GlobalAvgPool,
                    inputs: vec!["sum".into()],
                },
                LayerDesc {
                    name: "head".into(),
                    op: OpDesc::Fc { out_features: 10 },
                    inputs: vec!["gap".into()],
                },
            ],
        }
    }

    #[test]
    fn builds_residual_block() {
        let g = residual_desc().build().unwrap();
        assert!(g.validate().is_ok());
        assert_eq!(g.layer_count(), 6);
        let sum = g.layer_by_name("sum").unwrap();
        assert_eq!(sum.out_shape(), TensorShape::new(16, 16, 16));
    }

    #[test]
    fn json_roundtrip() {
        let desc = residual_desc();
        let text = desc.to_json();
        let parsed = ModelDesc::parse(&text).unwrap();
        assert_eq!(parsed, desc);
        let g = ModelDesc::from_json(&text).unwrap();
        assert_eq!(g.layer_count(), 6);
    }

    #[test]
    fn seeded_random_models_roundtrip() {
        // Property check: for randomly generated descriptions (any mix of
        // operators, parameters and wiring — shape-valid or not),
        // `parse(to_json(d)) == d` exactly, and `build` never panics.
        let mut rng = ad_util::Rng64::new(0x10_AD_ED);
        for trial in 0..64 {
            let mut names: Vec<String> = vec!["input".into()];
            let mut layers = Vec::new();
            for i in 0..1 + rng.below(12) {
                let op = match rng.below(11) {
                    0 => OpDesc::Conv {
                        k: 1 + 2 * rng.below(4),
                        stride: 1 + rng.below(3),
                        pad: rng.below(4),
                        out_channels: 1 << rng.below(9),
                        groups: 1 << rng.below(4),
                    },
                    1 => OpDesc::ConvRect {
                        kh: 1 + rng.below(7),
                        kw: 1 + rng.below(7),
                        out_channels: 1 + rng.below(256),
                    },
                    2 => OpDesc::Fc {
                        out_features: 1 + rng.below(4096),
                    },
                    3 => OpDesc::MaxPool {
                        k: 1 + rng.below(4),
                        stride: 1 + rng.below(3),
                        pad: rng.below(2),
                    },
                    4 => OpDesc::AvgPool {
                        k: 1 + rng.below(4),
                        stride: 1 + rng.below(3),
                        pad: rng.below(2),
                    },
                    5 => OpDesc::GlobalAvgPool,
                    6 => OpDesc::Add,
                    7 => OpDesc::Concat,
                    8 => OpDesc::Relu,
                    9 => OpDesc::BatchNorm,
                    _ => OpDesc::ChannelScale,
                };
                let n_inputs = 1 + rng.below(2);
                let inputs = (0..n_inputs)
                    .map(|_| names[rng.below(names.len())].clone())
                    .collect();
                let name = format!("l{i}");
                names.push(name.clone());
                layers.push(LayerDesc { name, op, inputs });
            }
            let desc = ModelDesc {
                name: format!("rand{trial}"),
                input: [1 + rng.below(64), 1 + rng.below(64), 1 + rng.below(512)],
                layers,
            };
            let text = desc.to_json();
            let parsed = ModelDesc::parse(&text)
                .unwrap_or_else(|e| panic!("trial {trial} failed to re-parse: {e}"));
            assert_eq!(parsed, desc, "trial {trial} round-trip mismatch");
            // Arbitrary wiring may be shape-invalid; it must error, not panic.
            let _ = desc.build();
        }
    }

    #[test]
    fn unknown_input_rejected() {
        let mut desc = residual_desc();
        desc.layers[1].inputs = vec!["missing".into()];
        match desc.build() {
            Err(ImportError::UnknownInput { layer, input }) => {
                assert_eq!(layer, "branch");
                assert_eq!(input, "missing");
            }
            other => panic!("expected UnknownInput, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_layer_rejected() {
        let mut desc = residual_desc();
        desc.layers[1].name = "stem".into();
        match desc.build() {
            Err(ImportError::DuplicateLayer { name }) => assert_eq!(name, "stem"),
            other => panic!("expected DuplicateLayer, got {other:?}"),
        }
        // The reserved network-input name collides too.
        let mut desc = residual_desc();
        desc.layers[0].name = "input".into();
        assert!(matches!(
            desc.build(),
            Err(ImportError::DuplicateLayer { .. })
        ));
    }

    #[test]
    fn duplicate_layer_json_rejected() {
        let mut desc = residual_desc();
        desc.layers[1].name = desc.layers[0].name.clone();
        desc.layers[1].inputs = vec!["input".into()];
        let text = desc.to_json();
        assert!(matches!(
            ModelDesc::from_json(&text),
            Err(ImportError::DuplicateLayer { .. })
        ));
    }

    #[test]
    fn truncated_json_rejected() {
        let full = residual_desc().to_json();
        // Chop the document at several points; every prefix must fail with a
        // typed Json error, never a panic.
        for cut in [1, full.len() / 4, full.len() / 2, full.len() - 2] {
            let truncated = &full[..cut];
            assert!(
                matches!(ModelDesc::from_json(truncated), Err(ImportError::Json(_))),
                "truncation at {cut} did not produce ImportError::Json"
            );
        }
    }

    #[test]
    fn schema_violations_rejected() {
        // Parses as JSON but misses required fields / has wrong types.
        for bad in [
            r#"{"name": "m"}"#,
            r#"{"name": "m", "input": [1, 2], "layers": []}"#,
            r#"{"name": "m", "input": [1, 2, 3], "layers": [{"name": "x"}]}"#,
            r#"{"name": "m", "input": [1, 2, 3],
                "layers": [{"name": "x", "op": {"type": "warp_drive"}, "inputs": []}]}"#,
            r#"{"name": "m", "input": [1, 2, 3],
                "layers": [{"name": "x", "op": {"type": "conv", "k": 3}, "inputs": []}]}"#,
            r#"{"name": "m", "input": [1, 2, 3],
                "layers": [{"name": "x", "op": {"type": "add"}, "inputs": [7]}]}"#,
        ] {
            assert!(
                matches!(ModelDesc::from_json(bad), Err(ImportError::Schema(_))),
                "expected Schema error for {bad}"
            );
        }
    }

    #[test]
    fn shape_errors_surface() {
        let mut desc = residual_desc();
        // Make the add shape-mismatched: second branch downsamples.
        desc.layers[1].op = OpDesc::Conv {
            k: 3,
            stride: 2,
            pad: 1,
            out_channels: 16,
            groups: 1,
        };
        assert!(matches!(desc.build(), Err(ImportError::Graph(_))));
    }

    #[test]
    fn out_of_range_numbers_rejected() {
        let conv = |stride, out_channels| OpDesc::Conv {
            k: 3,
            stride,
            pad: 1,
            out_channels,
            groups: 1,
        };
        let mut zero_input = residual_desc();
        zero_input.input = [0, 8, 4];
        let mut cases = vec![zero_input];
        for op in [
            conv(0, 16),
            conv(1, 0),
            OpDesc::Fc { out_features: 0 },
            OpDesc::MaxPool {
                k: 2,
                stride: 0,
                pad: 0,
            },
        ] {
            let mut desc = residual_desc();
            desc.layers[0].op = op;
            cases.push(desc);
        }
        for desc in cases {
            let text = desc.to_json();
            assert!(
                ModelDesc::from_json(&text).is_err(),
                "accepted {:?} / {:?}",
                desc.input,
                desc.layers[0].op
            );
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            ModelDesc::from_json("{not json"),
            Err(ImportError::Json(_))
        ));
    }

    #[test]
    fn depthwise_and_rect_ops_import() {
        let desc = ModelDesc {
            name: "ops".into(),
            input: [14, 14, 32],
            layers: vec![
                LayerDesc {
                    name: "dw".into(),
                    op: OpDesc::Conv {
                        k: 3,
                        stride: 1,
                        pad: 1,
                        out_channels: 32,
                        groups: 32,
                    },
                    inputs: vec!["input".into()],
                },
                LayerDesc {
                    name: "wide".into(),
                    op: OpDesc::ConvRect {
                        kh: 1,
                        kw: 7,
                        out_channels: 48,
                    },
                    inputs: vec!["dw".into()],
                },
            ],
        };
        let g = desc.build().unwrap();
        assert_eq!(
            g.layer_by_name("wide").unwrap().out_shape(),
            TensorShape::new(14, 14, 48)
        );
    }
}
