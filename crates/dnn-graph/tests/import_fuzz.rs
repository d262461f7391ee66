//! Seeded mutational fuzzing of the model importer
//! ([`ModelDesc::parse`], [`ModelDesc::build`], [`ModelDesc::from_json`]).
//!
//! The importer reads model files from outside the program. Each case
//! takes a zoo model's description, mutates it, and imports it twice:
//! straight from the mutated description (field values past what JSON can
//! carry reach `build`) and from its JSON text after byte-level damage.
//! Both must return a graph that validates or a typed [`ImportError`]; a
//! panic fails the test.

use ad_util::Rng64;
use dnn_graph::import::{ImportError, LayerDesc, ModelDesc, OpDesc};
use dnn_graph::{models, Graph, LayerId, OpKind, PoolKind};

/// The zoo models of the corpus. ResNet-152/1001 and PNASNet repeat the
/// blocks of ResNet-50 and NASNet at a size that only slows each case.
const CORPUS: [&str; 7] = [
    "tiny_cnn",
    "tiny_branchy",
    "vgg19",
    "resnet50",
    "inception_v3",
    "nasnet",
    "efficientnet",
];

/// The description of a zoo graph. The interchange format has one
/// activation, so sigmoid and swish are written as ReLU (same shape).
fn desc_of(g: &Graph) -> ModelDesc {
    let name_of = |id: LayerId| {
        let l = g.layer(id);
        if l.op().is_input() {
            "input".to_string()
        } else {
            l.name().to_string()
        }
    };
    let mut input = [1; 3];
    let mut layers = Vec::new();
    for l in g.layers() {
        let op = match l.op() {
            OpKind::Input => {
                let s = l.out_shape();
                input = [s.h, s.w, s.c];
                continue;
            }
            OpKind::Conv(p) if p.kh != p.kw => OpDesc::ConvRect {
                kh: p.kh,
                kw: p.kw,
                out_channels: p.out_channels,
            },
            OpKind::Conv(p) => OpDesc::Conv {
                k: p.kh,
                stride: p.stride,
                pad: p.pad,
                out_channels: p.out_channels,
                groups: p.groups,
            },
            OpKind::Fc { out_features } => OpDesc::Fc { out_features },
            OpKind::Pool(p) => match p.kind {
                PoolKind::Max => OpDesc::MaxPool {
                    k: p.k,
                    stride: p.stride,
                    pad: p.pad,
                },
                PoolKind::Avg => OpDesc::AvgPool {
                    k: p.k,
                    stride: p.stride,
                    pad: p.pad,
                },
            },
            OpKind::GlobalAvgPool => OpDesc::GlobalAvgPool,
            OpKind::Add => OpDesc::Add,
            OpKind::Concat => OpDesc::Concat,
            OpKind::Act(_) => OpDesc::Relu,
            OpKind::BatchNorm => OpDesc::BatchNorm,
            OpKind::ChannelScale => OpDesc::ChannelScale,
        };
        layers.push(LayerDesc {
            name: l.name().to_string(),
            op,
            inputs: g.preds(l.id()).iter().map(|&p| name_of(p)).collect(),
        });
    }
    ModelDesc {
        name: g.name().to_string(),
        input,
        layers,
    }
}

/// Every integer field of an operator.
fn numbers(op: &mut OpDesc) -> Vec<&mut usize> {
    match op {
        OpDesc::Conv {
            k,
            stride,
            pad,
            out_channels,
            groups,
        } => vec![k, stride, pad, out_channels, groups],
        OpDesc::ConvRect {
            kh,
            kw,
            out_channels,
        } => vec![kh, kw, out_channels],
        OpDesc::Fc { out_features } => vec![out_features],
        OpDesc::MaxPool { k, stride, pad } | OpDesc::AvgPool { k, stride, pad } => {
            vec![k, stride, pad]
        }
        _ => Vec::new(),
    }
}

/// Zero, or a number at or past a width boundary: `u32`, the 2^53 JSON
/// integer limit and `usize`.
fn edge_number(rng: &mut Rng64) -> usize {
    const EDGES: [usize; 6] = [
        0,
        1 << 32,
        (1 << 53) - 1,
        1 << 53,
        usize::MAX / 2,
        usize::MAX,
    ];
    EDGES[rng.below(EDGES.len())]
}

/// Drops, duplicates or renumbers one layer (or the input shape).
fn mutate_desc(desc: &mut ModelDesc, rng: &mut Rng64) {
    let at = rng.below(desc.layers.len());
    match rng.below(3) {
        0 => {
            desc.layers.remove(at);
        }
        1 => {
            let copy = desc.layers[at].clone();
            desc.layers.insert(rng.below(desc.layers.len() + 1), copy);
        }
        _ => {
            let mut slots: Vec<&mut usize> = desc.input.iter_mut().collect();
            slots.extend(numbers(&mut desc.layers[at].op));
            let pick = rng.below(slots.len());
            *slots[pick] = edge_number(rng);
        }
    }
}

/// Flips bytes, truncates, or writes a zero or huge number over a run of
/// digits.
fn damage_text(bytes: &mut Vec<u8>, rng: &mut Rng64) {
    let at = rng.below(bytes.len());
    match rng.below(3) {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(at),
        _ => {
            let Some(start) = bytes[at..].iter().position(u8::is_ascii_digit) else {
                return;
            };
            let start = at + start;
            let len = bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            let number = match rng.below(4) {
                0 => "0".to_string(),
                1 => "1e300".to_string(),
                2 => "-1".to_string(),
                _ => edge_number(rng).to_string(),
            };
            bytes.splice(start..start + len, number.bytes());
        }
    }
}

/// An import result is fine when it is a typed error or a graph that
/// passes its own validation.
fn check(result: Result<Graph, ImportError>) -> bool {
    match result {
        Ok(g) => {
            assert!(g.validate().is_ok(), "an imported graph fails validation");
            true
        }
        Err(e) => {
            assert!(!e.to_string().is_empty(), "empty error message");
            false
        }
    }
}

/// Runs `cases` mutants from `seed`; import must both succeed and fail
/// regularly, or the mutations are not reaching the decoder.
fn fuzz(seed: u64, cases: usize) {
    let corpus: Vec<ModelDesc> = CORPUS
        .iter()
        .map(|name| {
            let g = models::by_name(name).unwrap_or_else(|| panic!("zoo model {name}"));
            let desc = desc_of(&g);
            ModelDesc::from_json(&desc.to_json())
                .unwrap_or_else(|e| panic!("{name} does not import unmutated: {e}"));
            desc
        })
        .collect();
    let mut rng = Rng64::new(seed);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..cases {
        let mut desc = corpus[case % corpus.len()].clone();
        for _ in 0..=rng.below(2) {
            mutate_desc(&mut desc, &mut rng);
        }
        let mut bytes = desc.to_json().into_bytes();
        if rng.chance(0.5) {
            damage_text(&mut bytes, &mut rng);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let outcome =
            std::panic::catch_unwind(|| (check(desc.build()), check(ModelDesc::from_json(&text))));
        let Ok(oks) = outcome else {
            panic!("case {case} panicked; model `{}`", desc.name);
        };
        for ok in [oks.0, oks.1] {
            if ok {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    }
    assert!(
        accepted >= cases / 10 && refused >= cases / 10,
        "accepted {accepted}, refused {refused} of {} imports",
        2 * cases
    );
}

#[test]
fn mutated_models_import_or_refuse() {
    fuzz(0x1a9f_0de1, 600);
}

/// The long variant, run in CI: `cargo test --release -p dnn-graph -- --ignored`.
#[test]
#[ignore = "long fuzz run; CI runs it in release"]
fn mutated_models_import_or_refuse_long() {
    fuzz(0x7e11_5eed, 20_000);
}
