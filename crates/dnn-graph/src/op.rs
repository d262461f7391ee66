use std::fmt;

/// Convolution hyper-parameters (Fig. 1(b) of the paper).
///
/// `groups > 1` expresses grouped convolution; `groups == in_channels`
/// (with `out == in`) is a depthwise convolution as used by EfficientNet and
/// the NASNet-family separable convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConvParams {
    /// Kernel height `K_h`.
    pub kh: usize,
    /// Kernel width `K_w`.
    pub kw: usize,
    /// Stride (same in both spatial directions).
    pub stride: usize,
    /// Symmetric zero padding applied on each border.
    pub pad: usize,
    /// Number of output channels `C_o`.
    pub out_channels: usize,
    /// Channel groups (1 = dense conv, `C_i` = depthwise).
    pub groups: usize,
}

impl ConvParams {
    /// Dense convolution with square kernel `k`, stride `s` and "same"-style
    /// padding `pad`.
    pub fn new(k: usize, stride: usize, pad: usize, out_channels: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
            out_channels,
            groups: 1,
        }
    }

    /// Non-square dense convolution (used by Inception's 1×7 / 7×1 factorized
    /// kernels).
    pub fn rect(kh: usize, kw: usize, stride: usize, pad_h: usize, out_channels: usize) -> Self {
        // Rectangular kernels in Inception use "same" padding; we store the
        // larger padding and let the shape rule below recompute per-axis.
        Self {
            kh,
            kw,
            stride,
            pad: pad_h,
            out_channels,
            groups: 1,
        }
    }

    /// Depthwise convolution over `channels` input channels.
    pub fn depthwise(k: usize, stride: usize, pad: usize, channels: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
            out_channels: channels,
            groups: channels,
        }
    }

    /// Output spatial size along one axis for input extent `i`, kernel `k`;
    /// `None` when the kernel exceeds the padded input, the stride is zero
    /// or the arithmetic overflows.
    pub(crate) fn out_extent(i: usize, k: usize, stride: usize, pad: usize) -> Option<usize> {
        let padded = pad.checked_mul(2)?.checked_add(i)?;
        padded.checked_sub(k)?.checked_div(stride)?.checked_add(1)
    }
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Pooling hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolParams {
    /// Max or average.
    pub kind: PoolKind,
    /// Square window size.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric padding.
    pub pad: usize,
}

impl PoolParams {
    /// Max pooling with window `k` and stride `stride` (no padding).
    pub fn max(k: usize, stride: usize) -> Self {
        Self {
            kind: PoolKind::Max,
            k,
            stride,
            pad: 0,
        }
    }

    /// Average pooling with window `k` and stride `stride` (no padding).
    pub fn avg(k: usize, stride: usize) -> Self {
        Self {
            kind: PoolKind::Avg,
            k,
            stride,
            pad: 0,
        }
    }

    /// Adds symmetric padding.
    pub fn with_pad(mut self, pad: usize) -> Self {
        self.pad = pad;
        self
    }
}

/// Element-wise activation functions executed on the engine's vector unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Sigmoid.
    Sigmoid,
    /// Swish / SiLU (used by EfficientNet).
    Swish,
}

/// The operator set supported by the computation graph.
///
/// Tensor operators (`Conv`, `Fc`) run on the PE array; all others run on
/// the per-engine vector unit (Fig. 1(a) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Network input placeholder (no computation).
    Input,
    /// 2-D convolution (dense, grouped, or depthwise).
    Conv(ConvParams),
    /// Fully-connected layer producing `out_features` outputs.
    Fc {
        /// Number of output features.
        out_features: usize,
    },
    /// Spatial pooling.
    Pool(PoolParams),
    /// Global average pooling collapsing `H × W` to `1 × 1`.
    GlobalAvgPool,
    /// Element-wise addition of ≥ 2 equal-shaped inputs (residual bypass).
    Add,
    /// Channel-wise concatenation of ≥ 2 inputs with equal spatial size.
    Concat,
    /// Element-wise activation.
    Act(Activation),
    /// Batch normalization (inference-mode scale+shift).
    BatchNorm,
    /// Channel-wise scaling by a per-channel vector broadcast over `H × W`
    /// (the multiply of a squeeze-and-excitation block).
    ChannelScale,
}

impl OpKind {
    /// `true` for operators whose MACs execute on the 2-D PE array and that
    /// are therefore partitioned into atoms by the scheduler.
    pub fn is_array_op(&self) -> bool {
        matches!(self, OpKind::Conv(_) | OpKind::Fc { .. })
    }

    /// `true` for operators with no computation at all.
    pub fn is_input(&self) -> bool {
        matches!(self, OpKind::Input)
    }

    /// Short lowercase mnemonic used in layer names and Debug output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Input => "input",
            OpKind::Conv(p) if p.groups > 1 => "dwconv",
            OpKind::Conv(_) => "conv",
            OpKind::Fc { .. } => "fc",
            OpKind::Pool(p) => match p.kind {
                PoolKind::Max => "maxpool",
                PoolKind::Avg => "avgpool",
            },
            OpKind::GlobalAvgPool => "gap",
            OpKind::Add => "add",
            OpKind::Concat => "concat",
            OpKind::Act(_) => "act",
            OpKind::BatchNorm => "bn",
            OpKind::ChannelScale => "scale",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_extent() {
        // 224 input, 7x7 kernel, stride 2, pad 3 -> 112 (ResNet stem).
        assert_eq!(ConvParams::out_extent(224, 7, 2, 3), Some(112));
        // 56 input, 3x3 kernel, stride 1, pad 1 -> 56.
        assert_eq!(ConvParams::out_extent(56, 3, 1, 1), Some(56));
        // 56 input, 1x1 kernel, stride 2 -> 28.
        assert_eq!(ConvParams::out_extent(56, 1, 2, 0), Some(28));
    }

    #[test]
    fn depthwise_groups() {
        let p = ConvParams::depthwise(3, 1, 1, 32);
        assert_eq!(p.groups, 32);
        assert_eq!(p.out_channels, 32);
    }

    #[test]
    fn array_op_classification() {
        assert!(OpKind::Conv(ConvParams::new(3, 1, 1, 64)).is_array_op());
        assert!(OpKind::Fc { out_features: 10 }.is_array_op());
        assert!(!OpKind::Add.is_array_op());
        assert!(!OpKind::Pool(PoolParams::max(2, 2)).is_array_op());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(
            OpKind::Conv(ConvParams::depthwise(3, 1, 1, 8)).mnemonic(),
            "dwconv"
        );
        assert_eq!(OpKind::Pool(PoolParams::avg(3, 1)).mnemonic(), "avgpool");
    }
}
