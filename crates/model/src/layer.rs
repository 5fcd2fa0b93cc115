//! Partitionable layer units.
//!
//! A [`Layer`] is the granularity at which the partitioner may cut the
//! model. For VGG-style plain convnets a unit is one conv/pool/linear
//! layer (with its activation fused in); for ResNet a unit is a whole
//! residual block, because a residual connection cannot be split across
//! two pipeline stages without extra cross-stage traffic.
//!
//! Every unit carries the analytic profile the paper's partitioner
//! needs: parameter bytes, output-activation bytes (what crosses a stage
//! boundary if the cut falls after this unit), bytes that must stay
//! resident for the backward pass, forward/backward FLOPs, and the
//! number of CUDA kernels the unit launches (fixed per-launch overhead
//! is a first-order effect for deep models like ResNet-152).

/// The kind of a partitionable layer unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// A convolution (with fused bias/activation).
    Conv2d,
    /// A fully-connected (dense) layer.
    Linear,
    /// A spatial pooling layer (max or average).
    Pool,
    /// A whole residual bottleneck block (convs + batch-norms + skip).
    ResidualBlock,
    /// A whole Transformer encoder block (attention + FFN + norms).
    TransformerBlock,
    /// Batch normalization as a standalone unit.
    BatchNorm,
    /// Element-wise activation as a standalone unit.
    Activation,
    /// Reshape/flatten (no compute, no parameters).
    Flatten,
    /// Final classification loss (softmax + cross-entropy).
    Loss,
}

impl LayerKind {
    /// Compute-rate multiplier relative to the GPU's sustained FLOP/s.
    ///
    /// cuDNN executes large 3x3 convolutions with Winograd kernels
    /// (~2.25x fewer multiplies) at high utilization, so VGG-style convs
    /// sustain close to (nominal) peak FLOP/s — which is why VGG-19
    /// trains faster per nominal FLOP than ResNet-152 in the paper's
    /// Figure 3. Bottleneck blocks mix 1x1 convolutions (no Winograd)
    /// with small spatial extents; dense layers are GEMV-like at batch
    /// 32. These multipliers are calibrated jointly with
    /// `TITAN_V_SUSTAINED_FLOPS` against Figure 3's `Nm = 1` absolute
    /// throughputs (`profile::tests::whole_model_step_times_in_calibrated_range`
    /// pins the resulting step times; the `fig3` bin in `hetpipe-bench`
    /// prints the throughputs).
    pub fn flops_rate_multiplier(self) -> f64 {
        match self {
            LayerKind::Conv2d => 4.10,
            LayerKind::ResidualBlock => 2.70,
            // Large GEMMs at high utilization, but no Winograd.
            LayerKind::TransformerBlock => 1.80,
            LayerKind::Linear => 0.70,
            // Memory-bound units; rate is irrelevant (roofline picks the
            // bandwidth term) but keep a sane value.
            LayerKind::Pool
            | LayerKind::BatchNorm
            | LayerKind::Activation
            | LayerKind::Flatten
            | LayerKind::Loss => 0.50,
        }
    }

    /// True if the unit carries trainable parameters.
    pub fn has_params(self) -> bool {
        matches!(
            self,
            LayerKind::Conv2d
                | LayerKind::Linear
                | LayerKind::ResidualBlock
                | LayerKind::TransformerBlock
                | LayerKind::BatchNorm
        )
    }
}

/// One partitionable unit of a model, with its analytic profile.
///
/// All byte and FLOP quantities are **per minibatch** (the builder bakes
/// the batch size in), matching how the paper's profiler measures layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable name (e.g. `"conv3_2"`, `"res4b17"`).
    pub name: String,
    /// Unit kind.
    pub kind: LayerKind,
    /// Trainable parameter bytes (f32).
    pub param_bytes: u64,
    /// Output activation bytes for one minibatch; this is what crosses a
    /// stage boundary (forward), and the same amount crosses back as a
    /// gradient (backward) if the partition cut falls after this unit.
    pub activation_bytes: u64,
    /// Bytes that must remain resident on the GPU from this unit's
    /// forward pass until its backward pass (internal activations,
    /// batch-norm saves, ReLU masks).
    pub stored_bytes: u64,
    /// Forward-pass FLOPs for one minibatch.
    pub fwd_flops: f64,
    /// Backward-pass FLOPs for one minibatch (typically ~2x forward:
    /// gradients w.r.t. both inputs and weights).
    pub bwd_flops: f64,
    /// Bytes streamed by memory-bound sub-kernels per forward pass
    /// (drives the roofline bandwidth term).
    pub membound_bytes: u64,
    /// Number of CUDA kernels launched per forward pass.
    pub kernels: u32,
}

impl Layer {
    /// Total FLOPs of one training step (forward + backward) of this unit.
    pub fn total_flops(&self) -> f64 {
        self.fwd_flops + self.bwd_flops
    }

    /// Number of trainable parameters (f32 count).
    pub fn param_count(&self) -> u64 {
        self.param_bytes / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(kind: LayerKind) -> Layer {
        Layer {
            name: "l".into(),
            kind,
            param_bytes: 400,
            activation_bytes: 1024,
            stored_bytes: 2048,
            fwd_flops: 1e6,
            bwd_flops: 2e6,
            membound_bytes: 512,
            kernels: 3,
        }
    }

    #[test]
    fn total_flops_sums_passes() {
        let l = dummy(LayerKind::Conv2d);
        assert_eq!(l.total_flops(), 3e6);
        assert_eq!(l.param_count(), 100);
    }

    #[test]
    fn conv_is_fastest_per_flop() {
        // The Winograd-calibrated ordering that explains the paper's
        // VGG-19 vs ResNet-152 throughput gap.
        assert!(
            LayerKind::Conv2d.flops_rate_multiplier()
                > LayerKind::ResidualBlock.flops_rate_multiplier()
        );
        assert!(
            LayerKind::ResidualBlock.flops_rate_multiplier()
                > LayerKind::Linear.flops_rate_multiplier()
        );
    }

    #[test]
    fn param_kinds() {
        assert!(LayerKind::Conv2d.has_params());
        assert!(LayerKind::ResidualBlock.has_params());
        assert!(!LayerKind::Pool.has_params());
        assert!(!LayerKind::Flatten.has_params());
    }
}
