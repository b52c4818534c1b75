//! Whole-network descriptions and the model registry.

use crate::layer::{LayerDesc, TensorShape};
use crate::zoo;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// A *schedulable unit*: a contiguous block of layers that the manager never
/// splits (a conv block, a residual bottleneck, an inception cell, …).
///
/// Pipeline stages are contiguous runs of units; the gaps between units are
/// the "valid partition points" the paper counts when sizing the mapping
/// space (3^units per DNN on a three-component platform).
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Human-readable block name, e.g. `"conv1"` or `"bottleneck3_2"`.
    pub name: String,
    /// The layers fused into this unit, in execution order.
    pub layers: Vec<LayerDesc>,
}

impl Unit {
    /// Creates a unit from named layers.
    pub fn new(name: impl Into<String>, layers: Vec<LayerDesc>) -> Self {
        Self { name: name.into(), layers }
    }

    /// Total FLOPs of one inference through this unit.
    pub fn flops(&self) -> f64 {
        self.layers.iter().map(LayerDesc::flops).sum()
    }

    /// Total weight bytes held by this unit.
    pub fn weight_bytes(&self) -> u64 {
        self.layers.iter().map(LayerDesc::weight_bytes).sum()
    }

    /// Peak activation bytes inside the unit (max of any layer's
    /// input+output footprint).
    pub fn peak_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.ifm_bytes() + l.ofm_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Working-set estimate for contention modelling: weights plus peak
    /// activations.
    pub fn working_set_bytes(&self) -> u64 {
        self.weight_bytes() + self.peak_activation_bytes()
    }

    /// Shape of the tensor leaving this unit (the transfer payload when the
    /// next unit lives on a different component).
    ///
    /// # Panics
    ///
    /// Panics if the unit has no layers (never produced by the zoo).
    pub fn output_shape(&self) -> TensorShape {
        self.layers.last().expect("unit has layers").ofm
    }

    /// Number of kernel launches this unit costs (one per layer).
    pub fn kernel_count(&self) -> usize {
        self.layers.len()
    }
}

/// A complete DNN description: input shape plus ordered schedulable units.
///
/// Descriptions are immutable once built, so the name and unit list live
/// behind `Arc`s: cloning a model (every [`ModelId::build`], every
/// workload that holds it) bumps two refcounts instead of copying the
/// layer list. The total FLOP count is summed once, at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnModel {
    id: ModelId,
    name: Arc<str>,
    input: TensorShape,
    units: Arc<[Unit]>,
    total_flops: f64,
}

impl DnnModel {
    /// Assembles a model. Used by the zoo builders; library users normally
    /// call [`ModelId::build`].
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty.
    pub fn new(id: ModelId, name: impl Into<String>, input: TensorShape, units: Vec<Unit>) -> Self {
        assert!(!units.is_empty(), "a model needs at least one unit");
        let total_flops = units.iter().map(Unit::flops).sum();
        Self { id, name: Arc::from(name.into()), input, units: Arc::from(units), total_flops }
    }

    /// The registry id this model was built from.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// Human-readable architecture name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Network input shape.
    pub fn input(&self) -> TensorShape {
        self.input
    }

    /// The schedulable units in execution order.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Number of schedulable units (valid partition points + 1).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Iterator over all layers across units, in execution order.
    pub fn layers(&self) -> impl Iterator<Item = &LayerDesc> {
        self.units.iter().flat_map(|u| u.layers.iter())
    }

    /// Number of layers across all units.
    pub fn layer_count(&self) -> usize {
        self.units.iter().map(|u| u.layers.len()).sum()
    }

    /// Total FLOPs for one inference (the per-unit sum, in unit order).
    pub fn total_flops(&self) -> f64 {
        self.total_flops
    }

    /// Total parameter bytes.
    pub fn total_weight_bytes(&self) -> u64 {
        self.units.iter().map(Unit::weight_bytes).sum()
    }
}

impl fmt::Display for DnnModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} units, {} layers, {:.2} GFLOPs, {:.1} MB weights)",
            self.name,
            self.unit_count(),
            self.layer_count(),
            self.total_flops() / 1e9,
            self.total_weight_bytes() as f64 / 1e6
        )
    }
}

macro_rules! model_registry {
    ($(($variant:ident, $name:literal, $builder:path)),+ $(,)?) => {
        /// Identifier for every architecture in the reproduction's model pool.
        ///
        /// The 23 pool models of the paper plus Inception-ResNet-V1 (used in
        /// the paper's Fig. 8 dynamic-workload experiment).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(missing_docs)]
        pub enum ModelId {
            $($variant),+
        }

        impl ModelId {
            /// Every model in the registry, in declaration order.
            pub fn all() -> Vec<ModelId> {
                vec![$(ModelId::$variant),+]
            }

            /// Canonical architecture name (matches the paper's spelling).
            pub fn name(self) -> &'static str {
                match self {
                    $(ModelId::$variant => $name),+
                }
            }

            /// The full layer-level description of this architecture.
            ///
            /// Every description is built once per process, on the first
            /// call, and shared: the returned model is a clone whose unit
            /// storage is the same allocation for every caller.
            pub fn build(self) -> DnnModel {
                static ZOO: OnceLock<Vec<DnnModel>> = OnceLock::new();
                let zoo = ZOO.get_or_init(|| {
                    ModelId::all().into_iter().map(ModelId::build_uncached).collect()
                });
                zoo[self as usize].clone()
            }

            /// Runs this architecture's zoo builder.
            fn build_uncached(self) -> DnnModel {
                match self {
                    $(ModelId::$variant => $builder(self)),+
                }
            }
        }

        impl FromStr for ModelId {
            type Err = ParseModelError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $($name => Ok(ModelId::$variant),)+
                    _ => Err(ParseModelError { input: s.to_string() }),
                }
            }
        }
    };
}

model_registry! {
    (AlexNet, "AlexNet", zoo::alexnet::build),
    (DenseNet121, "DenseNet-121", zoo::densenet::build_121),
    (DenseNet169, "DenseNet-169", zoo::densenet::build_169),
    (EfficientNetB0, "EfficientNet-B0", zoo::efficientnet::build_b0),
    (EfficientNetB1, "EfficientNet-B1", zoo::efficientnet::build_b1),
    (EfficientNetB2, "EfficientNet-B2", zoo::efficientnet::build_b2),
    (GoogleNet, "GoogleNet", zoo::inception::build_googlenet),
    (InceptionResnetV1, "Inception-ResNet-V1", zoo::inception::build_inception_resnet_v1),
    (InceptionResnetV2, "Inception-ResNet-V2", zoo::inception::build_inception_resnet_v2),
    (InceptionV3, "Inception-V3", zoo::inception::build_v3),
    (InceptionV4, "Inception-V4", zoo::inception::build_v4),
    (MobileNet, "MobileNet", zoo::mobilenet::build_v1),
    (MobileNetV2, "MobileNet-V2", zoo::mobilenet::build_v2),
    (ResNet12, "ResNet-12", zoo::resnet::build_12),
    (ResNet50, "ResNet-50", zoo::resnet::build_50),
    (ResNet50V2, "ResNet-50-V2", zoo::resnet::build_50_v2),
    (ResNext50, "ResNeXt-50", zoo::resnet::build_resnext_50),
    (ShuffleNet, "ShuffleNet", zoo::shufflenet::build),
    (SqueezeNet, "SqueezeNet", zoo::squeezenet::build_v1),
    (SqueezeNetV2, "SqueezeNet-V2", zoo::squeezenet::build_v2),
    (SsdMobileNet, "SSD-MobileNet", zoo::detection::build_ssd_mobilenet),
    (YoloV3, "YOLO-V3", zoo::detection::build_yolo_v3),
    (Vgg16, "VGG-16", zoo::vgg::build_16),
    (Vgg19, "VGG-19", zoo::vgg::build_19),
}

impl ModelId {
    /// The 23-model training pool from the paper (everything except
    /// Inception-ResNet-V1, which only appears in the dynamic experiment).
    pub fn paper_pool() -> Vec<ModelId> {
        ModelId::all()
            .into_iter()
            .filter(|m| *m != ModelId::InceptionResnetV1)
            .collect()
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown model name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    input: String,
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown model name: {:?}", self.input)
    }
}

impl std::error::Error for ParseModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_24_models() {
        assert_eq!(ModelId::all().len(), 24);
        assert_eq!(ModelId::paper_pool().len(), 23);
    }

    #[test]
    fn names_parse_roundtrip() {
        for id in ModelId::all() {
            let parsed: ModelId = id.name().parse().expect("roundtrip");
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn unknown_name_errors() {
        let err = "NotANet".parse::<ModelId>().unwrap_err();
        assert!(err.to_string().contains("NotANet"));
    }

    #[test]
    fn every_model_builds_nonempty() {
        for id in ModelId::all() {
            let m = id.build();
            assert!(m.unit_count() >= 5, "{} has too few units", id);
            assert!(m.unit_count() <= 32, "{} has too many units ({})", id, m.unit_count());
            assert!(m.total_flops() > 1e8, "{} has implausibly few FLOPs", id);
            for u in m.units() {
                assert!(!u.layers.is_empty(), "{} unit {} empty", id, u.name);
            }
        }
    }

    #[test]
    fn layer_indices_are_global_and_increasing() {
        for id in ModelId::all() {
            let m = id.build();
            let mut prev = None;
            for l in m.layers() {
                if let Some(p) = prev {
                    assert!(l.index > p, "{}: layer indices must strictly increase", id);
                }
                prev = Some(l.index);
            }
        }
    }

    #[test]
    fn builds_match_the_zoo_and_share_units() {
        for id in ModelId::all() {
            let a = id.build();
            let b = id.build();
            assert_eq!(a, id.build_uncached(), "{id}: shared build differs from its builder");
            assert_eq!(a.id(), id);
            assert!(
                std::ptr::eq(a.units().as_ptr(), b.units().as_ptr()),
                "{id}: two builds must share unit storage"
            );
        }
    }

    #[test]
    fn cached_total_flops_is_the_unit_sum_bit_for_bit() {
        for id in ModelId::all() {
            let m = id.build();
            let summed: f64 = m.units().iter().map(Unit::flops).sum();
            assert_eq!(m.total_flops().to_bits(), summed.to_bits(), "{id}");
        }
    }

    #[test]
    fn unit_shapes_chain() {
        // The input of each unit's first layer matches the previous unit's
        // output for strictly sequential models (VGG is sequential).
        let m = ModelId::Vgg16.build();
        for w in m.units().windows(2) {
            let out = w[0].output_shape();
            let next_in = w[1].layers[0].ifm;
            assert_eq!(out, next_in, "VGG-16 units must chain");
        }
    }
}
