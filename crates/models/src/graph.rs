//! Dependence-ordered DNN layer graphs.

use crate::{Layer, LayerDims, LayerOp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Index of a layer within its [`DnnModel`].
///
/// Layers are stored in a topological (dependence-respecting) order, which
/// the builder guarantees by only allowing edges from already-added layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerId(pub usize);

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Error produced while constructing a [`DnnModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A layer name was used twice within one model.
    DuplicateLayerName(String),
    /// A dependence edge referenced a layer that does not exist (yet).
    UnknownDependency {
        /// Layer being added.
        layer: String,
        /// The missing predecessor id.
        missing: LayerId,
    },
    /// The model has no layers.
    Empty,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateLayerName(name) => {
                write!(f, "duplicate layer name `{name}`")
            }
            ModelError::UnknownDependency { layer, missing } => {
                write!(f, "layer `{layer}` depends on unknown layer {missing}")
            }
            ModelError::Empty => write!(f, "model has no layers"),
        }
    }
}

impl Error for ModelError {}

/// A DNN model: a named, dependence-ordered list of MAC layers.
///
/// The dependence structure is a DAG stored as per-layer predecessor lists.
/// Sequential chains, skip connections (ResNet) and concatenations (UNet)
/// are all expressed as extra predecessor edges; non-MAC glue (pooling,
/// activation functions, element-wise adds) is folded into the shapes of the
/// surrounding MAC layers, exactly as analytical accelerator cost models
/// treat them.
///
/// # Example
///
/// ```
/// use herald_models::{LayerDims, LayerOp, ModelBuilder};
///
/// let model = ModelBuilder::new("tiny")
///     .chain("conv1", LayerOp::Conv2d, LayerDims::conv(8, 3, 16, 16, 3, 3).with_pad(1))
///     .chain("conv2", LayerOp::Conv2d, LayerDims::conv(8, 8, 16, 16, 3, 3).with_pad(1))
///     .build()
///     .unwrap();
/// assert_eq!(model.num_layers(), 2);
/// assert_eq!(model.predecessors(herald_models::LayerId(1)),
///            &[herald_models::LayerId(0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnModel {
    name: String,
    layers: Vec<Layer>,
    preds: Vec<Vec<LayerId>>,
}

impl DnnModel {
    /// The model name (e.g. `"Resnet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of MAC layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0]
    }

    /// All layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Iterates over `(LayerId, &Layer)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.layers.iter().enumerate().map(|(i, l)| (LayerId(i), l))
    }

    /// Predecessor (dependence) list of a layer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn predecessors(&self, id: LayerId) -> &[LayerId] {
        &self.preds[id.0]
    }

    /// Total MAC count across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total filter-weight element count across all layers.
    pub fn total_weight_elems(&self) -> u64 {
        self.layers.iter().map(Layer::weight_elems).sum()
    }

    /// Looks up a layer id by name.
    pub fn layer_id(&self, name: &str) -> Option<LayerId> {
        self.layers
            .iter()
            .position(|l| l.name() == name)
            .map(LayerId)
    }

    /// A copy of this model with every layer transformed (dependence
    /// edges and the model name are kept). The transform must preserve
    /// layer-name uniqueness; it is intended for identity-adjacent
    /// rewrites such as density or sequence-position stamping.
    #[must_use]
    pub fn map_layers(&self, mut f: impl FnMut(Layer) -> Layer) -> DnnModel {
        DnnModel {
            name: self.name.clone(),
            layers: self.layers.iter().cloned().map(&mut f).collect(),
            preds: self.preds.clone(),
        }
    }

    /// A copy of this model with every layer's weight density set to
    /// `density`, renamed `"{name}@d{percent}"` so sparse variants are
    /// distinguishable in schedules and reports. `with_uniform_density(1.0)`
    /// keeps the name and is layer-for-layer equal to the original.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < density <= 1` and finite (see
    /// [`Layer::with_density`]).
    #[must_use]
    pub fn with_uniform_density(&self, density: f64) -> DnnModel {
        let mut model = self.map_layers(|l| l.with_density(density));
        if density < 1.0 {
            model.name = format!("{}@d{:.0}", self.name, density * 100.0);
        }
        model
    }
}

impl fmt::Display for DnnModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} layers)", self.name, self.layers.len())
    }
}

/// Incremental builder for [`DnnModel`] graphs.
///
/// [`ModelBuilder::chain`] appends a layer depending on the previous one
/// (the common sequential case); [`ModelBuilder::layer_with_deps`] expresses
/// skip connections and concatenations by naming explicit predecessors.
#[derive(Debug)]
pub struct ModelBuilder {
    name: String,
    layers: Vec<Layer>,
    preds: Vec<Vec<LayerId>>,
    names: HashMap<String, LayerId>,
    error: Option<ModelError>,
}

impl ModelBuilder {
    /// Starts building a model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
            preds: Vec::new(),
            names: HashMap::new(),
            error: None,
        }
    }

    /// Id of the most recently added layer, if any.
    pub fn last_id(&self) -> Option<LayerId> {
        self.layers.len().checked_sub(1).map(LayerId)
    }

    /// Appends a layer that depends on the previously added layer (or has no
    /// dependence if it is the first layer).
    #[must_use]
    pub fn chain(self, name: impl Into<String>, op: LayerOp, dims: LayerDims) -> Self {
        let deps: Vec<LayerId> = self.last_id().into_iter().collect();
        self.layer_with_deps(name, op, dims, &deps)
    }

    /// Appends an input layer with no dependences (useful for models with
    /// multiple entry points).
    #[must_use]
    pub fn input(self, name: impl Into<String>, op: LayerOp, dims: LayerDims) -> Self {
        self.layer_with_deps(name, op, dims, &[])
    }

    /// Appends a layer with an explicit predecessor list. Use this to
    /// express skip connections (extra edge from an earlier layer) and
    /// concatenations (two or more predecessors).
    #[must_use]
    pub fn layer_with_deps(
        mut self,
        name: impl Into<String>,
        op: LayerOp,
        dims: LayerDims,
        deps: &[LayerId],
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        let name = name.into();
        if self.names.contains_key(&name) {
            self.error = Some(ModelError::DuplicateLayerName(name));
            return self;
        }
        for &d in deps {
            if d.0 >= self.layers.len() {
                self.error = Some(ModelError::UnknownDependency {
                    layer: name,
                    missing: d,
                });
                return self;
            }
        }
        let id = LayerId(self.layers.len());
        self.names.insert(name.clone(), id);
        self.layers.push(Layer::new(name, op, dims));
        self.preds.push(deps.to_vec());
        self
    }

    /// Finishes the model.
    ///
    /// # Errors
    ///
    /// Returns the first construction error encountered, or
    /// [`ModelError::Empty`] if no layers were added.
    pub fn build(self) -> Result<DnnModel, ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.layers.is_empty() {
            return Err(ModelError::Empty);
        }
        Ok(DnnModel {
            name: self.name,
            layers: self.layers,
            preds: self.preds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> LayerDims {
        LayerDims::conv(8, 8, 16, 16, 3, 3).with_pad(1)
    }

    fn entry_dims() -> LayerDims {
        LayerDims::conv(8, 3, 16, 16, 3, 3).with_pad(1)
    }

    #[test]
    fn chain_builds_linear_dependence() {
        let m = ModelBuilder::new("m")
            .chain("a", LayerOp::Conv2d, entry_dims())
            .chain("b", LayerOp::Conv2d, dims())
            .chain("c", LayerOp::Conv2d, dims())
            .build()
            .unwrap();
        assert_eq!(m.predecessors(LayerId(0)), &[]);
        assert_eq!(m.predecessors(LayerId(1)), &[LayerId(0)]);
        assert_eq!(m.predecessors(LayerId(2)), &[LayerId(1)]);
    }

    #[test]
    fn skip_connection_adds_second_edge() {
        let m = ModelBuilder::new("m")
            .chain("a", LayerOp::Conv2d, entry_dims())
            .chain("b", LayerOp::Conv2d, dims())
            .layer_with_deps("c", LayerOp::Conv2d, dims(), &[LayerId(0), LayerId(1)])
            .build()
            .unwrap();
        assert_eq!(m.predecessors(LayerId(2)), &[LayerId(0), LayerId(1)]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let e = ModelBuilder::new("m")
            .chain("a", LayerOp::Conv2d, entry_dims())
            .chain("a", LayerOp::Conv2d, dims())
            .build()
            .unwrap_err();
        assert_eq!(e, ModelError::DuplicateLayerName("a".into()));
    }

    #[test]
    fn forward_dependency_rejected() {
        let e = ModelBuilder::new("m")
            .layer_with_deps("a", LayerOp::Conv2d, entry_dims(), &[LayerId(3)])
            .build()
            .unwrap_err();
        assert!(matches!(e, ModelError::UnknownDependency { .. }));
    }

    #[test]
    fn empty_model_rejected() {
        assert_eq!(
            ModelBuilder::new("m").build().unwrap_err(),
            ModelError::Empty
        );
    }

    #[test]
    fn layer_lookup_by_name() {
        let m = ModelBuilder::new("m")
            .chain("a", LayerOp::Conv2d, entry_dims())
            .chain("b", LayerOp::Conv2d, dims())
            .build()
            .unwrap();
        assert_eq!(m.layer_id("b"), Some(LayerId(1)));
        assert_eq!(m.layer_id("zzz"), None);
    }

    #[test]
    fn totals_aggregate_layers() {
        let m = ModelBuilder::new("m")
            .chain("a", LayerOp::Conv2d, entry_dims())
            .chain("b", LayerOp::Conv2d, dims())
            .build()
            .unwrap();
        assert_eq!(
            m.total_macs(),
            m.layer(LayerId(0)).macs() + m.layer(LayerId(1)).macs()
        );
        assert!(m.total_weight_elems() > 0);
    }

    #[test]
    fn uniform_density_stamps_every_layer_and_renames() {
        let m = ModelBuilder::new("m")
            .chain("a", LayerOp::Conv2d, entry_dims())
            .chain("b", LayerOp::Conv2d, dims())
            .build()
            .unwrap();
        let sparse = m.with_uniform_density(0.4);
        assert_eq!(sparse.name(), "m@d40");
        assert_eq!(sparse.num_layers(), m.num_layers());
        for (id, layer) in sparse.iter() {
            assert_eq!(layer.density(), 0.4);
            assert_eq!(layer.dims(), m.layer(id).dims());
            assert_eq!(sparse.predecessors(id), m.predecessors(id));
        }
        // Density 1.0 is the identity transform, name included.
        assert_eq!(m.with_uniform_density(1.0), m);
    }

    #[test]
    fn map_layers_preserves_structure() {
        let m = ModelBuilder::new("m")
            .chain("a", LayerOp::Conv2d, entry_dims())
            .chain("b", LayerOp::Conv2d, dims())
            .build()
            .unwrap();
        let stamped = m.map_layers(|l| l.with_seq_position(9));
        assert_eq!(stamped.name(), "m");
        assert!(stamped.layers().iter().all(|l| l.seq_position() == 9));
        assert_eq!(stamped.predecessors(LayerId(1)), &[LayerId(0)]);
    }

    #[test]
    fn errors_are_displayable() {
        let e = ModelError::DuplicateLayerName("x".into());
        assert!(e.to_string().contains("duplicate"));
        let e = ModelError::UnknownDependency {
            layer: "x".into(),
            missing: LayerId(9),
        };
        assert!(e.to_string().contains("L9"));
    }
}
