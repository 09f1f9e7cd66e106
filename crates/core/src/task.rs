//! Flattened multi-DNN task graphs.

use herald_cost::LayerKey;
use herald_models::{Layer, LayerId};
use herald_workloads::MultiDnnWorkload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`TaskGraph::identity`] values; 0 is never handed out.
static NEXT_GRAPH_IDENTITY: AtomicU64 = AtomicU64::new(1);

/// Index of a task (one MAC layer of one model replica) in a
/// [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A dependence-ordered task list flattened from a multi-DNN workload.
///
/// Layers of different model replicas are independent (the property the
/// Herald scheduler exploits for layer parallelism, Sec. III-B); layers
/// within a replica keep their model's dependence edges.
///
/// # Example
///
/// ```
/// use herald_core::task::TaskGraph;
///
/// let w = herald_workloads::single_model(herald_models::zoo::mobilenet_v2(), 2);
/// let graph = TaskGraph::new(&w);
/// assert_eq!(graph.len(), 2 * 53);
/// // The two replicas are independent: the second replica's first layer
/// // has no dependences.
/// let second_start = graph.instance_tasks(1)[0];
/// assert!(graph.deps(second_start).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TaskGraph {
    workload: MultiDnnWorkload,
    /// Task index of the first layer of each instance.
    offsets: Vec<usize>,
    /// Per-task dependence lists (within-instance edges, remapped).
    deps: Vec<Vec<TaskId>>,
    /// Per-task layer class (see [`TaskGraph::layer_class`]).
    classes: Vec<usize>,
    /// Number of distinct layer classes.
    num_classes: usize,
    total: usize,
    /// Lazily computed structural-fingerprint section (layers, edges,
    /// instance offsets), shared by clones made after the first
    /// computation. See [`crate::ctx::ScheduleFingerprint`].
    fingerprint: std::sync::OnceLock<[u64; 2]>,
    /// See [`TaskGraph::identity`].
    identity: u64,
}

impl TaskGraph {
    /// Flattens a workload into a task graph.
    pub fn new(workload: &MultiDnnWorkload) -> Self {
        let mut offsets = Vec::with_capacity(workload.instances().len());
        let mut deps: Vec<Vec<TaskId>> = Vec::with_capacity(workload.total_layers());
        let mut classes = Vec::with_capacity(workload.total_layers());
        let mut class_of: HashMap<LayerKey, usize> = HashMap::new();
        let mut next = 0usize;
        for inst in workload.instances() {
            offsets.push(next);
            let model = inst.model();
            for (lid, layer) in model.iter() {
                let d = model
                    .predecessors(lid)
                    .iter()
                    .map(|p| TaskId(next + p.0))
                    .collect();
                deps.push(d);
                let fresh = class_of.len();
                classes.push(*class_of.entry(LayerKey::of(layer)).or_insert(fresh));
            }
            next += model.num_layers();
        }
        Self {
            workload: workload.clone(),
            offsets,
            deps,
            classes,
            num_classes: class_of.len(),
            total: next,
            fingerprint: std::sync::OnceLock::new(),
            identity: NEXT_GRAPH_IDENTITY.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A content identity: unique to each [`TaskGraph::new`] call and
    /// shared by every clone of its result. A graph is never mutated
    /// after construction, so two graphs with equal identities have equal
    /// contents, and a check made against one holds for the other (the
    /// schedule memo verifies each entry's graph section once per
    /// identity, see [`crate::ctx::ScheduleState::lookup`]). Never 0.
    pub(crate) fn identity(&self) -> u64 {
        self.identity
    }

    /// The workload this graph was built from.
    pub fn workload(&self) -> &MultiDnnWorkload {
        &self.workload
    }

    /// Total number of tasks.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of model replicas (independent dependence chains).
    pub fn num_instances(&self) -> usize {
        self.offsets.len()
    }

    /// The instance a task belongs to.
    pub fn instance_of(&self, task: TaskId) -> usize {
        match self.offsets.binary_search(&task.0) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The first task of one instance (alloc-free companion to
    /// [`TaskGraph::instance_tasks`]).
    pub fn instance_first_task(&self, instance: usize) -> TaskId {
        TaskId(self.offsets[instance])
    }

    /// The graph-structure section of this graph's schedule
    /// fingerprint: a deterministic 128-bit digest of the layer shapes,
    /// dependence edges and instance offsets. Computed on first use and
    /// cached for the graph's lifetime (the "precalculated" memo tier:
    /// the streaming engine warms it for every stream graph at init, so
    /// per-arrival fingerprinting only hashes the accelerator /
    /// scheduler / cost-model tail).
    pub fn structural_fingerprint(&self) -> [u64; 2] {
        *self
            .fingerprint
            .get_or_init(|| crate::ctx::graph_fingerprint(self))
    }

    /// The tasks of one instance, in layer order.
    pub fn instance_tasks(&self, instance: usize) -> Vec<TaskId> {
        let start = self.offsets[instance];
        let end = if instance + 1 < self.offsets.len() {
            self.offsets[instance + 1]
        } else {
            self.total
        };
        (start..end).map(TaskId).collect()
    }

    /// The layer a task executes.
    pub fn layer(&self, task: TaskId) -> &Layer {
        let instance = self.instance_of(task);
        let local = LayerId(task.0 - self.offsets[instance]);
        self.workload.instances()[instance].model().layer(local)
    }

    /// The dependences of a task (always earlier tasks of the same
    /// instance).
    pub fn deps(&self, task: TaskId) -> &[TaskId] {
        &self.deps[task.0]
    }

    /// A human-readable label, e.g. `"UNet#2/enc1_conv1"`.
    pub fn label(&self, task: TaskId) -> String {
        let instance = self.instance_of(task);
        format!(
            "{}/{}",
            self.workload.instances()[instance].label(),
            self.layer(task).name()
        )
    }

    /// Iterates over all task ids in flattened (topological) order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.total).map(TaskId)
    }

    /// The layer class of a task, in `0..num_layer_classes()`. Two tasks
    /// share a class exactly when their layers have equal [`LayerKey`]s
    /// (shape, operator and density bits, the layer part of the cost
    /// model's memo key; `name` and `seq_position` do not change a cost).
    /// So on any sub-accelerator and under any metric, every task of a
    /// class has the same [`herald_cost::LayerCost`], and a caller can
    /// query the cost model once per class instead of once per task.
    /// Classes are numbered in order of their first task.
    pub(crate) fn layer_class(&self, task: TaskId) -> usize {
        self.classes[task.0]
    }

    /// The number of distinct layer classes (see
    /// [`TaskGraph::layer_class`]); at most [`TaskGraph::len`].
    pub(crate) fn num_layer_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_models::{zoo, LayerDims, LayerOp};
    use herald_workloads::MultiDnnWorkload;

    fn graph() -> TaskGraph {
        let w = MultiDnnWorkload::new("w")
            .with_model(zoo::mobilenet_v1(), 2)
            .with_model(zoo::gnmt(), 1);
        TaskGraph::new(&w)
    }

    #[test]
    fn total_is_sum_of_instance_layers() {
        assert_eq!(graph().len(), 28 * 2 + 35);
    }

    #[test]
    fn instances_are_independent() {
        let g = graph();
        for inst in 0..g.num_instances() {
            let first = g.instance_tasks(inst)[0];
            assert!(g.deps(first).is_empty(), "instance {inst}");
        }
    }

    #[test]
    fn deps_stay_within_instance() {
        let g = graph();
        for t in g.ids() {
            let inst = g.instance_of(t);
            for &d in g.deps(t) {
                assert_eq!(g.instance_of(d), inst);
                assert!(d < t);
            }
        }
    }

    #[test]
    fn instance_of_boundaries() {
        let g = graph();
        assert_eq!(g.instance_of(TaskId(0)), 0);
        assert_eq!(g.instance_of(TaskId(27)), 0);
        assert_eq!(g.instance_of(TaskId(28)), 1);
        assert_eq!(g.instance_of(TaskId(56)), 2);
    }

    #[test]
    fn labels_include_replica_and_layer() {
        let g = graph();
        assert_eq!(g.label(TaskId(28)), "MobileNetV1#1/conv1");
    }

    #[test]
    fn layer_lookup_matches_model() {
        let g = graph();
        let t = g.instance_tasks(2)[0];
        assert_eq!(g.layer(t).name(), "enc1_ih");
    }

    /// The layer part of the cost model's memo key, spelled out.
    fn cost_identity(g: &TaskGraph, t: TaskId) -> (LayerDims, LayerOp, u64) {
        let l = g.layer(t);
        (*l.dims(), l.op(), l.density().to_bits())
    }

    #[test]
    fn layer_classes_partition_tasks_by_cost_identity_in_first_seen_order() {
        for g in [graph(), TaskGraph::new(&herald_workloads::arvr_b())] {
            // Two tasks share a class exactly when their cost identities
            // are equal.
            for a in g.ids() {
                for b in g.ids() {
                    assert_eq!(
                        g.layer_class(a) == g.layer_class(b),
                        cost_identity(&g, a) == cost_identity(&g, b),
                        "{a} vs {b}"
                    );
                }
            }
            // Walking the tasks in order, each class first appears as the
            // next unused number.
            let mut seen = 0;
            for t in g.ids() {
                let class = g.layer_class(t);
                assert!(class <= seen, "{t}: class {class} skips ahead of {seen}");
                seen += usize::from(class == seen);
            }
            assert_eq!(seen, g.num_layer_classes());
        }
    }

    #[test]
    fn name_and_sequence_position_do_not_split_a_class_but_density_does() {
        // Five equal-shape layers, each with its own name: the third
        // carries a sequence position, the last two a sparse density.
        let dims = LayerDims::conv(64, 32, 28, 28, 3, 3);
        let model = ["a", "b", "c", "d", "e"]
            .into_iter()
            .fold(herald_models::ModelBuilder::new("m"), |b, name| {
                b.chain(name, LayerOp::Conv2d, dims)
            })
            .build()
            .unwrap();
        let mut position = 0;
        let model = model.map_layers(|l| {
            position += 1;
            match position {
                3 => l.with_seq_position(5),
                4 | 5 => l.with_density(0.5),
                _ => l,
            }
        });
        let g = TaskGraph::new(&herald_workloads::single_model(model, 2));
        let classes: Vec<usize> = g.ids().map(|t| g.layer_class(t)).collect();
        assert_eq!(classes, [0, 0, 0, 1, 1, 0, 0, 0, 1, 1]);
        assert_eq!(g.num_layer_classes(), 2);
    }

    #[test]
    fn table_iii_workloads_have_pinned_layer_class_counts() {
        let counts: Vec<(usize, usize)> = herald_workloads::all_workloads()
            .iter()
            .map(|w| {
                let g = TaskGraph::new(w);
                (g.len(), g.num_layer_classes())
            })
            .collect();
        // AR/VR-A, AR/VR-B, MLPerf.
        assert_eq!(counts, [(412, 78), (464, 107), (217, 116)]);
    }
}
