//! The scheduling hypergraph of Section 3.2.
//!
//! For a unit-size instance and a schedule `S`, the hypergraph `H_S` has one
//! node per job (weighted with its resource requirement) and one edge per
//! time step, containing the jobs active in that step.  Its connected
//! components carry the structural information used by the lower bounds of
//! Lemmas 5 and 6 and by the (2 − 1/m)-approximation proof.

use crate::instance::Instance;
use crate::job::JobId;
use crate::rational::Ratio;
use crate::schedule::ScheduleTrace;

/// A plain union–find (disjoint set union) over `n` elements with union by
/// rank and path halving.  Small, allocation-free after construction; used to
/// compute connected components of scheduling hypergraphs.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Finds the representative of `x` (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the sets containing `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// One connected component `C_k` of a scheduling hypergraph, in left-to-right
/// (time) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The jobs (nodes) of the component.
    pub nodes: Vec<JobId>,
    /// The time steps whose edges lie inside the component (consecutive by
    /// Observation 2).
    pub steps: Vec<usize>,
    /// The component class `q_k`: the size of its first edge.
    pub class: usize,
}

impl Component {
    /// Number of nodes `|C_k|`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `#_k`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.steps.len()
    }

    /// First time step of the component.
    #[must_use]
    pub fn first_step(&self) -> usize {
        self.steps[0]
    }

    /// Last time step of the component.
    #[must_use]
    pub fn last_step(&self) -> usize {
        // lint: allow(panic_hygiene) — the constructor only builds components with at least one edge
        *self.steps.last().expect("component has at least one edge")
    }
}

/// The scheduling hypergraph `H_S` of a schedule, together with its connected
/// components ordered from left (earliest steps) to right.
#[derive(Debug, Clone)]
pub struct SchedulingGraph {
    /// Node weights: requirement of each job, in processor-major order.
    node_weights: Vec<(JobId, Ratio)>,
    /// Edges: for each time step `t < makespan`, the active jobs.
    edges: Vec<Vec<JobId>>,
    /// Connected components in time order.
    components: Vec<Component>,
}

impl SchedulingGraph {
    /// Builds the scheduling hypergraph from a validated trace.
    ///
    /// The construction follows §3.2: nodes are jobs, the edge of step `t`
    /// contains the active job of every processor that still has unfinished
    /// jobs at the start of step `t`.  Only the first `makespan` steps
    /// contribute edges (later steps are empty).
    #[must_use]
    pub fn build(instance: &Instance, trace: &ScheduleTrace) -> Self {
        let node_weights: Vec<(JobId, Ratio)> = instance
            .iter_jobs()
            .map(|(id, job)| (id, job.requirement))
            .collect();

        // Dense index for union-find.
        let index_of = |id: JobId| -> usize {
            node_weights
                .iter()
                .position(|(nid, _)| *nid == id)
                // lint: allow(panic_hygiene) — edges only name jobs drawn from the instance's own rows
                .expect("job id present in instance")
        };

        let makespan = trace.makespan();
        let mut edges: Vec<Vec<JobId>> = Vec::with_capacity(makespan);
        for t in 0..makespan {
            edges.push(trace.edge(t));
        }

        let mut uf = UnionFind::new(node_weights.len());
        for edge in &edges {
            for window in edge.windows(2) {
                uf.union(index_of(window[0]), index_of(window[1]));
            }
        }

        // A component is identified by the representative of (any of) its
        // nodes; collect edges per representative in time order.
        let mut components: Vec<Component> = Vec::new();
        let mut rep_to_component: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for (t, edge) in edges.iter().enumerate() {
            if edge.is_empty() {
                continue;
            }
            let rep = uf.find(index_of(edge[0]));
            let comp_idx = *rep_to_component.entry(rep).or_insert_with(|| {
                components.push(Component {
                    nodes: Vec::new(),
                    steps: Vec::new(),
                    class: edge.len(),
                });
                components.len() - 1
            });
            components[comp_idx].steps.push(t);
            for &job in edge {
                if !components[comp_idx].nodes.contains(&job) {
                    components[comp_idx].nodes.push(job);
                }
            }
        }

        // Components were created in order of their first edge, i.e. already
        // sorted left-to-right.
        SchedulingGraph {
            node_weights,
            edges,
            components,
        }
    }

    /// Number of nodes (jobs).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of edges (= makespan of the schedule).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The weight (resource requirement) of a node.
    #[must_use]
    pub fn node_weight(&self, id: JobId) -> Option<Ratio> {
        self.node_weights
            .iter()
            .find(|(nid, _)| *nid == id)
            .map(|(_, w)| *w)
    }

    /// The edge (active-job set) of time step `t`.
    #[must_use]
    pub fn edge(&self, t: usize) -> &[JobId] {
        &self.edges[t]
    }

    /// All edges in time order.
    #[must_use]
    pub fn edges(&self) -> &[Vec<JobId>] {
        &self.edges
    }

    /// The connected components `C_1, …, C_N` in left-to-right order.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of connected components `N`.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Average number of edges per component (the `#∅` of Theorem 7's proof).
    #[must_use]
    pub fn average_edges_per_component(&self) -> Ratio {
        if self.components.is_empty() {
            return Ratio::ZERO;
        }
        Ratio::new(self.num_edges() as i128, self.components.len() as i128)
    }

    /// Verifies Observation 2: each component's edges form a consecutive
    /// range of time steps.
    #[must_use]
    pub fn components_are_consecutive(&self) -> bool {
        self.components
            .iter()
            .all(|c| c.steps.windows(2).all(|w| w[1] == w[0] + 1))
    }

    /// Verifies Lemma 2 for a non-wasting, progressive and balanced schedule:
    /// `|C_k| ≥ #_k + q_k − 1` for every component except the last, and
    /// `|C_N| ≥ #_N` for the last.
    #[must_use]
    pub fn satisfies_lemma2(&self) -> bool {
        let n = self.components.len();
        self.components.iter().enumerate().all(|(k, c)| {
            if k + 1 < n {
                c.num_nodes() + 1 >= c.num_edges() + c.class
            } else {
                c.num_nodes() >= c.num_edges()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::multi::MultiStepper;
    use crate::rational::ratio;
    use crate::schedule::Schedule;

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 3));
        uf.union(1, 3);
        assert!(uf.connected(0, 4));
        assert_eq!(uf.component_count(), 2);
    }

    /// Greedily prioritizing jobs with the larger remaining requirement on the
    /// Figure 1 instance should produce the six edges / three components of
    /// the figure.
    fn fig1_instance() -> Instance {
        Instance::unit_from_percentages(&[&[20, 10, 10, 10], &[50, 55, 90, 55, 10], &[50, 40, 95]])
    }

    /// Builds the schedule of Figure 1a: in each step, serve active jobs in
    /// order of increasing remaining requirement (greedily finish as many
    /// jobs as possible).
    fn fig1_schedule(inst: &Instance) -> Schedule {
        let m = inst.processors();
        let mut b = MultiStepper::new_rational(inst);
        while !b.all_done() {
            let mut order: Vec<usize> = (0..m).filter(|&i| b.is_active(i)).collect();
            order.sort_by_key(|&i| b.remaining(i, 0));
            let mut shares = vec![Ratio::ZERO; m];
            let mut left = Ratio::ONE;
            for i in order {
                let give = b.step_demand(i, 0).min(left);
                shares[i] = give;
                left -= give;
                if left.is_zero() {
                    break;
                }
            }
            b.push_step(&shares);
        }
        b.finish().expect("k = 1 runs finish to a schedule")
    }

    #[test]
    fn figure1_graph_structure() {
        let inst = fig1_instance();
        let schedule = fig1_schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.makespan(), 6, "Figure 1 schedule has six time steps");

        let graph = SchedulingGraph::build(&inst, &trace);
        assert_eq!(graph.num_nodes(), 12);
        assert_eq!(graph.num_edges(), 6);
        assert!(graph.components_are_consecutive());
        // Figure 1b shows three components ordered left to right.
        assert_eq!(graph.num_components(), 3);
        let classes: Vec<usize> = graph.components().iter().map(|c| c.class).collect();
        assert_eq!(classes, vec![3, 3, 1]);
        // C1 = {e1, e2} with 5 nodes, C2 = {e3, e4, e5} with 6 nodes,
        // C3 = {e6} with a single node.
        let sizes: Vec<usize> = graph
            .components()
            .iter()
            .map(super::Component::num_nodes)
            .collect();
        assert_eq!(sizes, vec![5, 6, 1]);
        let edge_counts: Vec<usize> = graph
            .components()
            .iter()
            .map(super::Component::num_edges)
            .collect();
        assert_eq!(edge_counts, vec![2, 3, 1]);
        assert!(graph.satisfies_lemma2());
    }

    #[test]
    fn node_weights_match_requirements() {
        let inst = fig1_instance();
        let schedule = fig1_schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        let graph = SchedulingGraph::build(&inst, &trace);
        assert_eq!(
            graph.node_weight(crate::job::JobId::new(1, 2)),
            Some(ratio(9, 10))
        );
        assert_eq!(graph.node_weight(crate::job::JobId::new(9, 9)), None);
    }

    #[test]
    fn average_edges_per_component() {
        let inst = fig1_instance();
        let schedule = fig1_schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        let graph = SchedulingGraph::build(&inst, &trace);
        assert_eq!(graph.average_edges_per_component(), ratio(2, 1));
    }

    #[test]
    fn single_processor_graph_is_one_path_of_components() {
        let inst = Instance::unit_from_percentages(&[&[50, 50, 50]]);
        let schedule = Schedule::new(vec![
            vec![ratio(1, 2)],
            vec![ratio(1, 2)],
            vec![ratio(1, 2)],
        ]);
        let trace = schedule.trace(&inst).unwrap();
        let graph = SchedulingGraph::build(&inst, &trace);
        // Each job is its own component (edges are singletons).
        assert_eq!(graph.num_components(), 3);
        assert!(graph.components().iter().all(|c| c.class == 1));
        assert!(graph.satisfies_lemma2());
    }
}
