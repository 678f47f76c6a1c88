//! Bottom-up aggregation of instance power traces through the tree.

use std::cmp::Reverse;

use so_parallel::par_map;
use so_powertrace::{peak_after_write, PowerTrace, SlackProfile, TimeGrid, TraceError};

use crate::assignment::Assignment;
use crate::error::TreeError;
use crate::level::Level;
use crate::node::NodeId;
use crate::topology::PowerTopology;

/// Per-node aggregate power traces for one (assignment, trace-set) pair.
///
/// The aggregate at a node is the element-wise sum of the traces of every
/// instance hosted in its subtree — exactly what the node's power sensor
/// would read.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use so_powertrace::PowerTrace;
/// use so_powertree::{Assignment, NodeAggregates, PowerTopology};
///
/// let topo = PowerTopology::builder().build()?;
/// let traces = vec![PowerTrace::new(vec![100.0, 200.0], 10)?; 10];
/// let assignment = Assignment::round_robin(&topo, 10)?;
/// let agg = NodeAggregates::compute(&topo, &assignment, &traces)?;
/// assert_eq!(agg.trace(topo.root())?.peak(), 2000.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NodeAggregates {
    traces: Vec<PowerTrace>,
    /// `traces[i].peak()`, kept exact by every re-sum (see
    /// [`peak_after_write`]), so [`NodeAggregates::peak`],
    /// [`NodeAggregates::headroom`] and [`NodeAggregates::sum_of_peaks`]
    /// are O(1) per node instead of a rescan of the trace.
    peaks: Vec<f64>,
    /// Reused accumulator of the re-sum kernel, so a refresh allocates
    /// nothing per node.
    sums: Vec<f64>,
}

/// The columns one re-sum covers.
#[derive(Debug, Clone, Copy)]
enum Columns<'c> {
    /// Every column of the grid, in order.
    All,
    /// The listed columns, in list order.
    Only(&'c [usize]),
}

impl Columns<'_> {
    /// Number of columns covered on a grid `width` columns wide.
    fn count(self, width: usize) -> usize {
        match self {
            Columns::All => width,
            Columns::Only(cols) => cols.len(),
        }
    }

    /// The grid column of the `k`-th covered entry.
    fn column(self, k: usize) -> usize {
        match self {
            Columns::All => k,
            Columns::Only(cols) => cols[k],
        }
    }
}

/// Accumulate half of the per-node re-sum kernel: for each covered
/// column, the sum of `rows` at that column, added in iteration order
/// onto a `0.0` accumulator — the float operations of
/// [`NodeAggregate::add`](so_powertrace::NodeAggregate::add), column by
/// column. `sums[k]` is the sum at `columns.column(k)`.
fn accumulate<'a>(
    width: usize,
    columns: Columns<'_>,
    rows: impl IntoIterator<Item = &'a [f64]>,
    sums: &mut Vec<f64>,
) -> Result<(), TreeError> {
    if let Columns::Only(cols) = columns {
        if let Some(&c) = cols.iter().find(|&&c| c >= width) {
            return Err(TraceError::OutOfBounds {
                requested: c,
                len: width,
            }
            .into());
        }
    }
    sums.clear();
    sums.resize(columns.count(width), 0.0);
    for row in rows {
        if row.len() != width {
            return Err(TraceError::LengthMismatch {
                left: width,
                right: row.len(),
            }
            .into());
        }
        match columns {
            Columns::All => {
                for (acc, &v) in sums.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            Columns::Only(cols) => {
                for (acc, &c) in sums.iter_mut().zip(cols) {
                    *acc += row[c];
                }
            }
        }
    }
    Ok(())
}

/// Calls `visit` on every strict ancestor of `node`, keyed so that an
/// ascending sort of the keys visits the deepest level first.
fn for_each_ancestor(
    topology: &PowerTopology,
    node: NodeId,
    mut visit: impl FnMut(Reverse<usize>, NodeId),
) -> Result<(), TreeError> {
    let mut current = topology.node(node)?;
    while let Some(parent) = current.parent() {
        current = topology.node(parent)?;
        visit(Reverse(current.level().depth()), parent);
    }
    Ok(())
}

impl NodeAggregates {
    /// Aggregates instance traces through the tree.
    ///
    /// Racks are summed concurrently (each rack adds its instances in
    /// ascending id order), then one level-synchronous upward pass sums
    /// each internal node's children — nodes within a level are
    /// independent, so every level is also a parallel map. Both passes
    /// run the same per-node re-sum kernel as the incremental
    /// [`refresh_rack`](Self::refresh_rack) /
    /// [`refresh_ancestors`](Self::refresh_ancestors) family, so a
    /// maintained aggregate set is bit-identical to a recompute by
    /// construction. The result does not depend on the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InstanceCountMismatch`] when the assignment and
    /// trace set disagree, and propagates grid mismatches as
    /// [`TreeError::Trace`].
    pub fn compute(
        topology: &PowerTopology,
        assignment: &Assignment,
        instance_traces: &[PowerTrace],
    ) -> Result<Self, TreeError> {
        if assignment.len() != instance_traces.len() {
            return Err(TreeError::InstanceCountMismatch {
                assignment: assignment.len(),
                traces: instance_traces.len(),
            });
        }
        let grid = match instance_traces.first() {
            Some(t) => t.grid(),
            None => TimeGrid::new(1, 1),
        };
        if let Some(t) = instance_traces.iter().find(|t| t.grid() != grid) {
            return Err(if t.len() != grid.len() {
                TraceError::LengthMismatch {
                    left: grid.len(),
                    right: t.len(),
                }
            } else {
                TraceError::StepMismatch {
                    left: grid.step_minutes(),
                    right: t.step_minutes(),
                }
            }
            .into());
        }
        let width = grid.len();

        // Group instances by hosting rack (ascending instance id per rack).
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); topology.len()];
        for i in 0..instance_traces.len() {
            members[assignment.rack_of(i)?.index()].push(i);
        }

        let mut aggregates = Self::zeros(topology, grid);

        // Rack sums, one rack per parallel task.
        let racks = topology.nodes_at_level(Level::Rack);
        let sums = par_map(racks, 4, |_, &rack| -> Result<Vec<f64>, TreeError> {
            let mut sums = Vec::new();
            let rows = members[rack.index()]
                .iter()
                .map(|&i| instance_traces[i].samples());
            accumulate(width, Columns::All, rows, &mut sums)?;
            Ok(sums)
        });
        for (&rack, sums) in racks.iter().zip(sums) {
            aggregates.store(rack, Columns::All, &sums?)?;
        }

        // Upward pass, deepest internal level first; each node sums its
        // children in ascending id order.
        let mut level = Some(Level::Rpp);
        while let Some(current) = level {
            let nodes = topology.nodes_at_level(current);
            let sums = par_map(nodes, 4, |_, &id| -> Result<Vec<f64>, TreeError> {
                let mut sums = Vec::new();
                aggregates.accumulate_children(topology, id, Columns::All, &mut sums)?;
                Ok(sums)
            });
            let sums: Vec<Vec<f64>> = sums.into_iter().collect::<Result<_, _>>()?;
            for (&id, sums) in nodes.iter().zip(sums) {
                aggregates.store(id, Columns::All, &sums)?;
            }
            level = current.parent();
        }
        Ok(aggregates)
    }

    /// An all-zero aggregate set on `grid` — the starting state of an
    /// incremental maintainer (an empty fleet sums to zero at every node).
    ///
    /// Unlike [`NodeAggregates::compute`] on an empty fleet (which has no
    /// trace to take a grid from), the grid here is explicit, so the zero
    /// traces live on the same grid later refreshes will use.
    pub fn zeros(topology: &PowerTopology, grid: TimeGrid) -> Self {
        let traces: Vec<PowerTrace> = (0..topology.len())
            .map(|_| PowerTrace::zeros(grid))
            .collect();
        let peaks = traces.iter().map(PowerTrace::peak).collect();
        Self {
            traces,
            peaks,
            sums: Vec::new(),
        }
    }

    /// Accumulates the children of internal node `id` (ascending id
    /// order) over `columns`.
    fn accumulate_children(
        &self,
        topology: &PowerTopology,
        id: NodeId,
        columns: Columns<'_>,
        sums: &mut Vec<f64>,
    ) -> Result<(), TreeError> {
        let width = self.trace(id)?.len();
        let children = topology.node(id)?.children();
        let rows = children.iter().map(|c| self.traces[c.index()].samples());
        accumulate(width, columns, rows, sums)
    }

    /// Store half of the per-node re-sum kernel: clamps each of `sums` at
    /// zero (the materialization [`NodeAggregate::to_trace`] performs),
    /// writes it in place at its column, and keeps the cached peak exact
    /// per write with [`peak_after_write`] — one rescan of the node at the
    /// end only when some write tied the peak or overwrote a peak sample.
    ///
    /// [`NodeAggregate::to_trace`]: so_powertrace::NodeAggregate::to_trace
    fn store(&mut self, node: NodeId, columns: Columns<'_>, sums: &[f64]) -> Result<(), TreeError> {
        let trace = &mut self.traces[node.index()];
        let mut peak = Some(self.peaks[node.index()]);
        for (k, &sum) in sums.iter().enumerate() {
            let column = columns.column(k);
            let new = sum.max(0.0);
            let old = trace.samples()[column];
            trace.set_sample(column, new)?;
            peak = peak.and_then(|p| peak_after_write(p, old, new));
        }
        self.peaks[node.index()] = peak.unwrap_or_else(|| trace.peak());
        Ok(())
    }

    /// The per-node re-sum kernel: recomputes `node` over `columns` into
    /// the reused accumulator with `sum` (which reads a rack's member
    /// rows or an internal node's children), then [`store`](Self::store)s
    /// the result in place.
    fn resum(
        &mut self,
        node: NodeId,
        columns: Columns<'_>,
        sum: impl FnOnce(&Self, &mut Vec<f64>) -> Result<(), TreeError>,
    ) -> Result<(), TreeError> {
        let mut sums = std::mem::take(&mut self.sums);
        let result = sum(self, &mut sums).and_then(|()| self.store(node, columns, &sums));
        self.sums = sums;
        result
    }

    /// [`resum`](Self::resum) of rack `rack` from its member rows.
    fn resum_rack<'a>(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        columns: Columns<'_>,
        members: impl IntoIterator<Item = &'a [f64]>,
    ) -> Result<(), TreeError> {
        if !topology.node(rack)?.is_rack() {
            return Err(TreeError::NotARack(rack));
        }
        self.resum(rack, columns, |aggregates, sums| {
            accumulate(aggregates.trace(rack)?.len(), columns, members, sums)
        })
    }

    /// Canonically recomputes the aggregate of one rack from its member
    /// sample rows — the all-columns case of
    /// [`refresh_rack_columns`](Self::refresh_rack_columns).
    ///
    /// This is the leaf half of incremental maintenance: instead of
    /// adding/subtracting the changed member in place (which leaves
    /// floating-point residue — subtraction is not an exact inverse of
    /// addition), the rack's sum is rebuilt from scratch with exactly the
    /// float operations [`NodeAggregates::compute`] performs (members
    /// accumulated in iteration order onto a zero accumulator, then
    /// clamped at zero), written into the resident trace in place. Pass
    /// members in ascending instance order to stay bit-identical to a
    /// from-scratch [`NodeAggregates::compute`] of the same fleet.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology,
    /// [`TreeError::NotARack`] for internal nodes, and propagates row
    /// length mismatches as [`TreeError::Trace`].
    pub fn refresh_rack<'a>(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        members: impl IntoIterator<Item = &'a [f64]>,
    ) -> Result<(), TreeError> {
        self.resum_rack(topology, rack, Columns::All, members)
    }

    /// [`refresh_rack`](Self::refresh_rack) restricted to `columns`: only
    /// those columns of the rack are re-summed from its members, with the
    /// same per-column float operations, so the result is bit-identical
    /// to refreshing every column when the others are already current.
    /// The cost is O(members × columns) instead of O(members × T).
    ///
    /// # Errors
    ///
    /// As [`refresh_rack`](Self::refresh_rack), plus
    /// [`TraceError::OutOfBounds`] (as [`TreeError::Trace`]) for a column
    /// past the grid.
    pub fn refresh_rack_columns<'a>(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        columns: &[usize],
        members: impl IntoIterator<Item = &'a [f64]>,
    ) -> Result<(), TreeError> {
        self.resum_rack(topology, rack, Columns::Only(columns), members)
    }

    /// Canonically recomputes every ancestor of the given racks, deepest
    /// level first, after one or more [`refresh_rack`] calls — the
    /// all-columns case of
    /// [`refresh_ancestor_columns`](Self::refresh_ancestor_columns).
    ///
    /// Each affected internal node re-sums its children in ascending id
    /// order — the exact float work of [`NodeAggregates::compute`]'s upward
    /// pass — so the refreshed traces are bit-identical to a from-scratch
    /// recompute of the same fleet. Only the racks' ancestors are visited
    /// (collected, deduplicated and ordered deepest level first), which is
    /// what makes maintenance O(path) instead of O(tree).
    ///
    /// [`refresh_rack`]: NodeAggregates::refresh_rack
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology and
    /// propagates grid mismatches as [`TreeError::Trace`].
    pub fn refresh_ancestors(
        &mut self,
        topology: &PowerTopology,
        racks: &[NodeId],
    ) -> Result<(), TreeError> {
        let mut affected = Vec::new();
        for &rack in racks {
            for_each_ancestor(topology, rack, |depth, id| affected.push((depth, id)))?;
        }
        affected.sort_unstable();
        affected.dedup();
        for (_, id) in affected {
            self.resum(id, Columns::All, |aggregates, sums| {
                aggregates.accumulate_children(topology, id, Columns::All, sums)
            })?;
        }
        Ok(())
    }

    /// [`refresh_ancestors`](Self::refresh_ancestors) restricted to the
    /// touched `(node, column)` pairs: each ancestor of a touched node
    /// re-sums its children at exactly the union of its descendants'
    /// touched columns, deepest level first. Per column this is the
    /// float work of the full refresh, so after
    /// [`refresh_rack_columns`](Self::refresh_rack_columns) on the same
    /// pairs the aggregates are bit-identical to a from-scratch
    /// [`NodeAggregates::compute`]. The cost is O(touched pairs × path ×
    /// fan-in), plus one rescan per node whose peak a write tied or
    /// overwrote.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology and
    /// [`TraceError::OutOfBounds`] (as [`TreeError::Trace`]) for a column
    /// past the grid.
    pub fn refresh_ancestor_columns(
        &mut self,
        topology: &PowerTopology,
        touched: &[(NodeId, usize)],
    ) -> Result<(), TreeError> {
        let mut affected = Vec::new();
        for &(node, column) in touched {
            for_each_ancestor(topology, node, |depth, id| {
                affected.push((depth, id, column));
            })?;
        }
        affected.sort_unstable();
        affected.dedup();
        let mut columns = Vec::new();
        let mut rest = affected.as_slice();
        while let Some(&(_, id, _)) = rest.first() {
            let run = rest.iter().take_while(|&&(_, n, _)| n == id).count();
            columns.clear();
            columns.extend(rest[..run].iter().map(|&(_, _, c)| c));
            let only = Columns::Only(&columns);
            self.resum(id, only, |aggregates, sums| {
                aggregates.accumulate_children(topology, id, only, sums)
            })?;
            rest = &rest[run..];
        }
        Ok(())
    }

    /// The aggregate trace at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn trace(&self, node: NodeId) -> Result<&PowerTrace, TreeError> {
        self.traces
            .get(node.index())
            .ok_or(TreeError::UnknownNode(node))
    }

    /// Peak aggregate power at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn peak(&self, node: NodeId) -> Result<f64, TreeError> {
        self.peaks
            .get(node.index())
            .copied()
            .ok_or(TreeError::UnknownNode(node))
    }

    /// The paper's *sum of peaks* fragmentation indicator at one level: the
    /// sum over all nodes of that level of each node's aggregate peak.
    pub fn sum_of_peaks(&self, topology: &PowerTopology, level: Level) -> f64 {
        topology
            .nodes_at_level(level)
            .iter()
            .map(|&id| self.peaks[id.index()])
            .sum()
    }

    /// Headroom at `node`: budget minus aggregate peak (negative when the
    /// node is over-committed).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn headroom(&self, topology: &PowerTopology, node: NodeId) -> Result<f64, TreeError> {
        let budget = topology.node(node)?.budget_watts();
        Ok(budget - self.peak(node)?)
    }

    /// Slack profile of `node` against its configured budget.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn slack(&self, topology: &PowerTopology, node: NodeId) -> Result<SlackProfile, TreeError> {
        let budget = topology.node(node)?.budget_watts();
        Ok(SlackProfile::new(self.trace(node)?, budget)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(2)
            .rack_budget_watts(500.0)
            .build()
            .unwrap()
    }

    fn traces() -> Vec<PowerTrace> {
        vec![
            PowerTrace::new(vec![100.0, 0.0], 10).unwrap(),
            PowerTrace::new(vec![0.0, 100.0], 10).unwrap(),
            PowerTrace::new(vec![50.0, 50.0], 10).unwrap(),
            PowerTrace::new(vec![25.0, 75.0], 10).unwrap(),
        ]
    }

    #[test]
    fn root_aggregate_is_total() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        let root = agg.trace(t.root()).unwrap();
        assert_eq!(root.samples(), &[175.0, 225.0]);
    }

    #[test]
    fn rack_aggregates_match_assignment() {
        let t = topo();
        // Instances 0..3 round-robin across 4 racks: one per rack.
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        let racks = t.racks();
        assert_eq!(agg.trace(racks[0]).unwrap().samples(), &[100.0, 0.0]);
        assert_eq!(agg.trace(racks[3]).unwrap().samples(), &[25.0, 75.0]);
    }

    #[test]
    fn sum_of_peaks_counts_each_node() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        // Rack peaks: 100, 100, 50, 75.
        assert_eq!(agg.sum_of_peaks(&t, Level::Rack), 325.0);
        // Two RPPs: racks (0,1) -> [100, 100] peak 100; racks (2,3) -> [75, 125] peak 125.
        assert_eq!(agg.sum_of_peaks(&t, Level::Rpp), 225.0);
        // Root peak: 225.
        assert_eq!(agg.sum_of_peaks(&t, Level::Datacenter), 225.0);
    }

    #[test]
    fn headroom_and_slack() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        let rack = t.racks()[0];
        assert_eq!(agg.headroom(&t, rack).unwrap(), 400.0);
        let slack = agg.slack(&t, rack).unwrap();
        assert_eq!(slack.min_slack(), 400.0);
    }

    #[test]
    fn incremental_refresh_is_bit_identical_to_compute() {
        let t = topo();
        let traces = traces();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let grid = traces[0].grid();

        // Maintain incrementally: start from zeros, refresh each rack from
        // its members, then refresh the ancestor paths.
        let mut inc = NodeAggregates::zeros(&t, grid);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); t.len()];
        for i in 0..traces.len() {
            members[a.rack_of(i).unwrap().index()].push(i);
        }
        for &rack in t.racks() {
            inc.refresh_rack(
                &t,
                rack,
                members[rack.index()].iter().map(|&i| traces[i].samples()),
            )
            .unwrap();
        }
        inc.refresh_ancestors(&t, t.racks()).unwrap();

        let scratch = NodeAggregates::compute(&t, &a, &traces).unwrap();
        for id in t.nodes().iter().map(|n| n.id()) {
            let got = inc.trace(id).unwrap().samples();
            let want = scratch.trace(id).unwrap().samples();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "node {id} diverged");
            }
        }
    }

    #[test]
    fn partial_refresh_touches_only_named_paths() {
        let t = topo();
        let traces = traces();
        let grid = traces[0].grid();
        let mut inc = NodeAggregates::zeros(&t, grid);
        let rack = t.racks()[0];
        inc.refresh_rack(&t, rack, [traces[0].samples()]).unwrap();
        inc.refresh_ancestors(&t, &[rack]).unwrap();
        // The refreshed path carries the member; the sibling RPP stays zero.
        assert_eq!(inc.trace(rack).unwrap().samples(), traces[0].samples());
        assert_eq!(inc.peak(t.root()).unwrap(), 100.0);
        let other_rpp = t.nodes_at_level(Level::Rpp)[1];
        assert_eq!(inc.peak(other_rpp).unwrap(), 0.0);
    }

    /// Every node's cached peak carries the bits of a rescan of its trace.
    fn assert_peaks_cached(t: &PowerTopology, agg: &NodeAggregates) {
        for id in t.nodes().iter().map(|n| n.id()) {
            let cached = agg.peak(id).unwrap();
            let rescanned = agg.trace(id).unwrap().peak();
            assert_eq!(cached.to_bits(), rescanned.to_bits(), "node {id}");
        }
    }

    /// [`assert_peaks_cached`], plus every trace and peak carrying the bits
    /// of a from-scratch [`NodeAggregates::compute`] over `rows` placed by
    /// `assignment`.
    fn assert_matches_compute(
        t: &PowerTopology,
        agg: &NodeAggregates,
        assignment: &Assignment,
        rows: &[Vec<f64>],
    ) {
        assert_peaks_cached(t, agg);
        let traces: Vec<PowerTrace> = rows
            .iter()
            .map(|r| PowerTrace::new(r.clone(), 10).unwrap())
            .collect();
        let scratch = NodeAggregates::compute(t, assignment, &traces).unwrap();
        for id in t.nodes().iter().map(|n| n.id()) {
            let got = agg.trace(id).unwrap().samples();
            let want = scratch.trace(id).unwrap().samples();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "node {id} diverged");
            }
            assert_eq!(
                agg.peak(id).unwrap().to_bits(),
                scratch.peak(id).unwrap().to_bits(),
                "node {id} peak"
            );
        }
    }

    /// A maintained aggregate set over mutable instance rows: applies a
    /// batch of `(instance, column, watts)` writes, then refreshes only
    /// the touched `(rack, column)` pairs and their ancestors.
    struct Maintained {
        topology: PowerTopology,
        assignment: Assignment,
        rows: Vec<Vec<f64>>,
        agg: NodeAggregates,
    }

    impl Maintained {
        fn new(rows: Vec<Vec<f64>>) -> Self {
            let topology = topo();
            let assignment = Assignment::round_robin(&topology, rows.len()).unwrap();
            let traces: Vec<PowerTrace> = rows
                .iter()
                .map(|r| PowerTrace::new(r.clone(), 10).unwrap())
                .collect();
            let agg = NodeAggregates::compute(&topology, &assignment, &traces).unwrap();
            Self {
                topology,
                assignment,
                rows,
                agg,
            }
        }

        fn members(&self, rack: NodeId) -> Vec<usize> {
            (0..self.rows.len())
                .filter(|&i| self.assignment.rack_of(i).unwrap() == rack)
                .collect()
        }

        fn ingest(&mut self, batch: &[(usize, usize, f64)]) {
            let mut touched = Vec::new();
            for &(i, column, watts) in batch {
                self.rows[i][column] = watts;
                touched.push((self.assignment.rack_of(i).unwrap(), column));
            }
            touched.sort_unstable();
            touched.dedup();
            for &(rack, column) in &touched {
                let members = self.members(rack);
                self.agg
                    .refresh_rack_columns(
                        &self.topology,
                        rack,
                        &[column],
                        members.iter().map(|&i| self.rows[i].as_slice()),
                    )
                    .unwrap();
            }
            self.agg
                .refresh_ancestor_columns(&self.topology, &touched)
                .unwrap();
            assert_matches_compute(&self.topology, &self.agg, &self.assignment, &self.rows);
        }
    }

    #[test]
    fn overwriting_the_peak_sample_with_a_smaller_value_rescans() {
        // Instances 0 and 4 share rack 0 (round-robin over 4 racks).
        let mut m = Maintained::new(vec![
            vec![100.0, 10.0, 40.0],
            vec![5.0, 5.0, 5.0],
            vec![7.0, 8.0, 9.0],
            vec![1.0, 2.0, 3.0],
            vec![20.0, 30.0, 10.0],
        ]);
        assert_eq!(m.agg.peak(m.topology.racks()[0]).unwrap(), 120.0);
        m.ingest(&[(0, 0, 1.0)]);
        assert_eq!(m.agg.peak(m.topology.racks()[0]).unwrap(), 50.0);
        assert_eq!(m.agg.peak(m.topology.root()).unwrap(), 67.0);
    }

    #[test]
    fn writing_a_value_equal_to_the_peak_rescans_to_the_same_bits() {
        let mut m = Maintained::new(vec![
            vec![100.0, 10.0, 40.0],
            vec![5.0, 5.0, 5.0],
            vec![7.0, 8.0, 9.0],
            vec![1.0, 2.0, 3.0],
        ]);
        m.ingest(&[(0, 2, 100.0)]);
        assert_eq!(m.agg.peak(m.topology.racks()[0]).unwrap(), 100.0);
        // A strict raise, then a keep, in one batch.
        m.ingest(&[(1, 1, 200.0), (2, 0, 1.0)]);
        assert_eq!(m.agg.peak(m.topology.racks()[1]).unwrap(), 200.0);
    }

    #[test]
    fn signed_zero_writes_into_an_all_zero_window_stay_exact() {
        let mut m = Maintained::new(vec![vec![0.0; 3]; 4]);
        m.ingest(&[(0, 0, 0.0), (1, 1, -0.0)]);
        m.ingest(&[(0, 1, -0.0), (0, 2, -0.0), (2, 0, 0.0)]);
        for id in m.topology.nodes().iter().map(|n| n.id()) {
            assert_eq!(m.agg.peak(id).unwrap().to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn one_instance_hit_twice_in_a_batch_keeps_the_last_write() {
        let mut m = Maintained::new(vec![
            vec![10.0, 20.0, 30.0],
            vec![5.0, 5.0, 5.0],
            vec![7.0, 8.0, 9.0],
            vec![1.0, 2.0, 3.0],
        ]);
        m.ingest(&[(0, 2, 500.0), (0, 2, 4.0), (0, 1, 90.0), (0, 1, 6.0)]);
        assert_eq!(m.rows[0], vec![10.0, 6.0, 4.0]);
        assert_eq!(m.agg.peak(m.topology.racks()[0]).unwrap(), 10.0);
    }

    #[test]
    fn column_refresh_rejects_out_of_grid_columns_and_internal_nodes() {
        let t = topo();
        let mut inc = NodeAggregates::zeros(&t, traces()[0].grid());
        let rack = t.racks()[0];
        let err = inc
            .refresh_rack_columns(&t, rack, &[2], std::iter::empty())
            .unwrap_err();
        assert!(matches!(
            err,
            TreeError::Trace(TraceError::OutOfBounds { requested: 2, .. })
        ));
        let err = inc
            .refresh_rack_columns(&t, t.root(), &[0], std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, TreeError::NotARack(_)));
        let err = inc.refresh_ancestor_columns(&t, &[(rack, 7)]).unwrap_err();
        assert!(matches!(
            err,
            TreeError::Trace(TraceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn cached_peaks_equal_rescanned_peaks() {
        let t = topo();
        let traces = traces();
        let a = Assignment::round_robin(&t, 4).unwrap();
        assert_peaks_cached(&t, &NodeAggregates::compute(&t, &a, &traces).unwrap());

        let mut inc = NodeAggregates::zeros(&t, traces[0].grid());
        assert_peaks_cached(&t, &inc);
        let racks = t.racks();
        inc.refresh_rack(&t, racks[1], [traces[1].samples(), traces[3].samples()])
            .unwrap();
        inc.refresh_rack(&t, racks[2], [traces[0].samples()])
            .unwrap();
        assert_peaks_cached(&t, &inc);
        // Unsorted, duplicated racks: each ancestor is re-summed once.
        inc.refresh_ancestors(&t, &[racks[2], racks[1], racks[2]])
            .unwrap();
        assert_peaks_cached(&t, &inc);
        assert_eq!(inc.peak(t.root()).unwrap(), 175.0);
        assert_eq!(inc.sum_of_peaks(&t, Level::Rack), 275.0);

        // Retire both racks to empty: the cache returns to exact zero.
        inc.refresh_rack(&t, racks[1], std::iter::empty()).unwrap();
        inc.refresh_rack(&t, racks[2], std::iter::empty()).unwrap();
        inc.refresh_ancestors(&t, &[racks[1], racks[2]]).unwrap();
        assert_peaks_cached(&t, &inc);
        assert_eq!(inc.peak(t.root()).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn refresh_rack_rejects_internal_nodes_and_unknown_ids() {
        let t = topo();
        let grid = traces()[0].grid();
        let mut inc = NodeAggregates::zeros(&t, grid);
        let err = inc
            .refresh_rack(&t, t.root(), std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, TreeError::NotARack(_)));
        let bogus = crate::node::NodeId::new(t.len() + 5);
        let err = inc.refresh_rack(&t, bogus, std::iter::empty()).unwrap_err();
        assert!(matches!(err, TreeError::UnknownNode(_)));
    }

    #[test]
    fn refresh_ancestors_with_no_racks_is_a_no_op() {
        let t = topo();
        let grid = traces()[0].grid();
        let mut inc = NodeAggregates::zeros(&t, grid);
        inc.refresh_ancestors(&t, &[]).unwrap();
        assert_eq!(inc.peak(t.root()).unwrap(), 0.0);
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let err = NodeAggregates::compute(&t, &a, &traces()[..3]).unwrap_err();
        assert!(matches!(err, TreeError::InstanceCountMismatch { .. }));
    }
}
