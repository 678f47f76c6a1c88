//! Resident daemon state: streaming sample ingest over an [`OnlineFleet`].
//!
//! SmoothOperator ran as a continuous production service — the framework
//! "continuously records the I-traces and the S-traces and dynamically
//! re-evaluates the severity of the fragmentation problem" (§3.6). A
//! [`DaemonFleet`] is that loop's state: it wraps an [`OnlineFleet`]
//! (topology, per-node budgets, the columnar [`TraceArena`] of live
//! windows, canonical [`NodeAggregates`]) and adds *streaming* sample
//! ingest on top of the engine's arrival/retirement churn.
//!
//! [`TraceArena`]: so_powertrace::TraceArena
//! [`NodeAggregates`]: so_powertree::NodeAggregates
//!
//! # Ring-buffer windows
//!
//! Each live slot's arena row *is* its sample window: `T` columns on the
//! engine's [`TimeGrid`](so_powertrace::TimeGrid). A per-slot cursor
//! tracks the next write position; each ingested sample overwrites the
//! oldest column and advances the cursor modulo `T`. No rotation or
//! copying ever happens — the window is circular by indexing. That is
//! sound because every score the engine serves is column-order
//! *invariant*: per-column sums do not care how columns are labelled,
//! and peaks are max-reductions over columns. A rotated window scores
//! bit-identically to the chronologically-ordered one.
//!
//! # The incremental-update contract
//!
//! A reading changes exactly one column of one row, so ingest is
//! *column-restricted*: never a fleet-wide recompute, and never a
//! full-width re-sum of a touched rack. Sample writes land directly in
//! the arena, each recording its `(rack, column)` pair; then every
//! touched pair, and the same column of every ancestor, is *canonically
//! re-summed in place* by the one per-node kernel that
//! [`compute`](so_powertree::NodeAggregates::compute) and every commit
//! and retirement also run
//! ([`refresh_rack_columns`](so_powertree::NodeAggregates::refresh_rack_columns) /
//! [`refresh_ancestor_columns`](so_powertree::NodeAggregates::refresh_ancestor_columns)).
//! Per column that kernel performs exactly the float operations of a
//! from-scratch `compute`, so the resident aggregates after **any**
//! ingest stream are bit-identical to an offline recompute of the final
//! windows — the invariant the `daemon` oracle family pins. Node peaks
//! and per-slot window peaks are kept exact per write from the
//! overwritten sample by [`peak_after_write`]; only a tie with the peak,
//! or an overwritten peak sample, costs an O(T) rescan of that one node
//! or row (`cached_window_peaks_match_rescan` pins the window peaks). A
//! batch therefore costs O(samples + touched (node, column) pairs ×
//! fan-in) plus those rescans. Asynchrony queries are O(members) sums
//! over the cached window peaks, bit-identical to the fused
//! [`OnlineFleet::rack_asynchrony`] recompute because both fold member
//! peaks in ascending slot order.
//!
//! # Serial commits
//!
//! `DaemonFleet` is deliberately not `Sync`-clever: the daemon binary
//! holds it behind one mutex and applies every mutation (ingest batch,
//! arrival, retirement, repair) at that single serial commit point, in
//! connection order. Determinism then follows from the engine's own
//! guarantees — no mutation interleaves mid-batch.

use so_powertrace::{peak_after_write, peak_of_samples, PowerTrace, TraceError};
use so_powertree::NodeId;
use so_telemetry::AlertTransition;

use crate::error::CoreError;
use crate::online::OnlineFleet;
use crate::remap::RemapReport;

/// One streamed power reading: `slot` drew `watts` at the next window
/// position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleUpdate {
    /// Arena slot of the instance (as returned by arrival).
    pub slot: usize,
    /// Observed power draw in watts. Must be finite and non-negative.
    pub watts: f64,
}

/// What one [`DaemonFleet::ingest_batch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Samples written into live windows.
    pub applied: usize,
    /// Samples addressed to retired or never-seen slots, skipped.
    pub dropped: usize,
    /// Distinct racks whose aggregate path was refreshed.
    pub racks_touched: usize,
}

/// A resident [`OnlineFleet`] plus streaming-ingest state: per-slot ring
/// cursors and cached window peaks. See the module docs for the
/// ring-buffer and bit-identity contracts.
#[derive(Debug, Clone)]
pub struct DaemonFleet {
    fleet: OnlineFleet,
    /// Next ring write position per slot (column index into the window).
    cursor: Vec<usize>,
    /// Cached [`peak_of_samples`] of each slot's resident window, kept
    /// exact per write by [`peak_after_write`] (a rescan of the row only
    /// when a write ties the peak or overwrites a peak sample). Retired
    /// rows are never written again, so their entries stay exact too.
    row_peak: Vec<f64>,
    samples_ingested: u64,
    samples_dropped: u64,
    batches_ingested: u64,
}

impl DaemonFleet {
    /// Wraps `fleet`, priming ring cursors (position 0) and the window
    /// peak cache from the resident rows.
    #[must_use]
    pub fn new(fleet: OnlineFleet) -> Self {
        let mut daemon = Self {
            fleet,
            cursor: Vec::new(),
            row_peak: Vec::new(),
            samples_ingested: 0,
            samples_dropped: 0,
            batches_ingested: 0,
        };
        daemon.sync_slots();
        daemon
    }

    /// Read-only access to the wrapped engine. Mutations must go through
    /// the daemon's own methods so the ingest caches stay coherent.
    #[must_use]
    pub fn fleet(&self) -> &OnlineFleet {
        &self.fleet
    }

    /// Window length in samples (the engine grid's length).
    #[must_use]
    pub fn window(&self) -> usize {
        self.fleet.grid().len()
    }

    /// Samples written into live windows over the daemon's lifetime.
    #[must_use]
    pub fn samples_ingested(&self) -> u64 {
        self.samples_ingested
    }

    /// Samples dropped (retired or unknown slots) over the lifetime.
    #[must_use]
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// Ingest batches applied over the lifetime.
    #[must_use]
    pub fn batches_ingested(&self) -> u64 {
        self.batches_ingested
    }

    /// Applies one batch of streamed samples at the serial commit point.
    ///
    /// The whole batch is validated first — any non-finite or negative
    /// reading rejects the call *before any mutation*, so a malformed
    /// batch never half-applies. Samples addressed to retired or unknown
    /// slots are counted and skipped (instances retire while their last
    /// readings are in flight — that is churn, not corruption). Writes
    /// land in submission order, each updating its slot's cached window
    /// peak from the overwritten sample ([`peak_after_write`]; a row
    /// rescan only on a tie or an overwritten peak). Each touched
    /// `(rack, column)` pair, and the same column of each ancestor, is
    /// then canonically re-summed once, keeping the whole call
    /// O(batch + touched pairs × path × fan-in), bit-identical to a full
    /// recompute.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidSample`] (wrapped in [`CoreError::Trace`])
    /// for a malformed reading; propagates refresh errors.
    pub fn ingest_batch(&mut self, updates: &[SampleUpdate]) -> Result<IngestReport, CoreError> {
        for (index, update) in updates.iter().enumerate() {
            if !update.watts.is_finite() || update.watts < 0.0 {
                return Err(CoreError::Trace(TraceError::InvalidSample {
                    index,
                    value: update.watts,
                }));
            }
        }
        let window = self.window();
        // Touched sets as sort+dedup vectors: sample streams arrive in
        // near-slot-order (scrapes walk machines rack by rack), so the
        // sorts are close to linear and far cheaper than per-sample
        // tree inserts at million-sample rates.
        let mut touched = Vec::new();
        let mut rescan = Vec::new();
        let mut report = IngestReport::default();
        for update in updates {
            let Some(rack) = self.fleet.rack_of(update.slot) else {
                report.dropped += 1;
                continue;
            };
            let pos = self.cursor[update.slot];
            let old = self
                .fleet
                .write_window_sample(update.slot, pos, update.watts)?;
            self.cursor[update.slot] = (pos + 1) % window;
            // NaN marks a window peak only a rescan can settle; the rule
            // keeps it NaN through later writes in the batch.
            let peak = &mut self.row_peak[update.slot];
            *peak = peak_after_write(*peak, old, update.watts).unwrap_or_else(|| {
                rescan.push(update.slot);
                f64::NAN
            });
            touched.push((rack, pos));
            report.applied += 1;
        }
        rescan.sort_unstable();
        rescan.dedup();
        for slot in rescan {
            self.row_peak[slot] = peak_of_samples(self.fleet.row(slot));
        }
        touched.sort_unstable();
        touched.dedup();
        report.racks_touched = self.fleet.refresh_columns(&touched)?;
        self.samples_ingested += report.applied as u64;
        self.samples_dropped += report.dropped as u64;
        self.batches_ingested += 1;
        if so_telemetry::enabled() {
            so_telemetry::counter_add(
                "so_daemon_samples_ingested_total",
                &[],
                report.applied as u64,
            );
            so_telemetry::counter_add(
                "so_daemon_samples_dropped_total",
                &[],
                report.dropped as u64,
            );
            so_telemetry::counter_add("so_daemon_ingest_batches_total", &[], 1);
        }
        Ok(report)
    }

    /// Commits an arrival through the engine (see
    /// [`OnlineFleet::arrive`]) and primes the new slot's ring cursor
    /// and peak cache.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn arrive(&mut self, candidate: &PowerTrace) -> Result<Option<usize>, CoreError> {
        let committed = self.fleet.arrive(candidate)?;
        self.sync_slots();
        Ok(committed)
    }

    /// Retires a live slot (see [`OnlineFleet::retire`]). Later samples
    /// for the slot are dropped, so its window and cached peak stay as
    /// they were; slots are never reused.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn retire(&mut self, slot: usize) -> Result<(), CoreError> {
        self.fleet.retire(slot)
    }

    /// Runs one budgeted §3.6 differential-score repair pass (see
    /// [`OnlineFleet::repair`]). Moves swap instances between racks
    /// without touching window contents, so the peak cache stays valid.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn repair(&mut self) -> Result<RemapReport, CoreError> {
        self.fleet.repair()
    }

    /// Publishes engine gauges and evaluates alert rules on the attached
    /// plane (see [`OnlineFleet::observe_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn observe_batch(&mut self) -> Result<Vec<AlertTransition>, CoreError> {
        self.fleet.observe_batch()
    }

    /// The cached window peak of a live `slot` (`None` when retired or
    /// never committed) — the value [`DaemonFleet::rack_asynchrony`]
    /// folds. Equal to [`peak_of_samples`] of the slot's row, bit for bit;
    /// the `daemon` oracle family holds it to that.
    #[must_use]
    pub fn window_peak(&self, slot: usize) -> Option<f64> {
        self.fleet.rack_of(slot).map(|_| self.row_peak[slot])
    }

    /// Rack asynchrony from the cached window peaks: the sum of member
    /// peaks (ascending slot order, same fold as the engine's fused
    /// recompute) over the resident aggregate peak — O(members), no
    /// window scan, bit-identical to [`OnlineFleet::rack_asynchrony`].
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptySet`] for an empty rack; propagates tree
    /// lookups.
    pub fn rack_asynchrony(&self, rack: NodeId) -> Result<f64, CoreError> {
        let members = self.fleet.members_of(rack);
        if members.is_empty() {
            return Err(CoreError::EmptySet);
        }
        let mut peak_sum = 0.0;
        for &slot in members {
            peak_sum += self.row_peak[slot];
        }
        let aggregate_peak = self
            .fleet
            .aggregates()
            .peak(rack)
            .map_err(CoreError::Tree)?;
        if aggregate_peak == 0.0 {
            return Ok(members.len() as f64);
        }
        Ok(peak_sum / aggregate_peak)
    }

    /// Mean rack asynchrony over non-empty racks from the cached peaks
    /// (ascending rack order), or `None` for an empty fleet.
    /// Bit-identical to [`OnlineFleet::mean_rack_asynchrony`].
    #[must_use]
    pub fn mean_rack_asynchrony(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for &rack in self.fleet.topology().racks() {
            if !self.fleet.members_of(rack).is_empty() {
                sum += self
                    .rack_asynchrony(rack)
                    .expect("non-empty rack always scores");
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Grows the per-slot caches to cover newly committed slots.
    fn sync_slots(&mut self) {
        let slots = self.fleet.slot_count();
        while self.cursor.len() < slots {
            let slot = self.cursor.len();
            self.cursor.push(0);
            self.row_peak.push(peak_of_samples(self.fleet.row(slot)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{CommitPolicy, OnlineConfig};
    use so_powertrace::TimeGrid;
    use so_powertree::{NodeAggregates, PowerTopology};

    fn small_topology() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(4)
            .name("daemon-test")
            .build()
            .unwrap()
    }

    fn seeded_daemon(n: usize) -> DaemonFleet {
        let grid = TimeGrid::new(15, 8);
        let config = OnlineConfig {
            policy: CommitPolicy::BestAsynchrony,
            repair_budget: 0,
            min_gain: 0.0,
            sample_salt: 7,
            ..OnlineConfig::default()
        };
        let fleet = OnlineFleet::new(small_topology(), grid, config)
            .with_budgets(vec![1e9; small_topology().len()])
            .unwrap();
        let mut daemon = DaemonFleet::new(fleet);
        for i in 0..n {
            let samples: Vec<f64> = (0..8).map(|t| ((i * 8 + t) % 5) as f64 + 1.0).collect();
            let trace = PowerTrace::new(samples, 15).unwrap();
            daemon.arrive(&trace).unwrap().expect("fits");
        }
        daemon
    }

    /// From-scratch recompute of the live fleet's aggregates.
    fn recompute(daemon: &DaemonFleet) -> NodeAggregates {
        let (traces, assignment, _) = daemon.fleet().live_view().unwrap();
        if traces.is_empty() {
            NodeAggregates::zeros(daemon.fleet().topology(), daemon.fleet().grid())
        } else {
            NodeAggregates::compute(daemon.fleet().topology(), &assignment, &traces).unwrap()
        }
    }

    fn assert_bit_identical(daemon: &DaemonFleet) {
        let offline = recompute(daemon);
        for node in daemon.fleet().topology().nodes().iter().map(|n| n.id()) {
            let got = daemon.fleet().aggregates().trace(node).unwrap();
            let want = offline.trace(node).unwrap();
            assert_eq!(
                got.samples().len(),
                want.samples().len(),
                "node {node} length"
            );
            for (g, w) in got.samples().iter().zip(want.samples()) {
                assert_eq!(g.to_bits(), w.to_bits(), "node {node} sample drift");
            }
            assert_eq!(
                daemon.fleet().aggregates().peak(node).unwrap().to_bits(),
                offline.peak(node).unwrap().to_bits(),
                "node {node} peak drift"
            );
        }
        for slot in daemon.fleet().live_slots() {
            assert_eq!(
                daemon.window_peak(slot).map(f64::to_bits),
                Some(peak_of_samples(daemon.fleet().row(slot)).to_bits()),
                "slot {slot} window peak drift"
            );
        }
    }

    fn ingest(daemon: &mut DaemonFleet, writes: &[(usize, f64)]) {
        let updates: Vec<SampleUpdate> = writes
            .iter()
            .map(|&(slot, watts)| SampleUpdate { slot, watts })
            .collect();
        daemon.ingest_batch(&updates).unwrap();
        assert_bit_identical(daemon);
    }

    #[test]
    fn overwriting_the_window_peak_with_a_smaller_value_rescans() {
        let mut daemon = seeded_daemon(4);
        // Slot 0 holds [1, 2, 3, 4, 5, 1, 2, 3]: the fifth write lands on
        // the peak sample and lowers it.
        assert_eq!(daemon.window_peak(0), Some(5.0));
        ingest(
            &mut daemon,
            &[(0, 1.0), (0, 2.0), (0, 3.0), (0, 4.0), (0, 0.5)],
        );
        assert_eq!(daemon.window_peak(0), Some(4.0));
    }

    #[test]
    fn writing_a_value_equal_to_the_window_peak_keeps_its_bits() {
        let mut daemon = seeded_daemon(4);
        assert_eq!(daemon.window_peak(1), Some(5.0));
        ingest(&mut daemon, &[(1, 5.0)]);
        assert_eq!(daemon.window_peak(1), Some(5.0));
        // A strict raise, then a keep.
        ingest(&mut daemon, &[(1, 6.5), (1, 0.0)]);
        assert_eq!(daemon.window_peak(1), Some(6.5));
    }

    #[test]
    fn signed_zero_writes_into_an_all_zero_window_stay_exact() {
        let mut daemon = seeded_daemon(2);
        let zeros = PowerTrace::zeros(daemon.fleet().grid());
        let slot = daemon.arrive(&zeros).unwrap().expect("fits");
        ingest(&mut daemon, &[(slot, 0.0), (slot, -0.0)]);
        ingest(&mut daemon, &[(slot, -0.0), (slot, -0.0), (slot, 0.0)]);
        assert_eq!(daemon.window_peak(slot).map(f64::abs), Some(0.0));
    }

    #[test]
    fn one_slot_hit_twice_in_a_batch_and_wrapped_stays_exact() {
        let mut daemon = seeded_daemon(4);
        ingest(&mut daemon, &[(2, 9.0), (2, 0.25)]);
        assert_eq!(daemon.window_peak(2), Some(9.0));
        // Raise at position 2, then wrap the ring within one batch so
        // the ninth write overwrites that raised peak sample.
        let window = daemon.window();
        let mut writes = vec![(2, 100.0)];
        writes.extend(std::iter::repeat((2, 1.0)).take(window));
        ingest(&mut daemon, &writes);
        assert_eq!(daemon.window_peak(2), Some(1.0));
        assert_eq!(daemon.window_peak(99), None);
    }

    #[test]
    fn ingest_keeps_aggregates_bit_identical_to_recompute() {
        let mut daemon = seeded_daemon(6);
        let mut updates = Vec::new();
        for round in 0..23u64 {
            updates.clear();
            for slot in 0..6 {
                updates.push(SampleUpdate {
                    slot,
                    watts: ((round * 31 + slot as u64 * 7) % 17) as f64 * 0.5,
                });
            }
            let report = daemon.ingest_batch(&updates).unwrap();
            assert_eq!(report.applied, 6);
            assert_eq!(report.dropped, 0);
            assert_bit_identical(&daemon);
        }
        assert_eq!(daemon.samples_ingested(), 23 * 6);
        assert_eq!(daemon.batches_ingested(), 23);
    }

    #[test]
    fn cached_asynchrony_matches_fused_recompute() {
        let mut daemon = seeded_daemon(6);
        let updates: Vec<SampleUpdate> = (0..6)
            .map(|slot| SampleUpdate {
                slot,
                watts: (slot as f64 + 1.0) * 3.25,
            })
            .collect();
        for _ in 0..11 {
            daemon.ingest_batch(&updates).unwrap();
        }
        for &rack in daemon.fleet().topology().racks() {
            if daemon.fleet().members_of(rack).is_empty() {
                continue;
            }
            let cached = daemon.rack_asynchrony(rack).unwrap();
            let fused = daemon.fleet().rack_asynchrony(rack).unwrap();
            assert_eq!(cached.to_bits(), fused.to_bits(), "rack {rack}");
        }
        assert_eq!(
            daemon.mean_rack_asynchrony().map(f64::to_bits),
            daemon.fleet().mean_rack_asynchrony().map(f64::to_bits),
        );
    }

    #[test]
    fn retired_and_unknown_slots_are_dropped_not_applied() {
        let mut daemon = seeded_daemon(4);
        daemon.retire(1).unwrap();
        let updates = [
            SampleUpdate {
                slot: 0,
                watts: 9.0,
            },
            SampleUpdate {
                slot: 1,
                watts: 9.0,
            },
            SampleUpdate {
                slot: 99,
                watts: 9.0,
            },
        ];
        let report = daemon.ingest_batch(&updates).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.dropped, 2);
        assert_bit_identical(&daemon);
    }

    #[test]
    fn malformed_batch_rejects_without_mutating() {
        let mut daemon = seeded_daemon(3);
        let before: Vec<u64> = daemon
            .fleet()
            .aggregates()
            .trace(daemon.fleet().topology().root())
            .unwrap()
            .samples()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        let updates = [
            SampleUpdate {
                slot: 0,
                watts: 5.0,
            },
            SampleUpdate {
                slot: 1,
                watts: f64::NAN,
            },
        ];
        assert!(daemon.ingest_batch(&updates).is_err());
        let after: Vec<u64> = daemon
            .fleet()
            .aggregates()
            .trace(daemon.fleet().topology().root())
            .unwrap()
            .samples()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(before, after, "rejected batch must not half-apply");
        assert_eq!(daemon.samples_ingested(), 0);
    }

    #[test]
    fn ring_cursor_wraps_and_overwrites_oldest() {
        let mut daemon = seeded_daemon(1);
        let window = daemon.window();
        // Fill more than one full window with a recognizable staircase.
        for k in 0..window + 3 {
            daemon
                .ingest_batch(&[SampleUpdate {
                    slot: 0,
                    watts: k as f64,
                }])
                .unwrap();
        }
        let row = daemon.fleet().row(0).to_vec();
        // The window holds the *last* `window` values in ring order.
        let mut expect: Vec<f64> = (0..window).map(|k| k as f64).collect();
        for k in window..window + 3 {
            expect[k % window] = k as f64;
        }
        assert_eq!(row, expect);
        assert_bit_identical(&daemon);
    }

    #[test]
    fn churn_interleaved_with_ingest_stays_bit_identical() {
        let mut daemon = seeded_daemon(5);
        daemon
            .ingest_batch(&[SampleUpdate {
                slot: 2,
                watts: 4.5,
            }])
            .unwrap();
        daemon.retire(2).unwrap();
        let trace = PowerTrace::new(vec![2.0; 8], 15).unwrap();
        let slot = daemon.arrive(&trace).unwrap().expect("fits");
        daemon
            .ingest_batch(&[
                SampleUpdate { slot, watts: 7.75 },
                SampleUpdate {
                    slot: 0,
                    watts: 1.25,
                },
            ])
            .unwrap();
        daemon.repair().unwrap();
        assert_bit_identical(&daemon);
    }
}
