//! Placement embeds only where a deal clusters: one I-to-S embedding per
//! clustered deal, none for the single-child root or striped deals.
//!
//! This file holds a single test on purpose: the telemetry sink is
//! process-global, so any other test running alongside would add its own
//! embedding runs to the counts.

use std::sync::Arc;

use so_core::SmoothPlacer;
use so_powertree::PowerTopology;
use so_telemetry::RecordingSink;
use so_workloads::DcScenario;

#[test]
fn every_embedding_run_feeds_a_clustered_deal() {
    let fleet = DcScenario::dc1().generate_fleet(96).expect("fleet");
    let topology = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(6)
        .build()
        .expect("topology");
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    so_telemetry::with_sink(sink.clone(), || {
        SmoothPlacer::default()
            .place(&fleet, &topology)
            .expect("placement");
    });
    let snap = sink.snapshot();
    let deals = snap.counter("so_placement_clustered_deals_total", &[]);
    assert!(deals > 0, "the fleet is large enough to cluster");
    assert_eq!(snap.counter("so_embedding_runs_total", &[]), deals);
}
