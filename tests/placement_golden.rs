//! Golden rack-index digests of `SmoothPlacer`: every placement below is
//! pinned bit-for-bit, so a change to the embedding, the clustering or the
//! dealing that moves even one instance fails here.

use smoothoperator::prelude::*;
use so_core::PlacementConfig;
use so_oracles::fitting_topology;

/// FNV-1a over the rack index of every instance, in instance order.
fn digest(assignment: &Assignment) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for rack in assignment.racks() {
        for byte in (rack.index() as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The 16-rack test topology of the placement unit tests.
fn small_topology() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(4)
        .build()
        .expect("shape is valid")
}

#[test]
fn dc1_fleet_on_fitting_topology_is_pinned() {
    let fleet = DcScenario::dc1().generate_fleet(1536).expect("fleet");
    let topology = fitting_topology(1536, 12).expect("topology");
    let assignment = SmoothPlacer::default()
        .place(&fleet, &topology)
        .expect("placement");
    assert_eq!(digest(&assignment), 0x1c8b_0fe8_f7d6_5125);
}

#[test]
fn dc3_fleet_on_small_topology_is_pinned() {
    let fleet = DcScenario::dc3().generate_fleet(64).expect("fleet");
    let assignment = SmoothPlacer::default()
        .place(&fleet, &small_topology())
        .expect("placement");
    assert_eq!(digest(&assignment), 0xf337_0097_634a_5125);
}

#[test]
fn root_embedding_reuse_is_pinned() {
    let fleet = DcScenario::dc3().generate_fleet(64).expect("fleet");
    let placer = SmoothPlacer::new(PlacementConfig {
        recluster_per_level: false,
        ..PlacementConfig::default()
    });
    let assignment = placer.place(&fleet, &small_topology()).expect("placement");
    assert_eq!(digest(&assignment), 0x6cc7_242c_d7ff_0825);
}

#[test]
fn place_within_an_sb_is_pinned() {
    let fleet = DcScenario::dc3().generate_fleet(64).expect("fleet");
    let topology = small_topology();
    let racks = topology.racks();
    let grouped = Assignment::new((0..64).map(|i| racks[i / 4]).collect(), &topology)
        .expect("grouped assignment");
    let sb = topology.nodes_at_level(Level::Sb)[0];
    let assignment = SmoothPlacer::default()
        .place_within(&fleet, &topology, sb, &grouped)
        .expect("placement");
    assert_eq!(digest(&assignment), 0xc959_c36a_6991_d3c5);
}
