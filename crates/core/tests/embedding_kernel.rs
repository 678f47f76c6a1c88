//! Property tests for the fused I-to-S row kernel: every coordinate of
//! [`ServiceBasis::score_row`] must equal the materializing
//! [`instance_to_service_score`] bit for bit, and a row off an S-trace's
//! grid must fail with the same error.

use proptest::prelude::*;
use so_core::{instance_to_service_score, ServiceBasis};
use so_powertrace::PowerTrace;

const STEP: u32 = 60;

/// Samples that are often exactly zero, so all-zero traces and zero
/// aggregate peaks come up.
fn sample() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0f64..500.0, 1e-3f64..1.0]
}

fn trace(len: usize) -> impl Strategy<Value = PowerTrace> {
    prop::collection::vec(sample(), len..=len)
        .prop_map(|v| PowerTrace::new(v, STEP).expect("valid samples"))
}

/// One instance and 1..=5 S-traces of a shared length in 1..=13, so most
/// lengths are not a multiple of the kernel's 4-lane block.
fn instance_and_services() -> impl Strategy<Value = (PowerTrace, Vec<PowerTrace>)> {
    (1usize..=13).prop_flat_map(|len| (trace(len), prop::collection::vec(trace(len), 1..=5)))
}

fn assert_row_matches(instance: &PowerTrace, services: &[PowerTrace]) {
    let basis = ServiceBasis::new(services);
    let row = basis
        .score_row(instance.samples(), instance.step_minutes())
        .expect("same grid");
    assert_eq!(row.len(), services.len());
    for (got, service) in row.iter().zip(services) {
        let want = instance_to_service_score(instance, service).expect("same grid");
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
    }
}

proptest! {
    #[test]
    fn row_kernel_is_bit_identical_to_per_cell_scores(
        (instance, services) in instance_and_services(),
    ) {
        assert_row_matches(&instance, &services);
    }

    #[test]
    fn off_grid_service_fails_like_the_materializing_score(
        (instance, mut services) in instance_and_services(),
        pick in 0usize..5,
        shorten in 0u8..2,
    ) {
        let k = pick % services.len();
        let bad = &services[k];
        services[k] = if shorten == 1 && bad.len() > 1 {
            PowerTrace::new(bad.samples()[1..].to_vec(), STEP).expect("valid samples")
        } else {
            PowerTrace::new(bad.samples().to_vec(), STEP * 2).expect("valid samples")
        };
        // The first off-grid S-trace in basis order decides the error.
        let want = services
            .iter()
            .map(|s| instance_to_service_score(&instance, s))
            .find_map(Result::err)
            .expect("one S-trace is off the grid");
        let got = ServiceBasis::new(&services)
            .score_row(instance.samples(), instance.step_minutes())
            .unwrap_err();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn all_zero_traces_score_two() {
    for len in [1, 4, 7, 1008] {
        let zero = PowerTrace::new(vec![0.0; len], STEP).expect("valid samples");
        assert_row_matches(&zero, &[zero.clone(), zero.clone()]);
        let row = ServiceBasis::new(std::slice::from_ref(&zero))
            .score_row(zero.samples(), STEP)
            .expect("same grid");
        assert_eq!(row, vec![2.0]);
    }
}

#[test]
fn odd_length_rows_fold_their_remainder() {
    // The peak sits in the 3-sample tail past the last 4-lane block.
    let instance = PowerTrace::new(vec![1.0, 0.0, 2.0, 0.5, 0.0, 0.0, 9.0], STEP).unwrap();
    let service = PowerTrace::new(vec![0.0, 3.0, 0.0, 0.0, 1.0, 4.0, 0.0], STEP).unwrap();
    assert_row_matches(&instance, &[service]);
}

#[test]
fn step_mismatch_returns_the_try_add_error() {
    let instance = PowerTrace::new(vec![1.0, 2.0, 3.0], STEP).unwrap();
    let service = PowerTrace::new(vec![3.0, 2.0, 1.0], 15).unwrap();
    let want = instance_to_service_score(&instance, &service).unwrap_err();
    let got = ServiceBasis::new(&[service])
        .score_row(instance.samples(), STEP)
        .unwrap_err();
    assert_eq!(got, want);
}
