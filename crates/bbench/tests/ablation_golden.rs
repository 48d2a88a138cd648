//! The fleet and batching ablation data, pinned byte for byte against
//! `results/`. Both renderers also assert their headline claims: four
//! shards deliver at least 3× one shard's goodput, and adaptive batching
//! never delivers less than batch 1.

use bbench::loadgen::{render_batching_ablation, render_fleet_ablation};

#[test]
fn fleet_ablation_reproduces_results() {
    assert_eq!(
        render_fleet_ablation(),
        include_str!("../../../results/ablation_fleet.txt"),
        "the fleet ablation must reproduce results/ablation_fleet.txt byte for byte"
    );
}

#[test]
fn batching_ablation_reproduces_results() {
    assert_eq!(
        render_batching_ablation(),
        include_str!("../../../results/ablation_batching.txt"),
        "the batching ablation must reproduce results/ablation_batching.txt byte for byte"
    );
}
