//! The design ablations, pinned byte for byte against
//! `results/ablations.txt`. The fleet and batching sections are also
//! pinned on their own, so a drift in either names the renderer at
//! fault. Both renderers assert their headline claims: four shards
//! deliver at least 3× one shard's goodput, and adaptive batching never
//! delivers less than batch 1.

use bbench::artifact::Artifact;
use bbench::loadgen::{render_batching_ablation, render_fleet_ablation};

const GOLDEN: &str = include_str!("../../../results/ablations.txt");

/// The lines of `results/ablations.txt` that start with `prefix`, each
/// with its newline.
fn section(prefix: &str) -> String {
    GOLDEN
        .lines()
        .filter(|line| line.starts_with(prefix))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn ablations_reproduce_results() {
    assert_eq!(
        Artifact::Ablations.regenerate(false, 1).text,
        GOLDEN,
        "the ablations must reproduce results/ablations.txt byte for byte"
    );
}

#[test]
fn fleet_ablation_reproduces_results() {
    assert_eq!(
        render_fleet_ablation(),
        section("ablation datum: fleet "),
        "the fleet ablation must reproduce its lines of results/ablations.txt byte for byte"
    );
}

#[test]
fn batching_ablation_reproduces_results() {
    assert_eq!(
        render_batching_ablation(),
        section("ablation datum: batch "),
        "the batching ablation must reproduce its lines of results/ablations.txt byte for byte"
    );
}
