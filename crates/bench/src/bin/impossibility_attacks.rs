//! Experiments E3–E5 — the impossibility constructions of Figs. 2–4 (Lemmas 5, 7, 13)
//! executed as concrete attacks just beyond the tight thresholds.
//!
//! The attacks carry hand-built adversaries, so they are not plain campaign cells;
//! each one is built, run and reported in turn.
//!
//! Usage: `impossibility_attacks`

use bsm_bench::BenchArgs;
use bsm_core::attacks::{
    full_side_partition_attack, relay_denial_attack, split_brain_attack, Attack,
};
use bsm_core::solvability::{characterize, Solvability};
use bsm_net::Topology;
use std::fmt::Write as _;

/// Builds one attack, runs it, and renders its report section.
fn report(attack: Attack) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {} — {}", attack.name, attack.reference);
    let setting = *attack.scenario.setting();
    match characterize(&setting) {
        Solvability::Unsolvable(imp) => {
            let _ = writeln!(out, "setting [{setting}] is {imp}");
        }
        // Attack settings are unsolvable by construction; a solvable answer means the
        // characterization regressed, and the report must flag it.
        Solvability::Solvable(plan) => {
            let _ = writeln!(out, "setting [{setting}] unexpectedly solvable via {plan}");
        }
    }
    let _ = writeln!(out, "forced plan: {}", attack.plan);
    match attack.run() {
        Ok(outcome) => {
            for (party, decision) in &outcome.outputs {
                match decision {
                    Some(partner) => {
                        let _ = writeln!(out, "  {party} decided to match {partner}");
                    }
                    None => {
                        let _ = writeln!(out, "  {party} decided to match nobody");
                    }
                }
            }
            if outcome.violations.is_empty() {
                let _ = writeln!(out, "  -> no violation observed (unexpected)");
            }
            for violation in &outcome.violations {
                let _ = writeln!(out, "  -> VIOLATION: {violation}");
            }
        }
        Err(err) => {
            let _ = writeln!(out, "  attack failed to run: {err}");
        }
    }
    out
}

fn main() {
    BenchArgs::parse().warn_unknown();
    let attacks: [fn() -> Attack; 5] = [
        split_brain_attack,
        || relay_denial_attack(Topology::Bipartite),
        || relay_denial_attack(Topology::OneSided),
        || full_side_partition_attack(Topology::OneSided),
        || full_side_partition_attack(Topology::Bipartite),
    ];
    println!("# E3–E5 — lower-bound constructions as executable attacks\n");
    for attack in attacks {
        println!("{}", report(attack()));
    }
}
