//! Property tests over the fault-injection + crash-recovery subsystem,
//! on the in-tree harness (`edc_datagen::proptest`):
//!
//! 1. A power cut at *any* page-program index loses no journaled run —
//!    `recover()` restores exactly the committed state, and the store is
//!    writable again afterwards.
//! 2. Arbitrary read-fault plans (transient read errors, bit rot, tiny
//!    retry budgets) surface as typed `ReadError`s and never panic.

use edc_core::error::{EdcError, WriteError};
use edc_core::pipeline::{EdcPipeline, PipelineConfig, WriteResult};
use edc_datagen::proptest::cases;
use edc_datagen::rng::Rng64;
use edc_flash::FaultPlan;
use std::collections::HashMap;

const BB: u64 = 4096;

/// A 4 KiB block: compressible (small alphabet) or incompressible
/// (arbitrary bytes), so runs exercise both codec and write-through paths.
fn gen_block(rng: &mut Rng64) -> Vec<u8> {
    let mut b = vec![0u8; BB as usize];
    if rng.chance(0.7) {
        for byte in &mut b {
            *byte = b'a' + rng.below(6) as u8;
        }
    } else {
        rng.fill_bytes(&mut b);
    }
    b
}

/// Rounds of (block_index, payload) writes. Each block is written at most
/// once per round, and every round ends in `flush_all`, so the model below
/// never races a buffered rewrite.
fn gen_workload(rng: &mut Rng64) -> Vec<Vec<(u64, Vec<u8>)>> {
    let n = rng.range_u64(4, 12);
    let stride = rng.range_u64(1, 4);
    let round1: Vec<(u64, Vec<u8>)> = (0..n).map(|i| (i * stride, gen_block(rng))).collect();
    // Round 2 rewrites a random subset with fresh payloads.
    let mut round2 = Vec::new();
    for i in 0..n {
        if rng.chance(0.5) {
            round2.push((i * stride, gen_block(rng)));
        }
    }
    vec![round1, round2]
}

/// Record a committed run in the model: every block it covers is durable
/// with the value most recently written to it.
fn commit(
    committed: &mut HashMap<u64, Vec<u8>>,
    latest: &HashMap<u64, Vec<u8>>,
    r: &WriteResult,
) {
    for b in r.start_block..r.start_block + u64::from(r.blocks) {
        if let Some(v) = latest.get(&b) {
            committed.insert(b, v.clone());
        }
    }
}

/// Drive the workload, maintaining the written/committed model. Stops at
/// the first typed error (the power cut, when one is armed).
fn drive(
    p: &mut EdcPipeline,
    workload: &[Vec<(u64, Vec<u8>)>],
    latest: &mut HashMap<u64, Vec<u8>>,
    committed: &mut HashMap<u64, Vec<u8>>,
) -> Result<(), EdcError> {
    let mut t = 0u64;
    for round in workload {
        for (block, data) in round {
            latest.insert(*block, data.clone());
            for r in p.write(t, block * BB, data)? {
                commit(committed, latest, &r);
            }
            t += 1_000_000;
        }
        for r in p.flush_all(t)? {
            commit(committed, latest, &r);
        }
    }
    Ok(())
}

/// Power cut at an arbitrary program index: everything journaled reads
/// back exactly; un-journaled blocks are their prior committed value or
/// zeros; the store accepts writes again after `recover()`.
#[test]
fn power_cut_anywhere_recovers_every_journaled_run() {
    cases(24).run("power_cut_anywhere_recovers_every_journaled_run", |rng| {
        let workload = gen_workload(rng);

        // Clean run: learn the total page-program count for this workload.
        let mut clean = EdcPipeline::new(8 << 20, PipelineConfig::default());
        let (mut latest, mut committed) = (HashMap::new(), HashMap::new());
        drive(&mut clean, &workload, &mut latest, &mut committed).expect("clean run");
        let total_programs = clean.stats().programs;
        assert!(total_programs > 0, "workload must program pages");

        // Faulted run: cut at a random program index (possibly past the
        // end, i.e. no cut fires).
        let cut = rng.range_u64(0, total_programs + 2);
        let mut p = EdcPipeline::new(
            8 << 20,
            PipelineConfig {
                fault: FaultPlan {
                    power_cut_after_programs: Some(cut),
                    ..FaultPlan::none()
                },
                ..PipelineConfig::default()
            },
        );
        let (mut latest, mut committed) = (HashMap::new(), HashMap::new());
        match drive(&mut p, &workload, &mut latest, &mut committed) {
            Ok(()) => assert!(cut >= total_programs, "cut {cut} should have fired"),
            Err(EdcError::Write(WriteError::PowerCut { after_programs })) => {
                assert!(after_programs <= cut);
                let report = p.recover().expect("recover after cut");
                assert!(!report.torn_tail, "journal commits are atomic");
                assert_eq!(report.payload_mismatches, 0, "journaled runs lost payload");
            }
            Err(other) => panic!("unexpected error driving workload: {other:?}"),
        }

        // Every block we ever wrote must now read as: its committed value,
        // the latest written value (a run can commit inside the drain that
        // the cut aborted, after the model's last observed WriteResult),
        // or — if nothing for it was ever journaled — zeros.
        for (block, newest) in &latest {
            let got = p.read(u64::MAX / 2, block * BB, BB).expect("read after recover");
            let consistent = match committed.get(block) {
                Some(v) => got == *v || got == *newest,
                None => got.iter().all(|b| *b == 0) || got == *newest,
            };
            assert!(consistent, "block {block} recovered to an impossible value");
        }

        // The store must be fully writable again. (When the cut landed past
        // the workload's last program it is still armed — disarm it so the
        // usability check doesn't trip it.)
        p.set_fault_plan(FaultPlan::none());
        let fresh = gen_block(rng);
        p.write(u64::MAX / 2, 900 * BB, &fresh).expect("write after recover");
        p.flush_all(u64::MAX / 2).expect("flush after recover");
        assert_eq!(p.read(u64::MAX / 2, 900 * BB, BB).expect("read"), fresh);
    });
}

/// Random read-fault plans never panic: every read returns `Ok` bytes of
/// the right length or a typed `ReadError`.
#[test]
fn read_faults_never_panic_under_random_plans() {
    cases(24).run("read_faults_never_panic_under_random_plans", |rng| {
        let workload = gen_workload(rng);
        // cache_runs: 0 so every read touches the (faulty) device.
        let mut p = EdcPipeline::new(
            8 << 20,
            PipelineConfig { cache_runs: 0, ..PipelineConfig::default() },
        );
        let (mut latest, mut committed) = (HashMap::new(), HashMap::new());
        drive(&mut p, &workload, &mut latest, &mut committed).expect("clean write phase");

        p.set_fault_plan(FaultPlan {
            seed: rng.next_u64(),
            read_error_rate: rng.f64(),
            bit_rot_rate: rng.f64() * rng.f64(), // bias toward small rates
            read_retries: rng.below(3) as u32,
            allow_degraded_reads: rng.chance(0.3),
            ..FaultPlan::none()
        });

        let blocks: Vec<u64> = latest.keys().copied().collect();
        for i in 0..40u64 {
            let block = blocks[(i as usize * 7 + rng.below_usize(blocks.len())) % blocks.len()];
            match p.read(i, block * BB, BB) {
                Ok(data) => assert_eq!(data.len(), BB as usize),
                Err(e) => {
                    // Typed, descriptive, and non-panicking is the contract.
                    assert!(!format!("{e:?}").is_empty());
                }
            }
        }
    });
}
