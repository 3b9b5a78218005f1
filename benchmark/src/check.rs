//! The output check shared by the in-process workloads.
//!
//! Every operation (a design point, a study point) reduces to one 64-bit
//! digest of its complete result: candidate names and the exact bits of
//! every figure of merit, plus whatever the workload derives from them.
//! Two verification passes evaluate the same inputs on one thread, each in
//! a process of its own: one in the measured order, one in reverse. Where
//! the two agree, the operation has one right answer, and a measured pass
//! that gives any other is counted as failed. Where they disagree, the
//! program's answer depends on what the process evaluated before (the
//! memo-history defect): those operations are counted and reported on
//! their own, not as failures.

use crate::stats::Fnv;
use std::io::{Read, Write};
use std::path::Path;
use xlda_core::fom::Candidate;
use xlda_core::triage::Ranked;

/// How a verification pass classified one operation, from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A result that passed the invariants.
    Ok = 0,
    /// The model's typed infeasible answer: a correct result.
    Infeasible = 1,
    /// An error that is not infeasibility, or a panic.
    Failed = 2,
    /// A result that broke an invariant: a non-finite figure of merit, a
    /// candidate set other than the reference one, an accuracy outside
    /// `[0, 1]`. Counted as failed, and makes the run incorrect.
    Broken = 3,
}

impl Class {
    fn from_byte(b: u8) -> Class {
        match b {
            0 => Class::Ok,
            1 => Class::Infeasible,
            2 => Class::Failed,
            _ => Class::Broken,
        }
    }
}

/// Digest of one evaluated candidate set (or its error message).
pub fn candidates_digest(result: &Result<Vec<Candidate>, String>) -> Fnv {
    let mut h = Fnv::default();
    match result {
        Ok(cands) => {
            h.u64(cands.len() as u64);
            for c in cands {
                h.str(&c.name)
                    .f64(c.fom.latency_s)
                    .f64(c.fom.energy_j)
                    .f64(c.fom.area_mm2)
                    .f64(c.fom.accuracy);
            }
        }
        Err(msg) => {
            h.u64(u64::MAX).str(msg);
        }
    }
    h
}

/// Folds a triage ranking into a digest.
pub fn fold_ranking(h: &mut Fnv, ranking: &[Ranked]) {
    h.u64(ranking.len() as u64);
    for r in ranking {
        h.u64(r.index as u64)
            .f64(r.score)
            .u64(u64::from(r.meets_floor));
    }
}

/// Folds Pareto-front indices into a digest.
pub fn fold_front(h: &mut Fnv, front: &[usize]) {
    h.u64(front.len() as u64);
    for &i in front {
        h.u64(i as u64);
    }
}

/// Whether every figure of merit is finite.
pub fn finite(cands: &[Candidate]) -> bool {
    cands.iter().all(|c| {
        c.fom.latency_s.is_finite()
            && c.fom.energy_j.is_finite()
            && c.fom.area_mm2.is_finite()
            && c.fom.accuracy.is_finite()
    })
}

/// Indices `0..n`, last to first when `reverse`.
pub fn order(n: usize, reverse: bool) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| if reverse { n - 1 - i } else { i })
}

/// How one measured pass compares with the two verification passes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations that errored, panicked or broke an invariant, that the
    /// pass did not answer, or whose answer differs from the reference
    /// where both references agree.
    pub failed: u64,
    /// Of `failed`: answers that differ from the reference.
    pub mismatched: u64,
    /// Answers that differ from the forward reference on an operation whose
    /// two references differ. Reported on their own, not counted as failed.
    pub history: u64,
}

/// Compares a measured pass with the forward-order and reverse-order
/// verification passes; `classes` is the worse of their two
/// classifications of each operation.
pub fn tally(measured: &[u64], forward: &[u64], reverse: &[u64], classes: &[Class]) -> Tally {
    let mut t = Tally::default();
    for (i, want) in forward.iter().enumerate() {
        let bad = matches!(classes.get(i), None | Some(Class::Failed | Class::Broken));
        let ordered = reverse.get(i) != Some(want);
        match measured.get(i) {
            None => t.failed += 1,
            Some(got) if got != want && ordered => {
                t.history += 1;
                t.failed += u64::from(bad);
            }
            Some(got) if got != want => {
                t.mismatched += 1;
                t.failed += 1;
            }
            Some(_) => t.failed += u64::from(bad),
        }
    }
    t
}

/// Operations whose forward and reverse references differ: the answer
/// depends on evaluation order.
pub fn order_dependent(forward: &[u64], reverse: &[u64]) -> u64 {
    forward.iter().zip(reverse).filter(|(f, r)| f != r).count() as u64
}

/// Writes digests as little-endian words.
pub fn write_digests(path: &Path, digests: &[u64]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(digests.len() * 8);
    for d in digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    std::fs::File::create(path)?.write_all(&bytes)
}

/// Reads digests written by [`write_digests`].
pub fn read_digests(path: &Path) -> std::io::Result<Vec<u64>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// Writes verification classes, one byte each.
pub fn write_classes(path: &Path, classes: &[Class]) -> std::io::Result<()> {
    let bytes: Vec<u8> = classes.iter().map(|&c| c as u8).collect();
    std::fs::write(path, bytes)
}

/// Reads classes written by [`write_classes`].
pub fn read_classes(path: &Path) -> std::io::Result<Vec<Class>> {
    Ok(std::fs::read(path)?
        .into_iter()
        .map(Class::from_byte)
        .collect())
}

/// One digest over a whole pass, printed so a later change can show its
/// outputs unchanged.
pub fn pass_digest(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &d in digests {
        h.u64(d);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_core::fom::Fom;

    fn cands() -> Vec<Candidate> {
        vec![
            Candidate::new(
                "a",
                Fom {
                    latency_s: 4.425966944192826e-6,
                    energy_j: 1e-9,
                    area_mm2: 0.5,
                    accuracy: 0.9,
                },
            ),
            Candidate::new(
                "b",
                Fom {
                    latency_s: 2e-6,
                    energy_j: 3e-9,
                    area_mm2: 0.0,
                    accuracy: 0.8,
                },
            ),
        ]
    }

    #[test]
    fn a_flipped_output_bit_is_counted_as_failed() {
        let good = cands();
        let reference: Vec<u64> = (0..4)
            .map(|_| candidates_digest(&Ok(good.clone())).0)
            .collect();
        let classes = vec![Class::Ok; 4];
        let clean = tally(&reference, &reference, &reference, &classes);
        assert_eq!(clean, Tally::default());

        let mut bad = good.clone();
        bad[0].fom.latency_s = f64::from_bits(bad[0].fom.latency_s.to_bits() ^ 1);
        let mut measured = reference.clone();
        measured[2] = candidates_digest(&Ok(bad)).0;
        let t = tally(&measured, &reference, &reference, &classes);
        assert_eq!((t.failed, t.mismatched, t.history), (1, 1, 0));
        // A truncated pass counts its missing operations.
        let t = tally(&reference[..3], &reference, &reference, &classes);
        assert_eq!((t.failed, t.mismatched), (1, 0));
    }

    #[test]
    fn a_difference_where_the_references_disagree_is_order_dependent() {
        let forward = vec![1, 2, 3, 4];
        let reverse = vec![1, 2, 30, 4];
        let classes = vec![Class::Ok; 4];
        assert_eq!(order_dependent(&forward, &reverse), 1);
        // Either reference's answer, or a third one, on the order-dependent
        // operation is history, not a failure.
        for got in [3, 30, 300] {
            let t = tally(&[1, 2, got, 4], &forward, &reverse, &classes);
            assert_eq!(t.failed, 0);
            assert_eq!(t.history, u64::from(got != 3));
        }
        // The same difference on an operation both references agree on
        // fails.
        let t = tally(&[1, 20, 3, 4], &forward, &reverse, &classes);
        assert_eq!((t.failed, t.mismatched, t.history), (1, 1, 0));
    }

    #[test]
    fn failed_classes_count_even_when_both_passes_agree() {
        let d = vec![1, 2, 3, 4];
        let classes = [Class::Ok, Class::Infeasible, Class::Failed, Class::Broken];
        let t = tally(&d, &d, &d, &classes);
        assert_eq!((t.failed, t.mismatched, t.history), (2, 0, 0));
        assert_eq!(Class::Ok.max(Class::Broken), Class::Broken);
        assert_eq!(Class::Infeasible.max(Class::Ok), Class::Infeasible);
    }

    #[test]
    fn order_runs_forward_or_backward() {
        assert_eq!(order(3, false).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(order(3, true).collect::<Vec<_>>(), vec![2, 1, 0]);
        assert_eq!(order(0, true).count(), 0);
    }

    #[test]
    fn digests_round_trip_through_files() {
        let dir = std::env::temp_dir().join(format!("xlda-bench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = vec![1u64, u64::MAX, 42];
        write_digests(&dir.join("d"), &d).unwrap();
        assert_eq!(read_digests(&dir.join("d")).unwrap(), d);
        let c = vec![Class::Ok, Class::Infeasible, Class::Failed, Class::Broken];
        write_classes(&dir.join("c"), &c).unwrap();
        assert_eq!(read_classes(&dir.join("c")).unwrap(), c);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
