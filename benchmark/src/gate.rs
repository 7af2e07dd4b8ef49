//! The correctness gate: every operation the benchmark performs is counted
//! as attempted, and every wrong output, failed request or broken
//! paper-shape expectation as failed. A run with one failure is not a
//! measurement.

use crate::stats::mix64;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Order-independent digest of a `compute` output file: the record count
/// plus the wrapping sum of a 64-bit hash of every `count\tgram` line.
/// `compute` streams partitions in completion order, so two correct runs
/// agree on the set of lines but not on their order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub records: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add_line(&mut self, line: &[u8]) {
        // FNV-1a over the bytes, then a finalizer so that lines differing
        // in one low bit do not cancel in the sum.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in line {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.records += 1;
        self.sum = self.sum.wrapping_add(mix64(h));
    }

    pub fn of_file(path: &Path) -> std::io::Result<Digest> {
        let mut digest = Digest::default();
        let mut rd = BufReader::with_capacity(1 << 20, std::fs::File::open(path)?);
        let mut line = Vec::new();
        loop {
            line.clear();
            if rd.read_until(b'\n', &mut line)? == 0 {
                return Ok(digest);
            }
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            digest.add_line(&line);
        }
    }

    pub fn hex(&self) -> String {
        format!("{}:{:016x}", self.records, self.sum)
    }
}

/// Attempted/failed tally with the first few failure descriptions.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Failure descriptions kept; later ones are only counted.
const MAX_NOTES: usize = 20;

impl Gate {
    /// Count one operation; `describe` is only evaluated on failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    /// Fold in a tally kept elsewhere (a client thread's).
    pub fn absorb(&mut self, attempted: u64, failed: u64, notes: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(notes.into_iter().take(room));
    }

    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(lines: &[&str]) -> Digest {
        let mut d = Digest::default();
        for l in lines {
            d.add_line(l.as_bytes());
        }
        d
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = digest_of(&["5\t1 2", "7\t3", "9\t1 2 3"]);
        let b = digest_of(&["9\t1 2 3", "5\t1 2", "7\t3"]);
        assert_eq!(a, b);
        assert_eq!(a.records, 3);
        // One corrupted count, one dropped record, one duplicated record.
        assert_ne!(a, digest_of(&["5\t1 2", "7\t3", "8\t1 2 3"]));
        assert_ne!(a, digest_of(&["5\t1 2", "7\t3"]));
        assert_ne!(a, digest_of(&["5\t1 2", "7\t3", "9\t1 2 3", "7\t3"]));
        // Swapping counts between grams keeps every token but not the lines.
        assert_ne!(a, digest_of(&["7\t1 2", "5\t3", "9\t1 2 3"]));
    }

    #[test]
    fn digest_of_file_matches_lines() {
        let dir = std::env::temp_dir().join(format!("bench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.tsv");
        std::fs::write(&path, "5\t1 2\n7\t3\n").unwrap();
        assert_eq!(
            Digest::of_file(&path).unwrap(),
            digest_of(&["5\t1 2", "7\t3"])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_counts_and_remembers_failures() {
        let mut gate = Gate::default();
        gate.check(true, || unreachable!());
        gate.absorb(10, 0, Vec::new());
        assert!(gate.ok());
        gate.check(false, || "digest mismatch".into());
        assert!(!gate.ok());
        assert_eq!((gate.attempted, gate.failed), (12, 1));
        gate.absorb(5, 2, vec!["HTTP 500".into()]);
        assert_eq!((gate.attempted, gate.failed), (17, 3));
        assert_eq!(gate.notes, ["digest mismatch", "HTTP 500"]);
    }
}
