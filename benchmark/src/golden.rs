//! Output checking. Every operation's `(cycles, instructions, memory
//! image CRC)` must agree with every other pass of the same operation
//! and, at seed 0, with `golden.json`. The image CRC, not the statistics
//! CRC, so a counter added to `SimStats` later leaves the goldens valid.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, escape, Value};
use crate::workloads::{ItemResult, PassResult, Triple, Workload};

fn render_triple(t: Triple) -> String {
    format!("[{}, {}, {}]", t.cycles, t.issued, t.image_crc)
}

/// `golden.json`: workload → operation label → pinned result.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Golden(pub BTreeMap<String, BTreeMap<String, Triple>>);

impl Golden {
    /// The goldens that apply to a run of `w` at `seed`: seed 0's only.
    #[must_use]
    pub fn for_run(&self, w: Workload, seed: u64) -> Option<&BTreeMap<String, Triple>> {
        (seed == 0).then(|| self.0.get(w.name())).flatten()
    }

    /// Parses the file's text.
    ///
    /// # Errors
    ///
    /// A description of the first malformed entry.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = json::parse(text)?;
        let mut out = BTreeMap::new();
        for (workload, ops) in doc.as_object().ok_or("golden: not an object")? {
            if workload.starts_with('_') {
                continue;
            }
            let mut pinned = BTreeMap::new();
            for (label, v) in ops.as_object().ok_or("golden: workload is not an object")? {
                let bad = || format!("golden: {workload}/{label} is not [cycles, issued, crc]");
                let a = v.as_array().filter(|a| a.len() == 3).ok_or_else(bad)?;
                let n = |v: &Value| v.as_u64().ok_or_else(bad);
                pinned.insert(
                    label.clone(),
                    Triple {
                        cycles: n(&a[0])?,
                        issued: n(&a[1])?,
                        image_crc: u32::try_from(n(&a[2])?).map_err(|_| bad())?,
                    },
                );
            }
            out.insert(workload.clone(), pinned);
        }
        Ok(Golden(out))
    }

    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// The I/O or parse error, as text.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Golden::parse(&text)
    }

    /// The file's text: one operation per line, sorted, so a re-bless
    /// diffs cleanly.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "{\n  \"_format\": \"workload -> operation -> [sim_cycles, instr issued, memory-image \
             CRC32] at --seed 0; rewritten by `run --bless`\"",
        );
        for (workload, ops) in &self.0 {
            out.push_str(&format!(",\n  \"{}\": {{", escape(workload)));
            for (i, (label, p)) in ops.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                out.push_str(&format!(
                    "{sep}\n    \"{}\": {}",
                    escape(label),
                    render_triple(*p)
                ));
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Replaces `w`'s entries with what `pass` computed.
    pub fn bless(&mut self, w: Workload, pass: &PassResult) {
        let ops = pass
            .items
            .iter()
            .filter_map(|i| i.triple.map(|t| (i.label.clone(), t)))
            .collect();
        self.0.insert(w.name().to_owned(), ops);
    }
}

/// Why `t` is not what `golden` pins for `label`, if it is not.
#[must_use]
pub fn golden_mismatch(
    golden: &BTreeMap<String, Triple>,
    label: &str,
    t: Triple,
) -> Option<String> {
    match golden.get(label) {
        None => Some("has no entry in golden.json".to_owned()),
        Some(g) if *g != t => Some(format!(
            "gave {}, golden.json pins {}",
            render_triple(t),
            render_triple(*g)
        )),
        Some(_) => None,
    }
}

/// Counts operations and failures over the passes of one workload.
#[derive(Debug)]
pub struct Verifier<'a> {
    golden: Option<&'a BTreeMap<String, Triple>>,
    first: BTreeMap<String, Triple>,
    /// Operations checked.
    pub ops_total: u64,
    /// Operations that failed.
    pub ops_failed: u64,
    /// The first few failures, for the output.
    pub failures: Vec<String>,
}

/// Failure messages kept for display; every failure is still counted.
const FAILURES_SHOWN: usize = 8;

impl<'a> Verifier<'a> {
    /// A verifier that holds every pass to the first one and, where
    /// `golden` is given, the first one to the goldens.
    #[must_use]
    pub fn new(golden: Option<&'a BTreeMap<String, Triple>>) -> Self {
        Verifier {
            golden,
            first: BTreeMap::new(),
            ops_total: 0,
            ops_failed: 0,
            failures: Vec::new(),
        }
    }

    /// What the passes computed, by operation.
    #[must_use]
    pub fn results(&self) -> &BTreeMap<String, Triple> {
        &self.first
    }

    fn check(&mut self, item: &ItemResult) -> Result<(), String> {
        if let Some(f) = &item.failure {
            return Err(f.clone());
        }
        let t = item.triple.ok_or("no result")?;
        match self.first.get(&item.label) {
            Some(first) if *first != t => Err(format!(
                "gave {}, an earlier pass gave {}",
                render_triple(t),
                render_triple(*first)
            )),
            Some(_) => Ok(()),
            // A wrong golden is one failure, however many passes follow.
            None => {
                self.first.insert(item.label.clone(), t);
                self.golden
                    .and_then(|g| golden_mismatch(g, &item.label, t))
                    .map_or(Ok(()), Err)
            }
        }
    }

    /// Records a failure that is not tied to one pass item.
    pub fn fail(&mut self, message: String) {
        self.ops_failed += 1;
        if self.failures.len() < FAILURES_SHOWN {
            self.failures.push(message);
        }
    }

    /// Checks every operation of `pass`.
    pub fn pass(&mut self, pass: &PassResult) {
        for item in &pass.items {
            self.ops_total += 1;
            if let Err(why) = self.check(item) {
                self.fail(format!("{}: {why}", item.label));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ItemKind, Observed};

    fn item(label: &str, tc: bool, cycles: u64, crc: u32) -> ItemResult {
        ItemResult {
            label: label.to_owned(),
            triple: Some(Triple {
                cycles,
                issued: 100,
                image_crc: crc,
            }),
            wall_s: 0.1,
            slices: vec![0.1],
            failure: None,
            kind: ItemKind {
                tc,
                n_devices: 1,
                paper: true,
            },
            stats: None,
            observed: Observed::default(),
        }
    }

    fn pass(items: Vec<ItemResult>) -> PassResult {
        PassResult {
            wall_s: 0.2,
            setup_s: 0.01,
            items,
        }
    }

    #[test]
    fn render_parse_round_trip_and_bless() {
        let mut g = Golden::default();
        g.bless(
            Workload::CohGtsc,
            &pass(vec![item("a", false, 10, 7), item("b \"q\"", true, 11, 8)]),
        );
        let text = g.render();
        let back = Golden::parse(&text).expect("parses");
        assert_eq!(back, g);
        let ops = &back.0["coh_gtsc"];
        assert_eq!(ops["a"].cycles, 10);
        assert_eq!(ops["b \"q\""].image_crc, 8);
    }

    #[test]
    fn one_corrupt_golden_entry_is_exactly_one_failed_operation() {
        let mut g = Golden::default();
        let good = pass(vec![item("a", false, 10, 7), item("b", false, 20, 9)]);
        g.bless(Workload::CohGtsc, &good);
        let mut v = Verifier::new(g.for_run(Workload::CohGtsc, 0));
        v.pass(&good);
        assert_eq!((v.ops_total, v.ops_failed), (2, 0));

        g.0.get_mut("coh_gtsc")
            .unwrap()
            .get_mut("b")
            .unwrap()
            .cycles = 21;
        let mut v = Verifier::new(g.for_run(Workload::CohGtsc, 0));
        v.pass(&good);
        v.pass(&good);
        assert_eq!((v.ops_total, v.ops_failed), (4, 1));
        assert!(
            v.failures[0].contains("golden.json pins"),
            "{:?}",
            v.failures
        );
        // Other seeds have no goldens to disagree with.
        assert!(g.for_run(Workload::CohGtsc, 7).is_none());
        assert!(g.for_run(Workload::MultiGpu, 0).is_none());
    }

    #[test]
    fn passes_must_agree_with_each_other() {
        let mut v = Verifier::new(None);
        v.pass(&pass(vec![item("g", false, 10, 7), item("t", true, 50, 1)]));
        v.pass(&pass(vec![item("g", false, 10, 7), item("t", true, 50, 1)]));
        assert_eq!(v.ops_failed, 0);
        v.pass(&pass(vec![item("g", false, 11, 7)]));
        assert_eq!(v.ops_failed, 1);
        v.pass(&pass(vec![item("t", true, 50, 2)]));
        assert_eq!(v.ops_failed, 2);
        assert!(v.failures[1].contains("an earlier pass gave"));
    }

    #[test]
    fn reported_failures_and_missing_goldens_count() {
        let mut g = Golden::default();
        g.bless(Workload::CohGtsc, &pass(vec![item("a", false, 10, 7)]));
        let mut v = Verifier::new(g.for_run(Workload::CohGtsc, 0));
        let mut broken = item("a", false, 10, 7);
        broken.failure = Some("3 violation(s)".to_owned());
        v.pass(&pass(vec![broken, item("new", false, 1, 1)]));
        assert_eq!(v.ops_failed, 2);
        assert!(Golden::parse("{\"w\": {\"x\": [1, 2]}}").is_err());
        assert!(Golden::parse("{\"w\": {\"x\": [1.5, 2, 3]}}").is_err());
        assert!(Golden::parse("{\"w\": {\"x\": [1, 2, null]}}").is_err());
    }
}
