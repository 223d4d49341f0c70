//! Output checks made from the benchmark's side, independent of the
//! synthesizer's own bookkeeping, plus the pinned digest table.

use std::collections::BTreeMap;

use xring_core::{NodeId, Traffic, XRingDesign};
use xring_phot::RouterReport;

use crate::catalogue::WAVELENGTHS;

/// Catalogue key → pinned digest.
pub type Pinned = BTreeMap<String, u64>;

/// The pinned `describe()` digest of every catalogue design.
pub const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// FNV-1a 64-bit: the digest of a design's `describe()` text.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub fn digest(design: &XRingDesign) -> u64 {
    fnv1a64(design.describe().as_bytes())
}

/// Parses `key<TAB>hex-digest` lines; `#` starts a comment.
pub fn parse_digests(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, hex) = l.rsplit_once('\t')?;
            Some((key.to_owned(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Checks one design. Returns the list of violated properties (empty
/// when the design is good); each names the property and the input.
pub fn check_design(
    key: &str,
    design: &XRingDesign,
    report: &RouterReport,
    traffic: &Traffic,
    pinned: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut bad = Vec::new();
    let n = design.net.len();

    // The ring visits every node exactly once.
    let mut visits = vec![0usize; n];
    for node in design.cycle.order() {
        if let Some(v) = visits.get_mut(node.index()) {
            *v += 1;
        }
    }
    if design.cycle.order().len() != n || visits.iter().any(|&v| v != 1) {
        bad.push(format!(
            "{key}: ring does not visit every node exactly once"
        ));
    }

    // Every demanded pair is routed exactly once, and nothing else is.
    let mut routed: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for r in &design.plan.routes {
        *routed.entry((r.from, r.to)).or_default() += 1;
    }
    let demanded = traffic.pairs(&design.net);
    let once = demanded.iter().all(|p| routed.get(p) == Some(&1));
    if !once || routed.len() != demanded.len() {
        bad.push(format!(
            "{key}: {} demanded pairs, {} routed pairs, not each exactly once",
            demanded.len(),
            routed.len()
        ));
    }

    if report.num_wavelengths > WAVELENGTHS || design.plan.wavelengths_used() > WAVELENGTHS {
        bad.push(format!(
            "{key}: {} wavelengths over the budget of {WAVELENGTHS}",
            report.num_wavelengths.max(design.plan.wavelengths_used())
        ));
    }
    if !design.provenance.audit.is_clean() {
        bad.push(format!(
            "{key}: audit {}",
            design.provenance.audit.summary()
        ));
    }

    match pinned.get(key) {
        Some(&want) => {
            let got = digest(design);
            if got != want {
                bad.push(format!(
                    "{key}: describe() digest {got:016x}, pinned {want:016x}"
                ));
            }
        }
        None => bad.push(format!("{key}: no pinned digest")),
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_table_round_trips() {
        let text = "# comment\ncold n=24 seed=1\t00000000000000ff\n\nedit n=32 seed=2 base\tdeadbeefdeadbeef\n";
        let t = parse_digests(text);
        assert_eq!(t.len(), 2);
        assert_eq!(t["cold n=24 seed=1"], 0xff);
        assert_eq!(t["edit n=32 seed=2 base"], 0xdead_beef_dead_beef);
    }

    #[test]
    fn pinned_table_covers_the_catalogue() {
        let table = parse_digests(EXPECTED_DIGESTS);
        for c in crate::catalogue::cold_all() {
            assert!(table.contains_key(&c.key()), "{} unpinned", c.key());
        }
        for e in crate::catalogue::edit_all() {
            assert!(table.contains_key(&e.key()), "{} unpinned", e.key());
        }
    }

    #[test]
    fn check_flags_a_wrong_digest_and_a_missing_pair() {
        let net = xring_core::NetworkSpec::proton_8();
        let design =
            xring_core::Synthesizer::new(xring_core::SynthesisOptions::with_wavelengths(8))
                .synthesize(&net)
                .expect("proton_8 synthesizes");
        let report = design.report(
            "t",
            &Default::default(),
            Some(&Default::default()),
            &Default::default(),
        );
        let mut pinned = BTreeMap::new();
        pinned.insert("k".to_owned(), digest(&design));
        assert!(check_design("k", &design, &report, &Traffic::AllToAll, &pinned).is_empty());

        pinned.insert("k".to_owned(), digest(&design) ^ 1);
        let bad = check_design("k", &design, &report, &Traffic::AllToAll, &pinned);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("digest"));

        // A traffic set the design does not serve: the routed pairs no
        // longer match the demand.
        let fewer = Traffic::Custom(vec![(NodeId(0), NodeId(1))]);
        pinned.insert("k".to_owned(), digest(&design));
        let bad = check_design("k", &design, &report, &fewer, &pinned);
        assert!(bad.iter().any(|b| b.contains("routed")));
    }
}
