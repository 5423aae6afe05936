//! Pinned digests of campaign output bytes.
//!
//! Each case runs a fixed seeded campaign and hashes the exact bytes a
//! client would receive: every `record` wire line in index order, then
//! the `campaign_report` line. The digests were taken from the simulator
//! that kept every event time as a canonical `Ratio`; the tick-clock
//! simulator must reproduce them bit for bit. A deliberate change of
//! output bytes (for instance a different position integrator) updates
//! the pinned values in the same change that explains why.
//!
//! The second case covers the paths where the simulator's tick grid has
//! to widen at run time: the Section 5 freeze instant (asymmetric radii,
//! an arbitrary `f64` offset) and the dedicated programs' off-grid
//! distances.

use rv_core::shard::{CampaignSpec, SolverSpec};
use rv_core::{almost_universal_rv, wire, Budget, Campaign, FixedPair, Visibility};
use rv_model::{Instance, TargetClass};
use rv_numeric::ratio;

const SEED: u64 = 20_201_118;
const N: usize = 45;
const SEGMENTS: u64 = 20_000;

/// FNV-1a (64-bit) over the record lines in index order, then the
/// `campaign_report` line, each terminated by `\n`.
fn digest(report: &rv_core::CampaignReport) -> String {
    let mut lines: Vec<String> = report
        .records
        .iter()
        .enumerate()
        .map(|(i, rec)| wire::encode_record(i, rec))
        .collect();
    lines.push(wire::encode_campaign_report(&report.stats));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn nine_classes(solver: SolverSpec) -> CampaignSpec {
    CampaignSpec::new(solver, TargetClass::all().to_vec(), SEGMENTS)
}

#[test]
fn aur_nine_class_campaign_bytes_are_pinned() {
    let report = nine_classes(SolverSpec::Aur).run_local(SEED, N);
    assert_eq!(
        digest(&report),
        "c8cf9194da388d5c",
        "AUR campaign output bytes moved"
    );
}

#[test]
fn widening_paths_asymmetric_and_dedicated_bytes_are_pinned() {
    let spec = nine_classes(SolverSpec::Dedicated);
    let dedicated = spec.run_local(SEED, N);
    assert_eq!(
        digest(&dedicated),
        "b3c7d1bf3d785cd7",
        "dedicated campaign output bytes moved"
    );

    // Agent A sees at 5/2·r and freezes; rendezvous is at r.
    let asym = FixedPair::symmetric("aur-asym", |_| almost_universal_rv()).visibility(
        Visibility::Scaled {
            a: ratio(5, 2),
            b: ratio(1, 1),
        },
    );
    let instances: Vec<Instance> = (0..N).map(|i| spec.instance(SEED, i)).collect();
    let asymmetric = Campaign::new(asym, Budget::default().segments(SEGMENTS)).run(&instances);
    assert_eq!(
        digest(&asymmetric),
        "2f49ed477de8139d",
        "asymmetric-radii campaign output bytes moved"
    );
}
