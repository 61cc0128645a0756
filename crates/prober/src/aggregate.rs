//! Online aggregation for streaming campaigns.
//!
//! Streaming mode cannot keep a [`HostInitialResult`] per host — that is
//! the O(hosts) column the mode exists to avoid. Instead every finished
//! initial measurement is compressed into a [`HostMask`]: a 22-bit
//! fingerprint that preserves *exactly* the predicates the longitudinal
//! engine and every exhibit read from the initial sweep (outcome ladder,
//! macro behaviours, vulnerability, preferred re-probe test). Masks fold
//! into an [`OnlineAggregate`] whose `merge` is associative and
//! commutative by construction — all counters are integers, the stats
//! moments are exact integer sums — so any sharding or round-boundary
//! split of the host stream produces the same totals.
//!
//! [`CampaignSummary`] is the cross-mode equality artifact: the part of a
//! campaign's output that both eager and streaming mode produce, compared
//! bit-for-bit by `tests/streaming_equivalence.rs`.

use std::collections::HashMap;

use spfail_netsim::MetricsSnapshot;
use spfail_world::{DomainId, HostId};

use crate::campaign::{
    CampaignData, HostClass, HostInitialResult, RoundStatus, SnapshotStatus,
};
pub use crate::classify::BEHAVIOR_BITS;
use crate::ethics::EthicsAudit;
use crate::probe::ProbeTest;

/// A host's initial measurement, compressed to one `u32`.
///
/// Bits 0–8 are the conclusive classification's behaviour set (indexed by
/// [`BEHAVIOR_BITS`]); the remaining bits are the outcome predicates the
/// rest of the system reads. The compression is lossy — probe ids, raw
/// transactions and unknown-pattern *counts* are dropped — but every
/// derived quantity (the [`HostClass`] ladder, tracking, the preferred
/// re-probe test, all Table 3/4/7 predicates) survives exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HostMask(pub u32);

impl HostMask {
    /// `nomsg.refused()`.
    pub const NOMSG_REFUSED: u32 = 1 << 9;
    /// `nomsg.smtp_failure()`.
    pub const NOMSG_FAILURE: u32 = 1 << 10;
    /// `nomsg.spf_measured()`.
    pub const NOMSG_MEASURED: u32 = 1 << 11;
    /// A BlankMsg probe ran.
    pub const BLANK_PRESENT: u32 = 1 << 12;
    /// `blank.smtp_failure()`.
    pub const BLANK_FAILURE: u32 = 1 << 13;
    /// `blank.spf_measured()`.
    pub const BLANK_MEASURED: u32 = 1 << 14;
    /// `classification().is_some()`.
    pub const MEASURED: u32 = 1 << 15;
    /// The vulnerable fingerprint was observed.
    pub const VULNERABLE: u32 = 1 << 16;
    /// `classification().erroneous_non_vulnerable()`.
    pub const ERRONEOUS: u32 = 1 << 17;
    /// `classification().unknown_patterns > 0`.
    pub const UNKNOWN_PATTERNS: u32 = 1 << 18;
    /// `classification().multi_pattern()`.
    pub const MULTI_PATTERN: u32 = 1 << 19;
    /// The conclusive measurement came from the NoMsg test.
    pub const MEASURED_BY_NOMSG: u32 = 1 << 20;
    /// Some probe ended in a transient failure (re-measurable).
    pub const TRANSIENT: u32 = 1 << 21;

    /// Compress one initial result.
    pub fn from_initial(result: &HostInitialResult) -> HostMask {
        let mut bits = 0u32;
        if result.nomsg.refused() {
            bits |= Self::NOMSG_REFUSED;
        }
        if result.nomsg.smtp_failure() {
            bits |= Self::NOMSG_FAILURE;
        }
        if result.nomsg.spf_measured() {
            bits |= Self::NOMSG_MEASURED;
        }
        if let Some(blank) = &result.blankmsg {
            bits |= Self::BLANK_PRESENT;
            if blank.smtp_failure() {
                bits |= Self::BLANK_FAILURE;
            }
            if blank.spf_measured() {
                bits |= Self::BLANK_MEASURED;
            }
        }
        if let Some(classification) = result.classification() {
            // Bits 0–8 are the behaviour set's own bits.
            bits |= Self::MEASURED | u32::from(classification.behaviors.bits());
            if classification.vulnerable() {
                bits |= Self::VULNERABLE;
            }
            if classification.erroneous_non_vulnerable() {
                bits |= Self::ERRONEOUS;
            }
            if classification.unknown_patterns > 0 {
                bits |= Self::UNKNOWN_PATTERNS;
            }
            if classification.multi_pattern() {
                bits |= Self::MULTI_PATTERN;
            }
        }
        if result.measured_by() == Some(ProbeTest::NoMsg) {
            bits |= Self::MEASURED_BY_NOMSG;
        }
        if result.transient() {
            bits |= Self::TRANSIENT;
        }
        HostMask(bits)
    }

    fn has(self, bit: u32) -> bool {
        self.0 & bit != 0
    }

    /// Whether the behaviour at `BEHAVIOR_BITS[i]` was observed.
    pub fn behavior(self, i: usize) -> bool {
        debug_assert!(i < BEHAVIOR_BITS.len());
        self.0 & (1 << i) != 0
    }

    /// `classification().is_some()`.
    pub fn measured(self) -> bool {
        self.has(Self::MEASURED)
    }

    /// The vulnerable fingerprint was observed — exactly
    /// [`HostInitialResult::vulnerable`].
    pub fn vulnerable(self) -> bool {
        self.has(Self::VULNERABLE)
    }

    /// Exactly `classification().erroneous_non_vulnerable()`.
    pub fn erroneous(self) -> bool {
        self.has(Self::ERRONEOUS)
    }

    /// Exactly `classification().unknown_patterns > 0`.
    pub fn unknown_patterns(self) -> bool {
        self.has(Self::UNKNOWN_PATTERNS)
    }

    /// Exactly `classification().multi_pattern()`.
    pub fn multi_pattern(self) -> bool {
        self.has(Self::MULTI_PATTERN)
    }

    /// Exactly [`HostInitialResult::transient`].
    pub fn transient(self) -> bool {
        self.has(Self::TRANSIENT)
    }

    /// `nomsg.refused()`.
    pub fn nomsg_refused(self) -> bool {
        self.has(Self::NOMSG_REFUSED)
    }

    /// `nomsg.smtp_failure()`.
    pub fn nomsg_failure(self) -> bool {
        self.has(Self::NOMSG_FAILURE)
    }

    /// `nomsg.spf_measured()`.
    pub fn nomsg_measured(self) -> bool {
        self.has(Self::NOMSG_MEASURED)
    }

    /// Whether a BlankMsg probe ran.
    pub fn blank_present(self) -> bool {
        self.has(Self::BLANK_PRESENT)
    }

    /// `blank.smtp_failure()` (false when no BlankMsg probe ran).
    pub fn blank_failure(self) -> bool {
        self.has(Self::BLANK_FAILURE)
    }

    /// `blank.spf_measured()` (false when no BlankMsg probe ran).
    pub fn blank_measured(self) -> bool {
        self.has(Self::BLANK_MEASURED)
    }

    /// The probe variant that produced the conclusive measurement —
    /// exactly [`HostInitialResult::measured_by`].
    pub fn measured_by(self) -> Option<ProbeTest> {
        if self.has(Self::MEASURED_BY_NOMSG) {
            Some(ProbeTest::NoMsg)
        } else if self.measured() {
            Some(ProbeTest::BlankMsg)
        } else {
            None
        }
    }

    /// The Table 3 outcome ladder — exactly [`HostInitialResult::class`].
    pub fn class(self) -> HostClass {
        if self.measured() {
            return HostClass::SpfMeasured;
        }
        if self.nomsg_refused() {
            return HostClass::Refused;
        }
        if self.nomsg_failure() || self.blank_failure() {
            return HostClass::SmtpFailure;
        }
        HostClass::SpfNotMeasured
    }

    /// Whether the longitudinal engine tracks this host — exactly the
    /// membership test of `Campaign::derive_tracking` (transient hosts
    /// are only re-tracked when also vulnerable, so the vulnerable bit
    /// alone decides).
    pub fn tracked(self) -> bool {
        self.vulnerable()
    }
}

/// Number of host-id series buckets in an [`OnlineAggregate`].
pub const SERIES_BUCKETS: usize = 16;

/// A bounded-size, exactly-mergeable fold of host masks.
///
/// Merging is associative and commutative because every field is either
/// an integer sum, an integer max, or delegates to a merge with the same
/// algebra ([`EthicsAudit::merge`], [`MetricsSnapshot::merge`]). The
/// stats moments are *integer* sums (u128 for the squares), so there is
/// no floating-point reassociation to break bit-for-bit equality across
/// shard counts or stream splits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineAggregate {
    /// Hosts folded in.
    pub hosts: u64,
    /// Table 3 ladder counts, indexed Refused/SmtpFailure/SpfMeasured/
    /// SpfNotMeasured.
    pub class_counts: [u64; 4],
    /// Hosts showing each behaviour, indexed by [`BEHAVIOR_BITS`].
    pub behavior_counts: [u64; 9],
    /// Hosts with the vulnerable fingerprint.
    pub vulnerable: u64,
    /// Hosts expanding erroneously without being vulnerable.
    pub erroneous: u64,
    /// Hosts with at least one unknown expansion pattern.
    pub unknown_patterns: u64,
    /// Hosts showing ≥2 distinct expansion patterns.
    pub multi_pattern: u64,
    /// Hosts with a transient probe failure.
    pub transient: u64,
    /// Hosts measured by the NoMsg test.
    pub measured_by_nomsg: u64,
    /// Hosts that ran a BlankMsg probe.
    pub blank_probes: u64,
    /// Exact moments of the per-host distinct-behaviour count:
    /// observations (measured hosts), sum, and sum of squares.
    pub moment_count: u64,
    /// Sum of per-host behaviour-set sizes.
    pub moment_sum: u128,
    /// Sum of squared per-host behaviour-set sizes.
    pub moment_sum_sq: u128,
    /// Hosts per `host.0 % SERIES_BUCKETS` bucket — a split-invariance
    /// witness: any partition of the host stream folds to the same
    /// histogram.
    pub bucket_hosts: [u64; SERIES_BUCKETS],
    /// Vulnerable hosts per bucket.
    pub bucket_vulnerable: [u64; SERIES_BUCKETS],
    /// Self-restraint totals folded from finished probers.
    pub ethics: EthicsAudit,
    /// Network-layer totals folded from finished probers.
    pub network: MetricsSnapshot,
}

impl OnlineAggregate {
    /// Fold one host's mask in.
    pub fn observe(&mut self, host: HostId, mask: HostMask) {
        self.hosts += 1;
        let class_idx = match mask.class() {
            HostClass::Refused => 0,
            HostClass::SmtpFailure => 1,
            HostClass::SpfMeasured => 2,
            HostClass::SpfNotMeasured => 3,
        };
        self.class_counts[class_idx] += 1;
        let mut behaviors = 0u64;
        for i in 0..BEHAVIOR_BITS.len() {
            if mask.behavior(i) {
                self.behavior_counts[i] += 1;
                behaviors += 1;
            }
        }
        if mask.vulnerable() {
            self.vulnerable += 1;
        }
        if mask.erroneous() {
            self.erroneous += 1;
        }
        if mask.unknown_patterns() {
            self.unknown_patterns += 1;
        }
        if mask.multi_pattern() {
            self.multi_pattern += 1;
        }
        if mask.transient() {
            self.transient += 1;
        }
        if mask.measured_by() == Some(ProbeTest::NoMsg) {
            self.measured_by_nomsg += 1;
        }
        if mask.blank_present() {
            self.blank_probes += 1;
        }
        if mask.measured() {
            self.moment_count += 1;
            self.moment_sum += u128::from(behaviors);
            self.moment_sum_sq += u128::from(behaviors) * u128::from(behaviors);
        }
        let bucket = host.0 as usize % SERIES_BUCKETS;
        self.bucket_hosts[bucket] += 1;
        if mask.vulnerable() {
            self.bucket_vulnerable[bucket] += 1;
        }
    }

    /// Fold a finished prober's totals in.
    pub fn observe_totals(&mut self, ethics: &EthicsAudit, network: &MetricsSnapshot) {
        self.ethics = self.ethics.merge(ethics);
        self.network = self.network.merge(network);
    }

    /// The associative, commutative merge: `fold(A ∪ B) ==
    /// merge(fold(A), fold(B))` for any partition of the host stream.
    pub fn merge(&self, other: &OnlineAggregate) -> OnlineAggregate {
        let mut out = self.clone();
        out.hosts += other.hosts;
        for i in 0..4 {
            out.class_counts[i] += other.class_counts[i];
        }
        for i in 0..BEHAVIOR_BITS.len() {
            out.behavior_counts[i] += other.behavior_counts[i];
        }
        out.vulnerable += other.vulnerable;
        out.erroneous += other.erroneous;
        out.unknown_patterns += other.unknown_patterns;
        out.multi_pattern += other.multi_pattern;
        out.transient += other.transient;
        out.measured_by_nomsg += other.measured_by_nomsg;
        out.blank_probes += other.blank_probes;
        out.moment_count += other.moment_count;
        out.moment_sum += other.moment_sum;
        out.moment_sum_sq += other.moment_sum_sq;
        for i in 0..SERIES_BUCKETS {
            out.bucket_hosts[i] += other.bucket_hosts[i];
            out.bucket_vulnerable[i] += other.bucket_vulnerable[i];
        }
        out.ethics = out.ethics.merge(&other.ethics);
        out.network = out.network.merge(&other.network);
        out
    }

    /// Mean of the per-host distinct-behaviour count (exact ratio of
    /// integer totals, computed once at read time).
    pub fn behavior_mean(&self) -> f64 {
        if self.moment_count == 0 {
            return 0.0;
        }
        self.moment_sum as f64 / self.moment_count as f64
    }

    /// Population variance of the per-host distinct-behaviour count.
    pub fn behavior_variance(&self) -> f64 {
        if self.moment_count == 0 {
            return 0.0;
        }
        let n = self.moment_count as f64;
        let mean = self.behavior_mean();
        (self.moment_sum_sq as f64 / n) - mean * mean
    }

    /// Fold an entire mask column (index = host id).
    pub fn from_masks(masks: &[u32]) -> OnlineAggregate {
        let mut agg = OnlineAggregate::default();
        for (i, &bits) in masks.iter().enumerate() {
            agg.observe(HostId(i as u32), HostMask(bits));
        }
        agg
    }
}

/// The part of a campaign's output that eager and streaming mode both
/// produce, bit for bit: the cross-mode equality artifact.
///
/// Eager mode derives it from the full [`CampaignData`]; streaming mode
/// carries `masks` through the campaign instead of per-host initial
/// results and fills the rest from the same longitudinal engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// One [`HostMask`] per host, indexed by host id.
    pub masks: Vec<u32>,
    /// Hosts tracked longitudinally (sorted).
    pub tracked: Vec<HostId>,
    /// Initially vulnerable domains (sorted).
    pub vulnerable_domains: Vec<DomainId>,
    /// Per-round statuses, exactly [`CampaignData::rounds`].
    pub rounds: Vec<(u16, HashMap<HostId, RoundStatus>)>,
    /// The final snapshot, exactly [`CampaignData::snapshot`].
    pub snapshot: HashMap<DomainId, SnapshotStatus>,
    /// The campaign-wide self-restraint audit.
    pub ethics: EthicsAudit,
    /// The campaign-wide network totals.
    pub network: MetricsSnapshot,
}

impl CampaignSummary {
    /// Derive the summary from eager-mode campaign data. The initial
    /// sweep probes every host exactly once, so `data.initial` is a
    /// dense host column; any gap is a bug worth failing loudly on.
    pub fn from_data(data: &CampaignData) -> CampaignSummary {
        let n = data.initial.results.len();
        let mut masks = vec![0u32; n];
        for (host, result) in &data.initial.results {
            let idx = host.0 as usize;
            assert!(idx < n, "initial results are a dense host column");
            masks[idx] = HostMask::from_initial(result).0;
        }
        CampaignSummary {
            masks,
            tracked: data.tracked.clone(),
            vulnerable_domains: data.vulnerable_domains.clone(),
            rounds: data.rounds.clone(),
            snapshot: data.snapshot.clone(),
            ethics: data.ethics.clone(),
            network: data.network,
        }
    }

    /// The aggregate view of the mask column.
    pub fn aggregate(&self) -> OnlineAggregate {
        let mut agg = OnlineAggregate::from_masks(&self.masks);
        agg.observe_totals(&self.ethics, &self.network);
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_world::{World, WorldConfig};

    fn small_run() -> CampaignData {
        let world = World::generate(WorldConfig {
            seed: 7,
            scale: 0.004,
            ..WorldConfig::default()
        });
        crate::CampaignBuilder::new().run(&world).data
    }

    #[test]
    fn mask_preserves_every_initial_predicate() {
        let data = small_run();
        for (host, result) in &data.initial.results {
            let mask = HostMask::from_initial(result);
            assert_eq!(mask.class(), result.class(), "host {host:?}");
            assert_eq!(mask.vulnerable(), result.vulnerable());
            assert_eq!(mask.transient(), result.transient());
            assert_eq!(mask.measured_by(), result.measured_by());
            assert_eq!(mask.measured(), result.classification().is_some());
            assert_eq!(mask.nomsg_refused(), result.nomsg.refused());
            assert_eq!(mask.nomsg_failure(), result.nomsg.smtp_failure());
            assert_eq!(mask.nomsg_measured(), result.nomsg.spf_measured());
            assert_eq!(mask.blank_present(), result.blankmsg.is_some());
            assert_eq!(
                mask.blank_failure(),
                result.blankmsg.as_ref().is_some_and(|b| b.smtp_failure())
            );
            assert_eq!(
                mask.blank_measured(),
                result.blankmsg.as_ref().is_some_and(|b| b.spf_measured())
            );
            if let Some(c) = result.classification() {
                assert_eq!(mask.erroneous(), c.erroneous_non_vulnerable());
                assert_eq!(mask.unknown_patterns(), c.unknown_patterns > 0);
                assert_eq!(mask.multi_pattern(), c.multi_pattern());
                for (i, b) in BEHAVIOR_BITS.iter().enumerate() {
                    assert_eq!(mask.behavior(i), c.behaviors.contains(b));
                }
            }
        }
    }

    #[test]
    fn tracked_bit_matches_derive_tracking() {
        let data = small_run();
        let from_masks: Vec<HostId> = {
            let summary = CampaignSummary::from_data(&data);
            summary
                .masks
                .iter()
                .enumerate()
                .filter(|(_, &m)| HostMask(m).tracked())
                .map(|(i, _)| HostId(i as u32))
                .collect()
        };
        assert_eq!(from_masks, data.tracked);
    }

    #[test]
    fn aggregate_totals_match_direct_counts() {
        let data = small_run();
        let summary = CampaignSummary::from_data(&data);
        let agg = summary.aggregate();
        assert_eq!(agg.hosts as usize, data.initial.results.len());
        assert_eq!(agg.vulnerable as usize, data.tracked.len());
        let measured = data
            .initial
            .results
            .values()
            .filter(|r| r.classification().is_some())
            .count();
        assert_eq!(agg.class_counts[2] as usize, measured);
        assert_eq!(agg.moment_count as usize, measured);
        assert_eq!(agg.ethics, data.ethics);
        assert_eq!(agg.network, data.network);
    }

    #[test]
    fn merge_is_associative_and_split_invariant() {
        let data = small_run();
        let summary = CampaignSummary::from_data(&data);
        let whole = OnlineAggregate::from_masks(&summary.masks);
        // Split the column three ways at arbitrary points.
        let n = summary.masks.len();
        let (a_end, b_end) = (n / 3, 2 * n / 3);
        let fold = |range: std::ops::Range<usize>| {
            let mut agg = OnlineAggregate::default();
            for i in range {
                agg.observe(HostId(i as u32), HostMask(summary.masks[i]));
            }
            agg
        };
        let (a, b, c) = (fold(0..a_end), fold(a_end..b_end), fold(b_end..n));
        assert_eq!(a.merge(&b).merge(&c), whole);
        assert_eq!(a.merge(&b.merge(&c)), whole);
        assert_eq!(c.merge(&a).merge(&b), whole, "commutes");
    }
}
