//! Output checks: per-pop-epoch sanity and the run fingerprint.

use ef_sim::{MetricsStore, RunReport};

/// Pop-epoch records that fail the sanity check: offered, dropped and
/// detoured must be finite, with `0 <= dropped <= offered` and
/// `0 <= detoured <= offered`.
pub fn failed_pop_epochs(metrics: &MetricsStore) -> u64 {
    metrics
        .pop_epochs
        .iter()
        .filter(|r| {
            let ok = r.offered_mbps.is_finite()
                && r.dropped_mbps.is_finite()
                && r.detoured_mbps.is_finite()
                && (0.0..=r.offered_mbps).contains(&r.dropped_mbps)
                && (0.0..=r.offered_mbps).contains(&r.detoured_mbps);
            !ok
        })
        .count() as u64
}

/// FNV-1a over the serialized [`RunReport`] plus the end-of-run bill, so
/// two runs agree only if their steering outcomes are byte-identical.
pub fn fingerprint(report: &RunReport, metrics: &MetricsStore) -> u64 {
    let json = serde_json::to_string(report).expect("a RunReport always serializes");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let bill = metrics.total_monthly_usd().to_bits().to_le_bytes();
    for byte in json.as_bytes().iter().chain(&bill) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_sim::PopEpochRecord;

    fn record(offered: f64, dropped: f64, detoured: f64) -> PopEpochRecord {
        PopEpochRecord {
            t_secs: 0,
            pop: 0,
            offered_mbps: offered,
            detoured_mbps: detoured,
            detoured_by_kind: Default::default(),
            overrides_active: 0,
            churn_announced: 0,
            churn_withdrawn: 0,
            overloaded_before: 0,
            residual_overloaded: 0,
            dropped_mbps: dropped,
            active_faults: Vec::new(),
            degraded: false,
            fail_open: false,
        }
    }

    #[test]
    fn out_of_range_and_non_finite_records_fail() {
        let mut metrics = MetricsStore::new();
        for r in [
            record(10.0, 0.0, 10.0),
            record(10.0, 11.0, 0.0),
            record(10.0, 0.0, -1.0),
            record(f64::NAN, 0.0, 0.0),
            record(10.0, 0.0, f64::INFINITY),
        ] {
            metrics.record_pop_epoch(r);
        }
        assert_eq!(failed_pop_epochs(&metrics), 4);
    }

    #[test]
    fn fingerprint_sees_any_report_change() {
        let metrics = MetricsStore::new();
        let a = RunReport::from_metrics(&metrics);
        let mut b = a.clone();
        b.episodes = 1;
        assert_eq!(fingerprint(&a, &metrics), fingerprint(&a.clone(), &metrics));
        assert_ne!(fingerprint(&a, &metrics), fingerprint(&b, &metrics));
    }
}
