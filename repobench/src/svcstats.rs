//! The service's `STATS` reply as numbers, and deltas between two
//! snapshots of it.

use std::collections::BTreeMap;

/// Numeric `key=value` pairs of one `STATS` reply.
pub type StatsSnapshot = BTreeMap<String, u64>;

/// Parses `OK k=v k=v ...`, keeping every pair whose value is an
/// unsigned integer. Fails on a reply that is not `OK`.
pub fn parse_stats(reply: &str) -> Result<StatsSnapshot, String> {
    let body = reply
        .strip_prefix("OK")
        .ok_or_else(|| format!("STATS failed: {reply}"))?;
    Ok(body
        .split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// `after - before` for every key of `after` (a key missing from
/// `before` counts from zero; a counter that went down gives zero).
pub fn delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    after
        .iter()
        .map(|(k, &a)| {
            (
                k.clone(),
                a.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Adds every counter of `d` into `acc`.
pub fn accumulate(acc: &mut StatsSnapshot, d: &StatsSnapshot) {
    for (k, v) in d {
        *acc.entry(k.clone()).or_default() += v;
    }
}

/// Value of `key`, zero when absent.
pub fn get(s: &StatsSnapshot, key: &str) -> u64 {
    s.get(key).copied().unwrap_or(0)
}

/// Mean in ms of a µs histogram: `sum_key / count_key` (NaN when empty).
pub fn mean_ms(s: &StatsSnapshot, sum_key: &str, count_key: &str) -> f64 {
    let n = get(s, count_key);
    if n == 0 {
        return f64::NAN;
    }
    get(s, sum_key) as f64 / n as f64 / 1000.0
}

/// The `key=` value of a reply line, such as `cardinality` or
/// `elapsed_us`.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply.split_whitespace().find_map(|tok| {
        let (k, v) = tok.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// [`field`] parsed as an unsigned integer.
pub fn field_u64(reply: &str, key: &str) -> Option<u64> {
    field(reply, key)?.parse().ok()
}
