//! Tables 1–7.
//!
//! Every builder is written against [`Source`], so the eager and
//! streaming pipelines produce each table through the same code path:
//! the world-wide counts come from the pre-folded
//! [`crate::aggregates::WorldAggregates`], and the longitudinal Table 5
//! reads only retained domains.

use std::collections::BTreeMap;

use serde_json::{json, Value};
use spfail_prober::{SnapshotStatus, BEHAVIOR_BITS};
use spfail_world::{tld as tldmod, PACKAGE_TIMELINE};

use crate::aggregates::{Outcomes, TABLE1_SETS};
use crate::pipeline::{Context, SetFilter, Source, StreamContext};
use crate::table::{count_pct, pct, Table};
use crate::Exhibit;

/// Table 1: overlap between the domain measurement sets.
pub fn table1(ctx: &Context) -> Exhibit {
    table1_impl(&Source::Eager(ctx))
}

/// Table 1 from a streaming run.
pub fn table1_streaming(sc: &StreamContext) -> Exhibit {
    table1_impl(&Source::Streaming(sc))
}

fn table1_impl(src: &Source) -> Exhibit {
    let agg = src.aggregates();
    let mut table = Table::new(["Domain Set", "∩ 2-Week MX", "∩ Alexa 1000", "∩ Alexa Top List"]);
    let mut cells = serde_json::Map::new();
    for (r, row_set) in TABLE1_SETS.iter().enumerate() {
        let row_total = agg.set_counts[row_set.index()];
        let mut row = vec![row_set.label().to_string()];
        for (c, col_set) in TABLE1_SETS.iter().enumerate() {
            let overlap = agg.overlaps[r][c];
            row.push(count_pct(overlap, row_total));
            cells.insert(
                format!("{}|{}", row_set.label(), col_set.label()),
                json!(overlap),
            );
        }
        table.row(row);
    }
    Exhibit {
        id: "table1",
        title: "Table 1: Overlap in domain measurement sets",
        paper_claim: "2-Week MX: 22,911 domains, 135 (0.5%) also in Alexa 1000, \
                      2,922 (12.7%) also in the Alexa Top List",
        rendered: table.render(),
        json: Value::Object(cells),
    }
}

/// Table 2: most common TLDs per domain set.
pub fn table2(ctx: &Context) -> Exhibit {
    table2_impl(&Source::Eager(ctx))
}

/// Table 2 from a streaming run.
pub fn table2_streaming(sc: &StreamContext) -> Exhibit {
    table2_impl(&Source::Streaming(sc))
}

fn table2_impl(src: &Source) -> Exhibit {
    let agg = src.aggregates();
    let mut table = Table::new(["#", "Alexa TLD", "Count", "2-Week TLD", "Count"]);
    let top15 = |counts: &BTreeMap<&'static str, usize>| -> Vec<(&'static str, usize)> {
        let mut sorted: Vec<(&'static str, usize)> = counts.iter().map(|(t, c)| (*t, *c)).collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        sorted.truncate(15);
        sorted
    };
    let alexa = top15(&agg.tld_alexa);
    let two_week = top15(&agg.tld_two_week);
    for i in 0..15 {
        let (at, ac) = alexa
            .get(i)
            .map(|(t, c)| (t.to_string(), c.to_string()))
            .unwrap_or_default();
        let (wt, wc) = two_week
            .get(i)
            .map(|(t, c)| (t.to_string(), c.to_string()))
            .unwrap_or_default();
        table.row([format!("{}", i + 1), at, ac, wt, wc]);
    }
    Exhibit {
        id: "table2",
        title: "Table 2: Most common TLDs per domain set",
        paper_claim: "com dominates both sets (55% of Alexa, 49% of 2-Week MX); \
                      Alexa tail is ccTLD-heavy (ru, ir, ...), 2-Week tail is \
                      institutional (org, edu, net, us, gov)",
        rendered: table.render(),
        json: json!({
            "alexa": alexa,
            "two_week": two_week,
        }),
    }
}

/// Table 3: NoMsg/BlankMsg test outcomes by domain set.
pub fn table3(ctx: &Context) -> Exhibit {
    table3_impl(&Source::Eager(ctx))
}

/// Table 3 from a streaming run.
pub fn table3_streaming(sc: &StreamContext) -> Exhibit {
    table3_impl(&Source::Streaming(sc))
}

fn table3_impl(src: &Source) -> Exhibit {
    let agg = src.aggregates();
    let columns = [
        ("Alexa domains", agg.domains[SetFilter::AlexaTopList.index()]),
        ("Alexa addrs", agg.addresses[SetFilter::AlexaTopList.index()]),
        ("2-Week domains", agg.domains[SetFilter::TwoWeek.index()]),
        ("2-Week addrs", agg.addresses[SetFilter::TwoWeek.index()]),
        ("Providers", agg.domains[SetFilter::TopProviders.index()]),
    ];
    let mut table = Table::new(
        std::iter::once("Outcome".to_string())
            .chain(columns.iter().map(|(l, _)| l.to_string())),
    );
    type RowGetter = fn(&Outcomes) -> (usize, usize);
    let rows: [(&str, RowGetter); 11] = [
        ("Total Tested", |o| (o.total, o.total)),
        ("Connection Refused", |o| (o.refused, o.total)),
        ("NoMsg Test", |o| (o.nomsg_total, o.total)),
        ("  SMTP Failure", |o| (o.nomsg_failure, o.nomsg_total)),
        ("  SPF Measured", |o| (o.nomsg_measured, o.nomsg_total)),
        ("  SPF Not Measured", |o| (o.nomsg_not_measured, o.nomsg_total)),
        ("BlankMsg Test", |o| (o.blank_total, o.total)),
        ("  SMTP Failure", |o| (o.blank_failure, o.blank_total)),
        ("  SPF Measured", |o| (o.blank_measured, o.blank_total)),
        ("  SPF Not Measured", |o| (o.blank_not_measured, o.blank_total)),
        ("Total SPF Measured", |o| (o.total_measured, o.total)),
    ];
    for (label, get) in rows {
        let mut row = vec![label.to_string()];
        for (_, outcomes) in &columns {
            let (count, total) = get(outcomes);
            row.push(count_pct(count, total));
        }
        table.row(row);
    }
    Exhibit {
        id: "table3",
        title: "Table 3: NoMsg/BlankMsg test outcomes by domain set",
        paper_claim: "Alexa: 418,840 domains (26% refused, 48% SPF measured) on \
                      174,679 addresses (47% refused, 23% measured); 2-Week: 22,911 \
                      domains (10% refused, 73% measured) on 11,203 addresses; \
                      BlankMsg recovers most hosts NoMsg misses",
        rendered: table.render(),
        json: json!(columns
            .iter()
            .map(|(label, o)| (label.to_string(), o.to_json()))
            .collect::<BTreeMap<String, Value>>()),
    }
}

/// Table 4: initial SPF results breakdown.
pub fn table4(ctx: &Context) -> Exhibit {
    table4_impl(&Source::Eager(ctx))
}

/// Table 4 from a streaming run.
pub fn table4_streaming(sc: &StreamContext) -> Exhibit {
    table4_impl(&Source::Streaming(sc))
}

fn table4_impl(src: &Source) -> Exhibit {
    let agg = src.aggregates();
    let mut table = Table::new([
        "Set",
        "SPF Measured",
        "Vulnerable",
        "Other non-compliant",
        "RFC-compliant",
    ]);
    let mut data = serde_json::Map::new();
    for set in [SetFilter::AlexaTopList, SetFilter::TwoWeek, SetFilter::All] {
        // Address-level breakdown.
        let a = agg.table4_addresses[set.index()];
        let compliant = a.measured - a.vulnerable - a.erroneous;
        table.row([
            format!("{} (addresses)", set.label()),
            a.measured.to_string(),
            count_pct(a.vulnerable, a.measured),
            count_pct(a.erroneous, a.measured),
            count_pct(compliant, a.measured),
        ]);

        // Domain-level breakdown: a domain inherits the worst behaviour
        // among its measured hosts (vulnerable > erroneous > compliant).
        let d = agg.table4_domains[set.index()];
        let d_compliant = d.measured - d.vulnerable - d.erroneous;
        table.row([
            format!("{} (domains)", set.label()),
            d.measured.to_string(),
            count_pct(d.vulnerable, d.measured),
            count_pct(d.erroneous, d.measured),
            count_pct(d_compliant, d.measured),
        ]);

        data.insert(
            set.label().to_string(),
            json!({
                "measured": a.measured,
                "vulnerable": a.vulnerable,
                "erroneous": a.erroneous,
                "compliant": compliant,
                "vulnerable_ci95": crate::stats::proportion_json(a.vulnerable, a.measured),
                "erroneous_ci95": crate::stats::proportion_json(a.erroneous, a.measured),
                "domains": {
                    "measured": d.measured,
                    "vulnerable": d.vulnerable,
                    "erroneous": d.erroneous,
                    "compliant": d_compliant,
                },
            }),
        );
    }
    Exhibit {
        id: "table4",
        title: "Table 4: SPF initial results breakdown (addresses)",
        paper_claim: "~1 in 6 SPF-validating Alexa addresses vulnerable, ~1 in 10 \
                      for 2-Week MX; ~6% more expand macros erroneously without \
                      being vulnerable; 7,212 vulnerable addresses in total (17% \
                      of tested servers)",
        rendered: table.render(),
        json: Value::Object(data),
    }
}

/// Table 5: best/worst patch rates by TLD.
pub fn table5(ctx: &Context) -> Exhibit {
    table5_impl(&Source::Eager(ctx))
}

/// Table 5 from a streaming run.
pub fn table5_streaming(sc: &StreamContext) -> Exhibit {
    table5_impl(&Source::Streaming(sc))
}

fn table5_impl(src: &Source) -> Exhibit {
    let campaign = src.campaign();
    let min_group = ((50.0 * src.config().scale).round() as usize).max(3);
    let mut per_tld: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for &domain in &campaign.vulnerable_domains {
        let tld = src.domain(domain).tld;
        let entry = per_tld.entry(tld).or_default();
        entry.1 += 1;
        if campaign.snapshot.get(&domain) == Some(&SnapshotStatus::Patched) {
            entry.0 += 1;
        }
    }
    let mut rows: Vec<(String, usize, usize, f64)> = per_tld
        .iter()
        .filter(|(_, (_, total))| *total >= min_group)
        .map(|(tld, (patched, total))| {
            (
                tld.to_string(),
                *patched,
                *total,
                *patched as f64 / *total as f64,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("rates are finite"));

    let mut table = Table::new(["TLD", "# Patched", "# Initially Vulnerable", "% Patched", "Paper"]);
    let paper = |tld: &str| -> String {
        tldmod::TLD_PATCH_RATES
            .iter()
            .find(|(t, _)| *t == tld)
            .map(|(_, r)| format!("{:.0}%", r * 100.0))
            .unwrap_or_else(|| "-".to_string())
    };
    let shown: Vec<&(String, usize, usize, f64)> = if rows.len() <= 10 {
        rows.iter().collect()
    } else {
        rows.iter().take(5).chain(rows.iter().rev().take(5).rev()).collect()
    };
    for (tld, patched, total, rate) in shown {
        table.row([
            format!(".{tld}"),
            patched.to_string(),
            total.to_string(),
            format!("{:.0}%", rate * 100.0),
            paper(tld),
        ]);
    }
    Exhibit {
        id: "table5",
        title: "Table 5: Best/worst patch rates for TLDs with enough vulnerable domains",
        paper_claim: "za 79%, gr 75%, de 46%, eu 29%, tr 28% at the top; \
                      ir/il 3%, by/ru 2%, tw 0% at the bottom; com benchmark 15%",
        rendered: table.render(),
        json: json!(rows
            .iter()
            .map(|(tld, p, t, r)| json!({"tld": tld, "patched": p, "vulnerable": t, "rate": r}))
            .collect::<Vec<_>>()),
    }
}

/// Table 6: package-manager patch timeline (input data, rendered as the
/// paper prints it).
pub fn table6() -> Exhibit {
    let mut table = Table::new([
        "Package Manager",
        "CVE-2021-20314",
        "CVE-2021-33912/13",
    ]);
    for row in PACKAGE_TIMELINE {
        let fmt = |days: Option<u16>, date: Option<&str>, bundled: bool| match (days, date) {
            (Some(d), Some(date)) => {
                let star = if bundled { "*" } else { "" };
                format!("{d}{star} ({date})")
            }
            _ => "Unpatched".to_string(),
        };
        table.row([
            row.name.to_string(),
            fmt(row.days_20314, row.date_20314, false),
            fmt(row.days_33912, row.date_33912, row.bundled),
        ]);
    }
    Exhibit {
        id: "table6",
        title: "Table 6: Patch timeline for package managers (days from disclosure)",
        paper_claim: "Debian patched the day after disclosure; RedHat/Gentoo/Arch \
                      bundled the fix with CVE-2021-20314 before disclosure; \
                      Ubuntu, FreeBSD, NetBSD and SUSE remained unpatched",
        rendered: format!("{}(* fix bundled with the CVE-2021-20314 update)\n", table.render()),
        json: json!(PACKAGE_TIMELINE
            .iter()
            .map(|r| json!({
                "manager": r.name,
                "days_20314": r.days_20314,
                "date_20314": r.date_20314,
                "days_33912": r.days_33912,
                "date_33912": r.date_33912,
                "bundled": r.bundled,
            }))
            .collect::<Vec<_>>()),
    }
}

/// Table 7: macro-expansion behaviours by IP address.
pub fn table7(ctx: &Context) -> Exhibit {
    table7_impl(&Source::Eager(ctx))
}

/// Table 7 from a streaming run.
pub fn table7_streaming(sc: &StreamContext) -> Exhibit {
    table7_impl(&Source::Streaming(sc))
}

fn table7_impl(src: &Source) -> Exhibit {
    let agg = src.aggregates();
    // BEHAVIOR_BITS is in MacroBehavior's Ord order, so walking the
    // count array in index order and skipping zeros reproduces the
    // observed-behaviour map.
    let counts: Vec<(&'static str, usize)> = BEHAVIOR_BITS
        .iter()
        .zip(agg.behavior_counts.iter())
        .filter(|(_, &count)| count > 0)
        .map(|(behavior, &count)| (behavior.label(), count))
        .collect();
    let measured = agg.measured_hosts;
    let unknown = agg.unknown_pattern_hosts;
    let multi = agg.multi_pattern_hosts;
    let mut table = Table::new(["Behaviour", "Addresses", "% of measured"]);
    for (label, count) in &counts {
        table.row([label.to_string(), count.to_string(), pct(*count, measured)]);
    }
    if unknown > 0 {
        table.row(["other/unknown".to_string(), unknown.to_string(), pct(unknown, measured)]);
    }
    table.row([
        "≥2 distinct patterns".to_string(),
        multi.to_string(),
        pct(multi, measured),
    ]);
    Exhibit {
        id: "table7",
        title: "Table 7: Behaviours in SPF macro expansion by IP address",
        paper_claim: "~1/6 of measured IPs show the vulnerable pattern; ~6% expand \
                      erroneously in other ways (no expansion, missing truncation, \
                      missing reversal, ...); 2,615 IPs (6%) sent ≥2 distinct \
                      expansion patterns",
        rendered: table.render(),
        json: json!({
            "measured": measured,
            "behaviors": counts.iter().map(|(b, c)| (b.to_string(), *c))
                .collect::<BTreeMap<String, usize>>(),
            "unknown_pattern_hosts": unknown,
            "multi_pattern": multi,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> &'static Context {
        crate::testctx::shared()
    }

    #[test]
    fn table1_diagonal_is_total() {
        let ctx = ctx();
        let e = table1(ctx);
        let two_week_total = ctx.set_domains(SetFilter::TwoWeek).len();
        assert_eq!(
            e.json["2-Week MX|2-Week MX"].as_u64().expect("present") as usize,
            two_week_total
        );
        // Scaled Table 1: the 2-week ∩ toplist overlap is ~12.7%.
        let overlap = e.json["2-Week MX|Alexa Top List"].as_u64().expect("present") as f64;
        let share = overlap / two_week_total as f64;
        assert!((0.08..0.18).contains(&share), "overlap share {share}");
    }

    #[test]
    fn table2_has_com_on_top_for_both_sets() {
        let e = table2(ctx());
        assert_eq!(e.json["alexa"][0][0], "com");
        assert_eq!(e.json["two_week"][0][0], "com");
    }

    #[test]
    fn table3_totals_are_consistent() {
        let ctx = ctx();
        let o = ctx.aggregates.addresses[SetFilter::AlexaTopList.index()];
        assert_eq!(o.total, o.refused + o.nomsg_total);
        assert_eq!(
            o.nomsg_total,
            o.nomsg_failure + o.nomsg_measured + o.nomsg_not_measured
        );
        assert_eq!(o.blank_total, o.nomsg_not_measured, "BlankMsg follows NoMsg misses");
        assert_eq!(
            o.blank_total,
            o.blank_failure + o.blank_measured + o.blank_not_measured
        );
        assert_eq!(o.total_measured, o.nomsg_measured + o.blank_measured);
        // Shape: refusal rate near the calibrated 47%.
        let refuse_rate = o.refused as f64 / o.total as f64;
        assert!((0.35..0.60).contains(&refuse_rate), "refuse rate {refuse_rate}");
    }

    #[test]
    fn table4_vulnerability_rates_have_the_paper_shape() {
        let ctx = ctx();
        let e = table4(ctx);
        let alexa = &e.json["Alexa Top List"];
        let two_week = &e.json["2-Week MX"];
        let rate = |v: &Value| {
            v["vulnerable"].as_f64().expect("number") / v["measured"].as_f64().expect("number")
        };
        let alexa_rate = rate(alexa);
        let two_week_rate = rate(two_week);
        assert!((0.10..0.28).contains(&alexa_rate), "alexa {alexa_rate}");
        // The two-set ordering (Alexa ~1/6 vs 2-Week ~1/10) is only
        // statistically meaningful with enough measured 2-Week hosts.
        if two_week["measured"].as_u64().expect("n") >= 100 {
            assert!(
                alexa_rate > two_week_rate,
                "Alexa addresses are more vulnerable than 2-Week MX \
                 ({alexa_rate} vs {two_week_rate})"
            );
        }
    }

    #[test]
    fn table5_orders_by_rate_and_tw_is_zero_when_present() {
        let ctx = ctx();
        let e = table5(ctx);
        let rows = e.json.as_array().expect("array");
        let rates: Vec<f64> = rows.iter().map(|r| r["rate"].as_f64().expect("rate")).collect();
        for pair in rates.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9, "sorted descending");
        }
        for row in rows {
            if row["tld"] == "tw" {
                assert_eq!(row["patched"], 0, "tw never patches (Table 5)");
            }
        }
    }

    #[test]
    fn table6_matches_static_data() {
        let e = table6();
        assert!(e.rendered.contains("Debian"));
        assert!(e.rendered.contains("Unpatched"));
        assert!(e.rendered.contains("2022-01-20"));
        assert_eq!(e.json.as_array().expect("array").len(), 9);
    }

    #[test]
    fn table7_multi_pattern_share_is_small() {
        let ctx = ctx();
        let e = table7(ctx);
        let measured = e.json["measured"].as_u64().expect("n") as f64;
        let multi = e.json["multi_pattern"].as_u64().expect("n") as f64;
        assert!(measured > 0.0);
        let share = multi / measured;
        assert!((0.0..0.15).contains(&share), "multi share {share}");
    }
}
