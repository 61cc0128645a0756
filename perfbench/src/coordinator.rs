//! The coordinator: start fresh worker processes for the run's time budget,
//! check their outputs, and turn their records into metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use spfail_report::EXHIBIT_REGISTRY;

use crate::digest::Digest;
use crate::workload::{Workload, DEFAULT_SEED};

/// Output digests of each workload at the default seed and scale,
/// recorded from the program these numbers were defined on.
const REFERENCE: &str = include_str!("../reference.txt");

/// Measured worker processes per run, however short `--seconds` is:
/// counters and outputs are compared across at least two.
const MIN_WORKERS: usize = 2;

/// Extra worker processes that only set up, started after each measured
/// worker of an untraced run, so `setup_s` is a median over many samples
/// spread across the run even where set-up takes a millisecond.
const SETUP_PROBES_PER_WORKER: usize = 2;

/// The end-to-end metrics, measured with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("round_ms_p50", "ms"),
    ("round_ms_p70", "ms"),
    ("pass_rate", "ratio"),
];

/// Span-derived per-layer times and allocation counts: `(metric, span,
/// unit, how)`. `Sum` adds the durations of a process's spans of that
/// name, `Allocs` their allocation calls; `Median` takes the median
/// span, in ms.
const SPAN_METRICS: &[(&str, &str, &str, How)] = &[
    ("world.generate_s", "world.generate", "s", How::Sum),
    (
        "world.generate_allocs",
        "world.generate",
        "count",
        How::Allocs,
    ),
    ("prober.sweep_s", "prober.sweep", "s", How::Sum),
    ("prober.sweep_allocs", "prober.sweep", "count", How::Allocs),
    ("prober.rounds_s", "prober.round", "s", How::Sum),
    ("prober.rounds_allocs", "prober.round", "count", How::Allocs),
    ("prober.finish_s", "prober.finish", "s", How::Sum),
    (
        "prober.checkpoint_write_ms",
        "prober.checkpoint_write",
        "ms",
        How::Median,
    ),
    (
        "prober.checkpoint_read_ms",
        "prober.checkpoint_read",
        "ms",
        How::Median,
    ),
    ("trace.export_s", "trace.export", "s", How::Sum),
    ("notify.run_s", "notify.run", "s", How::Sum),
    ("report.aggregates_s", "report.aggregates", "s", How::Sum),
    ("report.exhibits_s", "report.exhibits", "s", How::Sum),
    (
        "report.exhibits_allocs",
        "report.exhibits",
        "count",
        How::Allocs,
    ),
];

#[derive(Clone, Copy)]
enum How {
    Sum,
    Median,
    Allocs,
}

/// Counters the program exposes, exact for a given (workload, seed,
/// shards): `(metric, unit)`. Ratios are derived from them.
const COUNTERS: &[(&str, &str)] = &[
    ("world.hosts", "count"),
    ("world.domains", "count"),
    ("prober.probes_issued", "count"),
    ("prober.round_probes_skipped", "count"),
    ("prober.retries", "count"),
    ("prober.recovered", "count"),
    ("prober.ethics_spaced", "count"),
    ("prober.ethics_greylist_waits", "count"),
    ("prober.ethics_dedup_suppressed", "count"),
    ("prober.checkpoint_bytes", "bytes"),
    ("spf.cache_hits", "count"),
    ("spf.cache_misses", "count"),
    ("spf.cache_interned", "count"),
    ("dns.queries", "count"),
    ("dns.cache_hits", "count"),
    ("dns.truncated", "count"),
    ("dns.timeouts", "count"),
    ("dns.servfails", "count"),
    ("netsim.datagrams_sent", "count"),
    ("netsim.datagrams_dropped", "count"),
    ("netsim.bytes_sent", "bytes"),
    ("smtp.tempfails", "count"),
    ("smtp.resets", "count"),
    ("smtp.window_closed_probes", "count"),
    ("trace.records", "count"),
    ("trace.jsonl_bytes", "bytes"),
    ("notify.sent", "count"),
];

/// Every per-layer metric and its unit, in report order.
fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = SPAN_METRICS
        .iter()
        .map(|&(name, _, unit, _)| (name.to_string(), unit))
        .collect();
    out.extend(
        COUNTERS
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit)),
    );
    for name in [
        "prober.round_skip_ratio",
        "prober.recovery_ratio",
        "prober.checkpoint_wall_share",
        "spf.cache_hit_ratio",
        "spf.intern_reuse_ratio",
    ] {
        out.push((name.to_string(), "ratio"));
    }
    out.push(("prober.checkpoint_allocs".to_string(), "count"));
    out.push(("prober.resume_ms_p50".to_string(), "ms"));
    out.push(("prober.resume_ms_p70".to_string(), "ms"));
    for entry in EXHIBIT_REGISTRY {
        out.push((format!("report.exhibit_s.{}", entry.id), "s"));
    }
    out.push(("bench.unattributed_s".to_string(), "s"));
    out.push(("bench.trace_overhead_s".to_string(), "s"));
    out
}

/// One stage span a worker recorded.
struct SpanRec {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u128,
    end_ns: u128,
    allocs: u64,
    bytes: u64,
}

impl SpanRec {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// What one worker process reported.
#[derive(Default)]
struct Proc {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
    digests: BTreeMap<String, String>,
    spans: Vec<SpanRec>,
}

fn bad_record(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("bad worker record {line:?}"),
    )
}

fn field<T: std::str::FromStr>(parts: &[&str], i: usize, line: &str) -> io::Result<T> {
    parts
        .get(i)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_record(line))
}

/// Where the benchmark keeps its scratch files: inside the build
/// directory, so the checkout stays clean.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench")
}

/// Run one worker process to completion.
fn spawn(
    workload: Workload,
    seed: u64,
    scale: f64,
    mode: &str,
    traced: bool,
    checkpoint: &Path,
) -> io::Result<Proc> {
    let exe = std::env::current_exe()?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--worker",
            "1",
            "--workload",
            workload.name(),
            "--mode",
            mode,
        ])
        .args(["--seed", &seed.to_string(), "--scale", &scale.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .arg("--checkpoint")
        .arg(checkpoint)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("worker stdout not captured"))?;
    let mut proc = Proc {
        traced,
        ..Proc::default()
    };
    let mut ready = None;
    let mut done = None;
    let mut error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) if error.is_none() => {
                error = parse_line(&line, &mut proc, &mut ready, &mut done, started).err();
            }
            Ok(_) => {}
            Err(e) => {
                // Never leave the worker running behind us.
                error = Some(e);
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "{} worker ({mode}) exited with {status}",
            workload.name()
        )));
    }
    if let Some(e) = error {
        return Err(e);
    }
    proc.setup_s = ready.ok_or_else(|| io::Error::other("worker never signalled ready"))?;
    if mode != "setup" {
        let done = done.ok_or_else(|| io::Error::other("worker never signalled done"))?;
        proc.wall_s = done - proc.values.get("paused_s").copied().unwrap_or(0.0);
    }
    Ok(proc)
}

fn parse_line(
    line: &str,
    proc: &mut Proc,
    ready: &mut Option<f64>,
    done: &mut Option<f64>,
    started: Instant,
) -> io::Result<()> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.first().copied() {
        Some("ready") => *ready = Some(started.elapsed().as_secs_f64()),
        Some("done") => *done = Some(started.elapsed().as_secs_f64()),
        Some("sample") => proc
            .samples
            .entry(field(&parts, 1, line)?)
            .or_default()
            .push(field(&parts, 2, line)?),
        Some("value") => {
            proc.values
                .insert(field(&parts, 1, line)?, field(&parts, 2, line)?);
        }
        Some("count") => {
            proc.counts
                .insert(field(&parts, 1, line)?, field(&parts, 2, line)?);
        }
        Some("digest") => {
            proc.digests
                .insert(field(&parts, 1, line)?, field(&parts, 2, line)?);
        }
        Some("span") => proc.spans.push(SpanRec {
            id: field(&parts, 1, line)?,
            parent: parts.get(2).and_then(|p| p.parse().ok()),
            name: field(&parts, 3, line)?,
            start_ns: field(&parts, 4, line)?,
            end_ns: field(&parts, 5, line)?,
            allocs: field(&parts, 6, line)?,
            bytes: field(&parts, 7, line)?,
        }),
        _ => return Err(bad_record(line)),
    }
    Ok(())
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// Output and determinism checks of one run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Compare `got` with `want` key by key; every key of either side
    /// is one check.
    fn compare<V: PartialEq + std::fmt::Display>(
        &mut self,
        what: &str,
        want: &BTreeMap<String, V>,
        got: &BTreeMap<String, V>,
    ) {
        let mut keys: Vec<&String> = want.keys().chain(got.keys()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            self.attempted += 1;
            match (want.get(key), got.get(key)) {
                (Some(w), Some(g)) if w == g => {}
                (w, g) => {
                    self.failed += 1;
                    let show = |v: Option<&V>| v.map_or("missing".to_string(), |v| v.to_string());
                    self.notes.push(format!(
                        "{what}: {key} expected {} got {}",
                        show(w),
                        show(g)
                    ));
                }
            }
        }
    }
}

/// References kept from an earlier run of the same build and seed.
#[derive(Default)]
struct Stored {
    digests: BTreeMap<String, String>,
    counts: BTreeMap<String, u64>,
}

impl Stored {
    fn path(workload: Workload, seed: u64, scale: f64) -> io::Result<PathBuf> {
        // Keyed by the executable, so a rebuilt program starts afresh.
        let exe = std::fs::read(std::env::current_exe()?)?;
        Ok(work_dir()
            .join(format!("refs-{:016x}", Digest::bytes(&exe)))
            .join(format!("{}-{seed}-{scale}.txt", workload.name())))
    }

    fn load(path: &Path) -> io::Result<Option<Stored>> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut stored = Stored::default();
        for line in text.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["digest", name, hex] => {
                    stored.digests.insert(name.to_string(), hex.to_string());
                }
                ["count", name, v] => {
                    stored
                        .counts
                        .insert(name.to_string(), v.parse().map_err(|_| bad_record(line))?);
                }
                _ => return Err(bad_record(line)),
            }
        }
        Ok(Some(stored))
    }

    fn save(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (name, hex) in &self.digests {
            let _ = writeln!(text, "digest {name} {hex}");
        }
        for (name, v) in &self.counts {
            let _ = writeln!(text, "count {name} {v}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The committed output digests of `workload` at the default seed.
fn committed(workload: Workload) -> BTreeMap<String, String> {
    REFERENCE
        .lines()
        .filter_map(|line| {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                [w, name, hex] if *w == workload.name() => {
                    Some((name.to_string(), hex.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

/// The metrics of one workload's run.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
}

/// Run every workload in `workloads` and print the results.
pub fn run(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<f64>,
) -> Result<(), String> {
    std::fs::create_dir_all(work_dir()).map_err(|e| format!("create {:?}: {e}", work_dir()))?;
    let mut all = Vec::new();
    for &workload in workloads {
        let scale = scale.unwrap_or(workload.scale());
        let measured = run_workload(workload, seed, scale, seconds, trace)
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        all.push((workload, measured));
    }
    let single = all.len() == 1;
    let mut json = String::new();
    let correct = all.iter().all(|(_, m)| m.correct);
    let attempted: u64 = all.iter().map(|(_, m)| m.attempted).sum();
    let failed: u64 = all.iter().map(|(_, m)| m.failed).sum();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for (workload, measured) in &all {
        for (name, unit, value) in &measured.metrics {
            if !value.is_finite() {
                return Err(format!("{} {name} is not finite: {value}", workload.name()));
            }
            let key = if single {
                name.clone()
            } else {
                format!("{}.{name}", workload.name())
            };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                json,
                "{sep}\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

fn run_workload(
    workload: Workload,
    seed: u64,
    scale: f64,
    seconds: f64,
    trace: bool,
) -> io::Result<Measured> {
    println!("# {}", workload.describe(seed, scale));
    let started = Instant::now();
    let checkpoint = work_dir().join(format!("checkpoint-{}", std::process::id()));
    let mut checks = Checks::default();
    let stored_path = Stored::path(workload, seed, scale)?;
    let stored = Stored::load(&stored_path)?;
    let mut expected = if seed == DEFAULT_SEED && scale == workload.scale() {
        committed(workload)
    } else {
        BTreeMap::new()
    };
    if let (true, Some(stored)) = (expected.is_empty(), &stored) {
        expected = stored.digests.clone();
    }
    let mut setups = Vec::new();
    // A run killed and resumed at every boundary must equal the same
    // campaign run straight through.
    if workload.checkpoints() {
        let reference = spawn(workload, seed, scale, "uninterrupted", false, &checkpoint)?;
        setups.push(reference.setup_s);
        if expected.is_empty() {
            expected = reference.digests.clone();
        } else {
            checks.compare("uninterrupted run", &expected, &reference.digests);
        }
    }
    let mut procs: Vec<Proc> = Vec::new();
    let mut last_s = 0.0;
    loop {
        let traced = trace && procs.len().is_multiple_of(2);
        let t0 = Instant::now();
        let proc = spawn(workload, seed, scale, "measure", traced, &checkpoint)?;
        last_s = f64::max(last_s, t0.elapsed().as_secs_f64());
        if expected.is_empty() {
            expected = proc.digests.clone();
        } else {
            checks.compare("outputs", &expected, &proc.digests);
        }
        match (&stored, procs.first()) {
            (Some(stored), _) => checks.compare("counters", &stored.counts, &proc.counts),
            (None, Some(first)) => checks.compare("counters", &first.counts, &proc.counts),
            (None, None) => {}
        }
        procs.push(proc);
        if !trace {
            for _ in 0..SETUP_PROBES_PER_WORKER {
                setups.push(spawn(workload, seed, scale, "setup", false, &checkpoint)?.setup_s);
            }
        }
        if procs.len() >= MIN_WORKERS && started.elapsed().as_secs_f64() + last_s > seconds {
            break;
        }
    }
    let _ = std::fs::remove_file(&checkpoint);
    if stored.is_none() {
        Stored {
            digests: expected.clone(),
            counts: procs[0].counts.clone(),
        }
        .save(&stored_path)?;
    }
    for note in &checks.notes {
        println!("! check failed: {note}");
    }
    let pass_rate = (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64;
    setups.extend(procs.iter().map(|p| p.setup_s));
    let n_setups = setups.len();
    let metrics = if trace {
        write_spans(workload, seed, &procs)?;
        per_layer(&procs)
    } else {
        end_to_end(&procs, setups, pass_rate)
    };
    print_table(workload, &procs, &metrics, trace, n_setups);
    let walls: Vec<String> = procs.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("# wall_s per process: {}", walls.join(" "));
    println!(
        "# {} worker processes, {} checks, {} failed, {:.1}s",
        procs.len(),
        checks.attempted,
        checks.failed,
        started.elapsed().as_secs_f64()
    );
    Ok(Measured {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}

fn pooled(procs: &[Proc], name: &str) -> Vec<f64> {
    procs
        .iter()
        .flat_map(|p| p.samples.get(name).into_iter().flatten().copied())
        .collect()
}

fn end_to_end(
    procs: &[Proc],
    setups: Vec<f64>,
    pass_rate: f64,
) -> Vec<(String, &'static str, f64)> {
    let mut rounds = pooled(procs, "round_ms");
    let rss: Vec<f64> = procs
        .iter()
        .filter_map(|p| p.values.get("peak_rss_mb").copied())
        .collect();
    let values = [
        median(procs.iter().map(|p| p.wall_s).collect()),
        median(setups),
        median(rss),
        quantile(&mut rounds, 0.5),
        quantile(&mut rounds, 0.7),
        pass_rate,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), unit, v))
        .collect()
}

/// A process's spans called `name`.
fn named<'a>(p: &'a Proc, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
    p.spans.iter().filter(move |s| s.name == name)
}

/// One traced process's per-layer values, keyed by metric name.
fn layer_values(p: &Proc) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for &(metric, span, _, how) in SPAN_METRICS {
        let v = match how {
            How::Sum => named(p, span).map(SpanRec::secs).sum(),
            How::Allocs => named(p, span).map(|s| s.allocs as f64).sum(),
            How::Median => median(named(p, span).map(|s| s.secs() * 1e3).collect()),
        };
        out.insert(metric.to_string(), v);
    }
    let median_allocs = |name: &str| median(named(p, name).map(|s| s.allocs as f64).collect());
    out.insert(
        "prober.checkpoint_allocs".to_string(),
        median_allocs("prober.checkpoint_write") + median_allocs("prober.checkpoint_read"),
    );
    for entry in EXHIBIT_REGISTRY {
        let span = format!("report.exhibit.{}", entry.id);
        out.insert(
            format!("report.exhibit_s.{}", entry.id),
            named(p, &span).map(SpanRec::secs).sum(),
        );
    }
    // The checkpoint layer's share of the measured run: only the
    // checkpoints the campaign itself takes, not the resume probe.
    let rounds_ids: Vec<usize> = named(p, "prober.rounds").map(|s| s.id).collect();
    let in_campaign: f64 = p
        .spans
        .iter()
        .filter(|s| s.name.starts_with("prober.checkpoint_"))
        .filter(|s| s.parent.is_some_and(|id| rounds_ids.contains(&id)))
        .map(SpanRec::secs)
        .sum();
    out.insert(
        "prober.checkpoint_wall_share".to_string(),
        in_campaign / p.wall_s,
    );
    let top: f64 = p
        .spans
        .iter()
        .filter(|s| s.parent == Some(0) && s.name != "bench.resume_probe")
        .map(SpanRec::secs)
        .sum();
    out.insert("bench.unattributed_s".to_string(), p.wall_s - top);
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(procs: &[Proc]) -> Vec<(String, &'static str, f64)> {
    let traced: Vec<&Proc> = procs.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Proc> = procs.iter().filter(|p| !p.traced).collect();
    let per_proc: Vec<BTreeMap<String, f64>> = traced.iter().map(|p| layer_values(p)).collect();
    let counts = &traced[0].counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in per_layer_catalog() {
        let v = if per_proc[0].contains_key(&name) {
            median(per_proc.iter().map(|m| m[&name]).collect())
        } else {
            count(&name) as f64
        };
        values.insert(name, v);
    }
    let (issued, skipped) = (
        count("prober.probes_issued"),
        count("prober.round_probes_skipped"),
    );
    let (hits, misses) = (count("spf.cache_hits"), count("spf.cache_misses"));
    values.insert(
        "prober.round_skip_ratio".into(),
        ratio(skipped, issued + skipped),
    );
    values.insert(
        "prober.recovery_ratio".into(),
        ratio(count("prober.recovered"), count("prober.retries")),
    );
    values.insert("spf.cache_hit_ratio".into(), ratio(hits, hits + misses));
    let mut resumes: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.samples.get("resume_ms").into_iter().flatten().copied())
        .collect();
    values.insert("prober.resume_ms_p50".into(), quantile(&mut resumes, 0.5));
    values.insert("prober.resume_ms_p70".into(), quantile(&mut resumes, 0.7));
    values.insert(
        "spf.intern_reuse_ratio".into(),
        if misses == 0 {
            0.0
        } else {
            1.0 - ratio(count("spf.cache_interned"), misses)
        },
    );
    values.insert(
        "bench.trace_overhead_s".into(),
        median(traced.iter().map(|p| p.wall_s).collect())
            - median(untraced.iter().map(|p| p.wall_s).collect()),
    );
    per_layer_catalog()
        .into_iter()
        .map(|(name, unit)| {
            let v = values[&name];
            (name, unit, v)
        })
        .collect()
}

/// Write every traced process's spans as JSON lines.
fn write_spans(workload: Workload, seed: u64, procs: &[Proc]) -> io::Result<()> {
    let path = work_dir().join(format!("spans-{}-{seed}.jsonl", workload.name()));
    let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
    for (run, p) in procs.iter().enumerate().filter(|(_, p)| p.traced) {
        for s in &p.spans {
            let parent = s.parent.map_or("null".to_string(), |id| id.to_string());
            writeln!(
                out,
                "{{\"run\": \"{}-{seed}-{run}\", \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"bytes\": {}}}",
                workload.name(),
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.bytes
            )?;
        }
    }
    out.flush()?;
    println!("# spans written to {}", path.display());
    Ok(())
}

fn print_table(
    workload: Workload,
    procs: &[Proc],
    metrics: &[(String, &str, f64)],
    trace: bool,
    n_setups: usize,
) {
    println!(
        "# {} {} metrics",
        workload.name(),
        if trace { "per-layer" } else { "end-to-end" }
    );
    if !trace {
        let n_rounds = pooled(procs, "round_ms").len();
        for (name, unit, value) in metrics {
            let n = if name.starts_with("round_ms") {
                format!("  (n={n_rounds} rounds)")
            } else if name == "pass_rate" {
                format!("  (error_rate {})", 1.0 - value)
            } else if name == "setup_s" {
                format!("  (median of {n_setups} set-ups)")
            } else {
                format!("  (median of {} processes)", procs.len())
            };
            println!("{name:<34} {value:>16.6} {unit:<6}{n}");
        }
        // Restore latency is a per-layer metric (see README.md); it is
        // shown here too because resuming is what a user of
        // checkpoint_resume waits for.
        let mut resumes = pooled(procs, "resume_ms");
        for (name, q) in [("resume_ms_p50", 0.5), ("resume_ms_p70", 0.7)] {
            let value = quantile(&mut resumes, q);
            let n = resumes.len();
            println!("{name:<34} {value:>16.6} ms      (n={n} restores, unbounded)");
        }
        return;
    }
    for (name, unit, value) in metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    // The span tree of the last traced process: stage, then its
    // children by name, with total and self time.
    let Some(p) = procs.iter().rev().find(|p| p.traced) else {
        return;
    };
    println!("# span tree (last traced process): name, calls, total s, self s, allocs");
    let child_secs = |id: usize| -> f64 {
        p.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(SpanRec::secs)
            .sum()
    };
    let print_level = |parent: usize, depth: usize| {
        let mut rows: Vec<(String, usize, f64, f64, u64)> = Vec::new();
        for s in p.spans.iter().filter(|s| s.parent == Some(parent)) {
            let own = s.secs() - child_secs(s.id);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.secs();
                    r.3 += own;
                    r.4 += s.allocs;
                }
                None => rows.push((s.name.clone(), 1, s.secs(), own, s.allocs)),
            }
        }
        for (name, calls, total, own, allocs) in rows {
            println!(
                "{:indent$}{name:<w$} {calls:>4} {total:>10.4} {own:>10.4} {allocs:>12}",
                "",
                indent = depth * 2,
                w = 34 - depth * 2
            );
        }
    };
    print_level(0, 1);
    for stage in p.spans.iter().filter(|s| s.parent == Some(0)) {
        if p.spans.iter().any(|s| s.parent == Some(stage.id)) {
            println!("  {} children:", stage.name);
            print_level(stage.id, 2);
        }
    }
}
