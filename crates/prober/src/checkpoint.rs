//! The serialisable campaign state behind [`Session`] checkpointing.
//!
//! [`CampaignState`] is the complete durable-state inventory of a
//! campaign at a round boundary (see the [`crate::session`] module docs
//! for why this list is exhaustive): configuration, world identity,
//! stage progress, the sweep results so far, merged audit/network
//! totals, each live worker's clock/ethics/metrics/counters, and the
//! trace records emitted so far.
//!
//! The on-disk form is a hand-rolled line-oriented text format — one
//! `keyword operand…` line per fact, every collection in canonical
//! (sorted) order, floats as their exact IEEE-754 bit patterns — so a
//! state round-trips bit-for-bit without a JSON parser dependency and
//! diffs of two checkpoints are meaningful. [`CampaignState::to_text`]
//! and [`CampaignState::parse`] are exact inverses.
//!
//! The file opens with a `spfail-checkpoint v2` magic line and closes
//! with an `end <line-count>` trailer, so a file cut short at any point
//! is rejected rather than resumed from a partial state. `v1` files
//! (written before the trailer existed) still parse.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufWriter};
use std::net::IpAddr;
use std::path::{Path, PathBuf};

use spfail_libspf2::MacroBehavior;
use spfail_netsim::{
    FaultPlan, FaultProfile, FlakyWindow, MetricsSnapshot, ProbeError, SimDuration, SimTime,
};
use spfail_smtp::client::TransactionOutcome;
use spfail_trace::{unescape_field, write_escaped, ProbeRecord, TraceConfig};
use spfail_world::HostId;

use crate::campaign::{CampaignBuilder, HostInitialResult, InitialResults, RoundStatus};
use crate::classify::{BehaviorSet, Classification};
use crate::probe::{ProbeId, ProbeOptions, ProbeOutcome, ProbeTest, RetryPolicy};
use crate::session::SessionStats;
use crate::EthicsAudit;

/// The durable state of one live probing worker at a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerState {
    /// The worker's simulated clock, in microseconds since the epoch.
    pub clock_micros: u64,
    /// The worker's ethics audit counters.
    pub ethics: EthicsAudit,
    /// The worker's per-address last-contact history, address-sorted.
    pub contacts: Vec<(IpAddr, SimTime)>,
    /// The worker's network counters.
    pub metrics: MetricsSnapshot,
    /// The worker's probe-repetition counters
    /// (`(host, day, test, extra) -> occurrence`), key-sorted.
    pub occurrences: Vec<((u32, u16, u8, u32), u64)>,
    /// The worker's per-host attempt counts (blacklist counters),
    /// host-sorted.
    pub counts: Vec<(HostId, u32)>,
}

/// Everything a [`Session`] needs to continue from a round boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// The campaign configuration (shards, faults, retry, trace,
    /// incremental).
    pub builder: CampaignBuilder,
    /// Seed of the world the session ran against.
    pub world_seed: u64,
    /// Scale of the world the session ran against.
    pub world_scale: f64,
    /// Longitudinal rounds completed.
    pub rounds_done: usize,
    /// Simulated busy time of the initial sweep.
    pub initial_busy: SimDuration,
    /// Simulated busy time of the rounds so far.
    pub rounds_busy: SimDuration,
    /// Probe-volume counters so far.
    pub stats: SessionStats,
    /// Streaming sessions only: the initial sweep compressed to one
    /// [`HostMask`](crate::HostMask) per host (index = host id), written
    /// as a versioned `aggregate v1` section. When present, `initial`
    /// is empty — the masks are the sweep's record. Checkpoints without
    /// the section (every eager checkpoint, and every file written
    /// before the section existed) parse exactly as before.
    pub masks: Option<Vec<u32>>,
    /// The initial sweep's per-host results.
    pub initial: InitialResults,
    /// Completed rounds: `(day, host-sorted statuses)`.
    pub rounds: Vec<(u16, Vec<(HostId, RoundStatus)>)>,
    /// Audit merged from already-retired workers.
    pub ethics_total: EthicsAudit,
    /// Network counters merged from already-retired workers.
    pub network_total: MetricsSnapshot,
    /// Sharded only: per-host attempt counts merged from the initial
    /// phase (consumed when round workers are created), host-sorted.
    pub merged_counts: Vec<(HostId, u32)>,
    /// The live workers' durable state, in shard order.
    pub workers: Vec<WorkerState>,
    /// Every trace record emitted so far (empty when tracing is off).
    pub trace_records: Vec<ProbeRecord>,
}

/// The magic line of the current text form, which ends in an
/// `end <line-count>` trailer.
const MAGIC: &str = "spfail-checkpoint v2";
/// The magic line of files written before the trailer existed: they
/// still parse, but a cut at a line boundary cannot be detected.
const MAGIC_V1: &str = "spfail-checkpoint v1";

/// A float as its exact IEEE-754 bit pattern, in fixed-width hex.
struct Hex(f64);

impl fmt::Display for Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

fn parse_f64(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern {tok:?}"))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse()
        .map_err(|_| format!("bad {what} {tok:?}"))
}

fn bool01(v: bool) -> &'static str {
    if v {
        "1"
    } else {
        "0"
    }
}

fn parse_bool01(tok: &str) -> Result<bool, String> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad flag {tok:?} (want 0 or 1)")),
    }
}

fn behavior_token(b: MacroBehavior) -> &'static str {
    match b {
        MacroBehavior::Compliant => "compliant",
        MacroBehavior::VulnerableLibSpf2 => "vulnerable_libspf2",
        MacroBehavior::PatchedLibSpf2 => "patched_libspf2",
        MacroBehavior::NoExpansion => "no_expansion",
        MacroBehavior::ReverseNoTruncate => "reverse_no_truncate",
        MacroBehavior::TruncateNoReverse => "truncate_no_reverse",
        MacroBehavior::IgnoreTransformers => "ignore_transformers",
        MacroBehavior::EmptyExpansion => "empty_expansion",
        MacroBehavior::MacroUnsupported => "macro_unsupported",
    }
}

fn parse_behavior(tok: &str) -> Result<MacroBehavior, String> {
    Ok(match tok {
        "compliant" => MacroBehavior::Compliant,
        "vulnerable_libspf2" => MacroBehavior::VulnerableLibSpf2,
        "patched_libspf2" => MacroBehavior::PatchedLibSpf2,
        "no_expansion" => MacroBehavior::NoExpansion,
        "reverse_no_truncate" => MacroBehavior::ReverseNoTruncate,
        "truncate_no_reverse" => MacroBehavior::TruncateNoReverse,
        "ignore_transformers" => MacroBehavior::IgnoreTransformers,
        "empty_expansion" => MacroBehavior::EmptyExpansion,
        "macro_unsupported" => MacroBehavior::MacroUnsupported,
        _ => return Err(format!("unknown macro behaviour {tok:?}")),
    })
}

fn write_transaction(out: &mut impl fmt::Write, t: &TransactionOutcome) -> fmt::Result {
    match t {
        TransactionOutcome::RejectedAtConnect(c) => write!(out, "connect:{c}"),
        TransactionOutcome::RejectedAtHello(c) => write!(out, "hello:{c}"),
        TransactionOutcome::RejectedAtMailFrom(c) => write!(out, "mailfrom:{c}"),
        TransactionOutcome::RejectedAtRcpt(c) => write!(out, "rcpt:{c}"),
        TransactionOutcome::RejectedAtData(c) => write!(out, "data:{c}"),
        TransactionOutcome::Transient { stage, code } => write!(out, "transient:{stage}:{code}"),
        TransactionOutcome::ConnectionReset => out.write_str("reset"),
        TransactionOutcome::NoMsgCompleted => out.write_str("nomsg"),
        TransactionOutcome::MessageAccepted(c) => write!(out, "accepted:{c}"),
        TransactionOutcome::MessageRejected(c) => write!(out, "rejected:{c}"),
    }
}

fn parse_transaction(tok: &str) -> Result<TransactionOutcome, String> {
    let mut parts = tok.split(':');
    let head = parts.next().unwrap_or_default();
    let code = |p: Option<&str>| -> Result<u16, String> {
        parse_num(p.ok_or_else(|| format!("missing code in {tok:?}"))?, "code")
    };
    Ok(match head {
        "connect" => TransactionOutcome::RejectedAtConnect(code(parts.next())?),
        "hello" => TransactionOutcome::RejectedAtHello(code(parts.next())?),
        "mailfrom" => TransactionOutcome::RejectedAtMailFrom(code(parts.next())?),
        "rcpt" => TransactionOutcome::RejectedAtRcpt(code(parts.next())?),
        "data" => TransactionOutcome::RejectedAtData(code(parts.next())?),
        "transient" => {
            let stage = match parts.next() {
                // The stage is a `&'static str` in the outcome; intern
                // the known vocabulary.
                Some("connect") => "connect",
                Some("mail") => "mail",
                Some("rcpt") => "rcpt",
                Some("data") => "data",
                other => return Err(format!("unknown transient stage {other:?}")),
            };
            TransactionOutcome::Transient {
                stage,
                code: code(parts.next())?,
            }
        }
        "reset" => TransactionOutcome::ConnectionReset,
        "nomsg" => TransactionOutcome::NoMsgCompleted,
        "accepted" => TransactionOutcome::MessageAccepted(code(parts.next())?),
        "rejected" => TransactionOutcome::MessageRejected(code(parts.next())?),
        _ => return Err(format!("unknown transaction outcome {tok:?}")),
    })
}

fn write_dns_fault(out: &mut impl fmt::Write, e: &ProbeError) -> fmt::Result {
    match e {
        ProbeError::DnsTimeout => out.write_str("timeout"),
        ProbeError::DnsServFail => out.write_str("servfail"),
        ProbeError::DnsLame => out.write_str("lame"),
        ProbeError::ConnectRefused => out.write_str("refused"),
        ProbeError::ConnectTimeout => out.write_str("connect_timeout"),
        ProbeError::ConnectionReset => out.write_str("reset"),
        ProbeError::SmtpTempFail(c) => write!(out, "tempfail:{c}"),
        ProbeError::SmtpReject(c) => write!(out, "reject:{c}"),
    }
}

fn parse_dns_fault(tok: &str) -> Result<ProbeError, String> {
    let (head, code) = match tok.split_once(':') {
        Some((h, c)) => (h, Some(c)),
        None => (tok, None),
    };
    let code = || -> Result<u16, String> {
        parse_num(code.ok_or_else(|| format!("missing code in {tok:?}"))?, "code")
    };
    Ok(match head {
        "timeout" => ProbeError::DnsTimeout,
        "servfail" => ProbeError::DnsServFail,
        "lame" => ProbeError::DnsLame,
        "refused" => ProbeError::ConnectRefused,
        "connect_timeout" => ProbeError::ConnectTimeout,
        "reset" => ProbeError::ConnectionReset,
        "tempfail" => ProbeError::SmtpTempFail(code()?),
        "reject" => ProbeError::SmtpReject(code()?),
        _ => return Err(format!("unknown probe error {tok:?}")),
    })
}

/// Serialise one probe outcome as six space-free tokens:
/// `id transaction spf_triggered behaviors unknown_patterns dns_fault`.
fn write_outcome(out: &mut impl fmt::Write, o: &ProbeOutcome) -> fmt::Result {
    write_escaped(out, o.id.as_str())?;
    out.write_char(' ')?;
    match &o.transaction {
        Some(t) => write_transaction(out, t)?,
        None => out.write_str("none")?,
    }
    write!(out, " {} ", bool01(o.classification.spf_triggered))?;
    if o.classification.behaviors.is_empty() {
        out.write_char('-')?;
    }
    for (i, b) in o.classification.behaviors.iter().enumerate() {
        if i > 0 {
            out.write_char('+')?;
        }
        out.write_str(behavior_token(b))?;
    }
    write!(out, " {} ", o.classification.unknown_patterns)?;
    match &o.dns_fault {
        Some(e) => write_dns_fault(out, e),
        None => out.write_str("none"),
    }
}

fn parse_outcome(host: HostId, test: ProbeTest, toks: &[&str]) -> Result<ProbeOutcome, String> {
    let [id, txn, spf, behaviors, unknown, dns] = toks else {
        return Err(format!("probe outcome wants 6 tokens, got {}", toks.len()));
    };
    let behaviors = if *behaviors == "-" {
        BehaviorSet::default()
    } else {
        behaviors
            .split('+')
            .map(parse_behavior)
            .collect::<Result<_, _>>()?
    };
    // Unescaping allocates, and generated ids never carry an escape.
    let id = if id.contains('%') {
        ProbeId::new(&unescape_field(id))
    } else {
        ProbeId::new(id)
    }
    .ok_or_else(|| format!("probe id {id:?} is longer than {} bytes", ProbeId::MAX))?;
    Ok(ProbeOutcome {
        host,
        test,
        id,
        transaction: match *txn {
            "none" => None,
            t => Some(parse_transaction(t)?),
        },
        classification: Classification {
            spf_triggered: parse_bool01(spf)?,
            behaviors,
            unknown_patterns: parse_num(unknown, "unknown_patterns")?,
        },
        dns_fault: match *dns {
            "none" => None,
            e => Some(parse_dns_fault(e)?),
        },
    })
}

fn status_token(s: RoundStatus) -> &'static str {
    match s {
        RoundStatus::Vulnerable => "v",
        RoundStatus::Patched => "p",
        RoundStatus::Inconclusive => "i",
    }
}

fn parse_status(tok: &str) -> Result<RoundStatus, String> {
    Ok(match tok {
        "v" => RoundStatus::Vulnerable,
        "p" => RoundStatus::Patched,
        "i" => RoundStatus::Inconclusive,
        _ => return Err(format!("unknown round status {tok:?}")),
    })
}

fn write_plan(out: &mut impl fmt::Write, p: &FaultPlan) -> fmt::Result {
    write!(
        out,
        "{} {} {} {} {} {} {}",
        Hex(p.refuse_chance),
        Hex(p.abort_chance),
        Hex(p.drop_chance),
        Hex(p.servfail_chance),
        Hex(p.truncate_chance),
        Hex(p.tempfail_chance),
        Hex(p.reset_chance),
    )
}

fn parse_plan(toks: &[&str]) -> Result<FaultPlan, String> {
    let [refuse, abort, drop, servfail, truncate, tempfail, reset] = toks else {
        return Err(format!("fault plan wants 7 tokens, got {}", toks.len()));
    };
    Ok(FaultPlan {
        refuse_chance: parse_f64(refuse)?,
        abort_chance: parse_f64(abort)?,
        drop_chance: parse_f64(drop)?,
        servfail_chance: parse_f64(servfail)?,
        truncate_chance: parse_f64(truncate)?,
        tempfail_chance: parse_f64(tempfail)?,
        reset_chance: parse_f64(reset)?,
    })
}

fn metrics_fields(m: &MetricsSnapshot) -> [u64; 16] {
    [
        m.connections_attempted,
        m.connections_refused,
        m.connections_aborted,
        m.datagrams_sent,
        m.datagrams_dropped,
        m.bytes_sent,
        m.dns_queries,
        m.dns_cache_hits,
        m.dns_truncated,
        m.dns_timeouts,
        m.dns_servfails,
        m.smtp_tempfails,
        m.connection_resets,
        m.window_closed_probes,
        m.probe_retries,
        m.probes_recovered,
    ]
}

fn write_metrics(out: &mut impl fmt::Write, m: &MetricsSnapshot) -> fmt::Result {
    for (i, v) in metrics_fields(m).into_iter().enumerate() {
        if i > 0 {
            out.write_char(' ')?;
        }
        write!(out, "{v}")?;
    }
    Ok(())
}

fn parse_metrics(toks: &[&str]) -> Result<MetricsSnapshot, String> {
    if toks.len() != 16 {
        return Err(format!("metrics want 16 counters, got {}", toks.len()));
    }
    let mut v = [0u64; 16];
    for (slot, tok) in v.iter_mut().zip(toks) {
        *slot = parse_num(tok, "counter")?;
    }
    Ok(MetricsSnapshot {
        connections_attempted: v[0],
        connections_refused: v[1],
        connections_aborted: v[2],
        datagrams_sent: v[3],
        datagrams_dropped: v[4],
        bytes_sent: v[5],
        dns_queries: v[6],
        dns_cache_hits: v[7],
        dns_truncated: v[8],
        dns_timeouts: v[9],
        dns_servfails: v[10],
        smtp_tempfails: v[11],
        connection_resets: v[12],
        window_closed_probes: v[13],
        probe_retries: v[14],
        probes_recovered: v[15],
    })
}

fn write_ethics(out: &mut impl fmt::Write, a: &EthicsAudit) -> fmt::Result {
    write!(
        out,
        "{} {} {} {} {}",
        a.immediate, a.spaced, a.greylist_waits, a.dedup_suppressed, a.peak_concurrency
    )
}

fn parse_ethics(toks: &[&str]) -> Result<EthicsAudit, String> {
    let [immediate, spaced, greylist, dedup, peak] = toks else {
        return Err(format!("ethics audit wants 5 counters, got {}", toks.len()));
    };
    Ok(EthicsAudit {
        immediate: parse_num(immediate, "immediate")?,
        spaced: parse_num(spaced, "spaced")?,
        greylist_waits: parse_num(greylist, "greylist_waits")?,
        dedup_suppressed: parse_num(dedup, "dedup_suppressed")?,
        peak_concurrency: parse_num(peak, "peak_concurrency")?,
    })
}

/// A borrowed view of a campaign's durable state: the one checkpoint
/// writer. [`CampaignState::to_text`] renders a state through it, and
/// [`Session::checkpoint`](crate::Session::checkpoint) renders a live
/// session's own maps through it, so neither copies the sweep results
/// or the trace. Every collection must arrive in canonical order.
pub(crate) struct StateText<'a, R, T> {
    pub builder: &'a CampaignBuilder,
    pub world_seed: u64,
    pub world_scale: f64,
    pub rounds_done: usize,
    pub initial_busy: SimDuration,
    pub rounds_busy: SimDuration,
    pub stats: SessionStats,
    pub ethics_total: &'a EthicsAudit,
    pub network_total: &'a MetricsSnapshot,
    /// Host-sorted.
    pub merged_counts: &'a [(HostId, u32)],
    pub initial: &'a InitialResults,
    pub masks: Option<&'a [u32]>,
    /// Completed rounds, each host-sorted.
    pub rounds: R,
    pub workers: &'a [WorkerState],
    pub trace_records: T,
}

/// The line sink under [`StateText::write_to`]: counts the lines it
/// ends, for the `end` trailer.
struct Lines<'o, W> {
    out: &'o mut W,
    count: usize,
}

impl<W: fmt::Write> fmt::Write for Lines<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.write_str(s)
    }
}

impl<W: fmt::Write> Lines<'_, W> {
    fn end_line(&mut self) -> fmt::Result {
        self.count += 1;
        self.out.write_char('\n')
    }
}

impl<'a, R, T> StateText<'a, R, T>
where
    R: Iterator<Item = (u16, Cow<'a, [(HostId, RoundStatus)]>)>,
    T: Iterator<Item = &'a ProbeRecord>,
{
    /// Write the canonical text form into `out`, trailer included.
    pub(crate) fn write_to(self, out: &mut impl fmt::Write) -> fmt::Result {
        let l = &mut Lines { out, count: 0 };
        l.write_str(MAGIC)?;
        l.end_line()?;
        write!(l, "world {} {}", self.world_seed, Hex(self.world_scale))?;
        l.end_line()?;
        let b = self.builder;
        write!(
            l,
            "config {} {} {} {} {}",
            b.shards,
            bool01(b.timed),
            bool01(b.trace.enabled),
            bool01(b.incremental),
            bool01(b.no_policy_cache),
        )?;
        l.end_line()?;
        let faults = &b.options.faults;
        l.write_str("faults ")?;
        write_plan(l, &faults.dns)?;
        l.write_char(' ')?;
        write_plan(l, &faults.smtp)?;
        write!(l, " {}", Hex(faults.flaky_fraction))?;
        match &faults.window {
            Some(w) => write!(
                l,
                " window {} {} {}",
                w.period.as_micros(),
                Hex(w.open_fraction),
                w.phase.as_micros()
            )?,
            None => l.write_str(" nowindow")?,
        }
        l.end_line()?;
        let r = &b.options.retry;
        write!(
            l,
            "retry {} {} {} {}",
            r.max_attempts,
            r.base_backoff.as_micros(),
            r.max_backoff.as_micros(),
            Hex(r.jitter),
        )?;
        match r.deadline {
            Some(d) => write!(l, " {}", d.as_micros())?,
            None => l.write_str(" none")?,
        }
        l.end_line()?;
        write!(l, "progress {}", self.rounds_done)?;
        l.end_line()?;
        write!(
            l,
            "busy {} {}",
            self.initial_busy.as_micros(),
            self.rounds_busy.as_micros()
        )?;
        l.end_line()?;
        write!(
            l,
            "stats {} {}",
            self.stats.round_probes_issued, self.stats.round_probes_skipped
        )?;
        l.end_line()?;
        l.write_str("ethics-total ")?;
        write_ethics(l, self.ethics_total)?;
        l.end_line()?;
        l.write_str("network-total ")?;
        write_metrics(l, self.network_total)?;
        l.end_line()?;
        for (host, n) in self.merged_counts {
            write!(l, "mcount {} {n}", host.0)?;
            l.end_line()?;
        }
        for (host, result) in self.initial {
            write!(l, "init {} ", host.0)?;
            write_outcome(l, &result.nomsg)?;
            if let Some(blank) = &result.blankmsg {
                l.write_char(' ')?;
                write_outcome(l, blank)?;
            }
            l.end_line()?;
        }
        if let Some(masks) = self.masks {
            // The versioned aggregate section: a declared host count,
            // then rows of up to 64 masks packed as fixed-width hex.
            write!(l, "aggregate v1 {}", masks.len())?;
            l.end_line()?;
            for (row, chunk) in masks.chunks(64).enumerate() {
                write!(l, "amask {}", row * 64)?;
                for m in chunk {
                    write!(l, " {m:08x}")?;
                }
                l.end_line()?;
            }
        }
        for (day, statuses) in self.rounds {
            write!(l, "round {day}")?;
            l.end_line()?;
            for (host, status) in statuses.iter() {
                write!(l, "st {} {}", host.0, status_token(*status))?;
                l.end_line()?;
            }
        }
        for w in self.workers {
            l.write_str("worker")?;
            l.end_line()?;
            write!(l, "wclock {}", w.clock_micros)?;
            l.end_line()?;
            l.write_str("wethics ")?;
            write_ethics(l, &w.ethics)?;
            l.end_line()?;
            for (ip, at) in &w.contacts {
                write!(l, "wcontact {ip} {}", at.as_micros())?;
                l.end_line()?;
            }
            l.write_str("wmetrics ")?;
            write_metrics(l, &w.metrics)?;
            l.end_line()?;
            for ((h, d, t, x), n) in &w.occurrences {
                write!(l, "wocc {h} {d} {t} {x} {n}")?;
                l.end_line()?;
            }
            for (host, n) in &w.counts {
                write!(l, "wcount {} {n}", host.0)?;
                l.end_line()?;
            }
        }
        for record in self.trace_records {
            l.write_str("trace ")?;
            record.write_wire(l)?;
            l.end_line()?;
        }
        // The trailer counts every line before it, so a file cut at any
        // line boundary is told apart from a complete one.
        let count = l.count;
        write!(l, "end {count}")?;
        l.end_line()
    }

    /// Write the text form to `path` atomically against a kill: into a
    /// sibling `<path>.tmp` first, then renamed over `path`, so `path`
    /// always holds either the previous checkpoint or this one.
    pub(crate) fn write_file(self, path: &Path) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = File::create(&tmp).and_then(|file| {
            let mut sink = IoSink {
                inner: BufWriter::with_capacity(1 << 16, file),
                error: None,
            };
            if self.write_to(&mut sink).is_err() {
                return Err(sink
                    .error
                    .unwrap_or_else(|| io::Error::other("checkpoint formatting failed")));
            }
            // Flush explicitly: dropping a BufWriter swallows its error.
            sink.inner
                .into_inner()
                .map_err(io::IntoInnerError::into_error)?;
            Ok(())
        });
        match written {
            Ok(()) => std::fs::rename(&tmp, path),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// `fmt::Write` over an `io::Write`, keeping the I/O error that a
/// `fmt::Error` cannot carry.
struct IoSink<W> {
    inner: W,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// The most operands any line but `amask` and `trace` (which are split
/// on their own) carries: `faults` with a window.
const MAX_TOKENS: usize = 19;

/// Split `rest` on spaces into `buf`, returning the filled prefix — the
/// parser's per-line token slice, kept on the stack.
fn split_tokens<'t, 'b>(
    rest: &'t str,
    buf: &'b mut [&'t str; MAX_TOKENS],
) -> Result<&'b [&'t str], String> {
    let mut n = 0;
    for tok in rest.split(' ').filter(|t| !t.is_empty()) {
        let slot = buf
            .get_mut(n)
            .ok_or_else(|| format!("more than {MAX_TOKENS} operands"))?;
        *slot = tok;
        n += 1;
    }
    Ok(&buf[..n])
}

impl CampaignState {
    /// Render the state into its canonical text form.
    pub fn to_text(&self) -> String {
        let text = StateText {
            builder: &self.builder,
            world_seed: self.world_seed,
            world_scale: self.world_scale,
            rounds_done: self.rounds_done,
            initial_busy: self.initial_busy,
            rounds_busy: self.rounds_busy,
            stats: self.stats,
            ethics_total: &self.ethics_total,
            network_total: &self.network_total,
            merged_counts: &self.merged_counts,
            initial: &self.initial,
            masks: self.masks.as_deref(),
            rounds: self
                .rounds
                .iter()
                .map(|(day, statuses)| (*day, Cow::Borrowed(statuses.as_slice()))),
            workers: &self.workers,
            trace_records: self.trace_records.iter(),
        };
        let mut out = String::new();
        // Writing into a String cannot fail.
        let _ = text.write_to(&mut out);
        out
    }

    /// Parse the text form written by [`CampaignState::to_text`]. A
    /// current (`v2`) file must end in its `end <line-count>` trailer,
    /// so a file cut short is rejected; a `v1` file has no trailer and
    /// is read as it stands.
    pub fn parse(text: &str) -> Result<CampaignState, String> {
        let mut lines = text.lines().enumerate();
        let Some((_, first)) = lines.next() else {
            return Err("empty checkpoint".to_string());
        };
        let trailed = match first {
            MAGIC => true,
            MAGIC_V1 => false,
            _ => return Err(format!("not a checkpoint: first line {first:?}")),
        };
        let mut ended = false;
        let mut world: Option<(u64, f64)> = None;
        let mut config: Option<(usize, bool, bool, bool, bool)> = None;
        let mut faults: Option<FaultProfile> = None;
        let mut retry: Option<RetryPolicy> = None;
        let mut rounds_done: Option<usize> = None;
        let mut busy: Option<(SimDuration, SimDuration)> = None;
        let mut stats = SessionStats::default();
        let mut ethics_total = EthicsAudit::default();
        let mut network_total = MetricsSnapshot::default();
        let mut merged_counts = Vec::new();
        let mut masks: Option<(usize, Vec<u32>)> = None;
        let mut initial = InitialResults::default();
        let mut rounds: Vec<(u16, Vec<(HostId, RoundStatus)>)> = Vec::new();
        let mut workers: Vec<WorkerState> = Vec::new();
        let mut trace_records = Vec::new();
        let mut buf = [""; MAX_TOKENS];
        for (idx, line) in lines {
            let err = |msg: String| format!("line {}: {msg}", idx + 1);
            if line.is_empty() {
                continue;
            }
            if ended {
                return Err(err("text after the end trailer".to_string()));
            }
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            // `trace` operands carry their own escaping, and `amask`
            // rows run to 65 operands; everything else splits into the
            // stack token slice.
            match keyword {
                "trace" => {
                    trace_records.push(ProbeRecord::from_wire(rest).map_err(err)?);
                    continue;
                }
                "amask" => {
                    let Some((_, column)) = masks.as_mut() else {
                        return Err(err("amask before aggregate header".to_string()));
                    };
                    let mut row = rest.split(' ').filter(|t| !t.is_empty());
                    let first = row
                        .next()
                        .ok_or_else(|| err("amask wants a first-host index".to_string()))?;
                    let first: usize = parse_num(first, "first host").map_err(err)?;
                    if first != column.len() {
                        return Err(err(format!(
                            "amask row starts at host {first}, expected {}",
                            column.len()
                        )));
                    }
                    for tok in row {
                        column.push(
                            u32::from_str_radix(tok, 16)
                                .map_err(|_| err(format!("bad mask {tok:?}")))?,
                        );
                    }
                    continue;
                }
                _ => {}
            }
            let toks = split_tokens(rest, &mut buf).map_err(err)?;
            match keyword {
                "end" if trailed => {
                    let [count] = toks[..] else {
                        return Err(err("end wants 1 operand".to_string()));
                    };
                    let count: usize = parse_num(count, "line count").map_err(err)?;
                    if count != idx {
                        return Err(err(format!(
                            "trailer counts {count} lines, the file holds {idx}"
                        )));
                    }
                    ended = true;
                }
                "world" => {
                    let [seed, scale] = toks[..] else {
                        return Err(err("world wants seed and scale".to_string()));
                    };
                    world = Some((
                        parse_num(seed, "seed").map_err(err)?,
                        parse_f64(scale).map_err(err)?,
                    ));
                }
                "config" => {
                    let [shards, timed, trace, incremental, no_policy_cache] = toks[..] else {
                        return Err(err("config wants 5 flags".to_string()));
                    };
                    config = Some((
                        parse_num(shards, "shards").map_err(err)?,
                        parse_bool01(timed).map_err(err)?,
                        parse_bool01(trace).map_err(err)?,
                        parse_bool01(incremental).map_err(err)?,
                        parse_bool01(no_policy_cache).map_err(err)?,
                    ));
                }
                "faults" => {
                    if toks.len() < 16 {
                        return Err(err(format!("faults wants ≥16 tokens, got {}", toks.len())));
                    }
                    let dns = parse_plan(&toks[0..7]).map_err(err)?;
                    let smtp = parse_plan(&toks[7..14]).map_err(err)?;
                    let flaky_fraction = parse_f64(toks[14]).map_err(err)?;
                    let window = match toks[15] {
                        "nowindow" => None,
                        "window" => {
                            let [period, open, phase] = toks[16..] else {
                                return Err(err("window wants 3 operands".to_string()));
                            };
                            Some(FlakyWindow {
                                period: SimDuration::from_micros(
                                    parse_num(period, "period").map_err(err)?,
                                ),
                                open_fraction: parse_f64(open).map_err(err)?,
                                phase: SimDuration::from_micros(
                                    parse_num(phase, "phase").map_err(err)?,
                                ),
                            })
                        }
                        other => return Err(err(format!("unknown window form {other:?}"))),
                    };
                    faults = Some(FaultProfile {
                        dns,
                        smtp,
                        flaky_fraction,
                        window,
                    });
                }
                "retry" => {
                    let [attempts, base, max, jitter, deadline] = toks[..] else {
                        return Err(err("retry wants 5 operands".to_string()));
                    };
                    retry = Some(RetryPolicy {
                        max_attempts: parse_num(attempts, "max_attempts").map_err(err)?,
                        base_backoff: SimDuration::from_micros(
                            parse_num(base, "base_backoff").map_err(err)?,
                        ),
                        max_backoff: SimDuration::from_micros(
                            parse_num(max, "max_backoff").map_err(err)?,
                        ),
                        jitter: parse_f64(jitter).map_err(err)?,
                        deadline: match deadline {
                            "none" => None,
                            us => Some(SimDuration::from_micros(
                                parse_num(us, "deadline").map_err(err)?,
                            )),
                        },
                    });
                }
                "progress" => {
                    let [done] = toks[..] else {
                        return Err(err("progress wants 1 operand".to_string()));
                    };
                    rounds_done = Some(parse_num(done, "rounds_done").map_err(err)?);
                }
                "busy" => {
                    let [init, rnds] = toks[..] else {
                        return Err(err("busy wants 2 operands".to_string()));
                    };
                    busy = Some((
                        SimDuration::from_micros(parse_num(init, "initial_busy").map_err(err)?),
                        SimDuration::from_micros(parse_num(rnds, "rounds_busy").map_err(err)?),
                    ));
                }
                "stats" => {
                    let [issued, skipped] = toks[..] else {
                        return Err(err("stats wants 2 operands".to_string()));
                    };
                    stats = SessionStats {
                        round_probes_issued: parse_num(issued, "issued").map_err(err)?,
                        round_probes_skipped: parse_num(skipped, "skipped").map_err(err)?,
                    };
                }
                "ethics-total" => ethics_total = parse_ethics(toks).map_err(err)?,
                "network-total" => network_total = parse_metrics(toks).map_err(err)?,
                "mcount" => {
                    let [host, n] = toks[..] else {
                        return Err(err("mcount wants 2 operands".to_string()));
                    };
                    merged_counts.push((
                        HostId(parse_num(host, "host").map_err(err)?),
                        parse_num(n, "count").map_err(err)?,
                    ));
                }
                "init" => {
                    if toks.len() != 7 && toks.len() != 13 {
                        return Err(err(format!(
                            "init wants 7 or 13 tokens, got {}",
                            toks.len()
                        )));
                    }
                    let host = HostId(parse_num(toks[0], "host").map_err(err)?);
                    let nomsg =
                        parse_outcome(host, ProbeTest::NoMsg, &toks[1..7]).map_err(err)?;
                    let blankmsg = if toks.len() == 13 {
                        Some(
                            parse_outcome(host, ProbeTest::BlankMsg, &toks[7..13])
                                .map_err(err)?,
                        )
                    } else {
                        None
                    };
                    initial
                        .push(HostInitialResult { nomsg, blankmsg })
                        .map_err(|last| {
                            err(format!(
                                "init host {} after host {}: hosts must strictly ascend",
                                host.0, last.0
                            ))
                        })?;
                }
                "aggregate" => {
                    let [version, count] = toks[..] else {
                        return Err(err("aggregate wants version and count".to_string()));
                    };
                    if version != "v1" {
                        return Err(err(format!("unknown aggregate version {version:?}")));
                    }
                    if masks.is_some() {
                        return Err(err("duplicate aggregate section".to_string()));
                    }
                    masks = Some((parse_num(count, "host count").map_err(err)?, Vec::new()));
                }
                "round" => {
                    let [day] = toks[..] else {
                        return Err(err("round wants 1 operand".to_string()));
                    };
                    rounds.push((parse_num(day, "day").map_err(err)?, Vec::new()));
                }
                "st" => {
                    let [host, status] = toks[..] else {
                        return Err(err("st wants 2 operands".to_string()));
                    };
                    let Some((_, statuses)) = rounds.last_mut() else {
                        return Err(err("st before any round".to_string()));
                    };
                    let host = HostId(parse_num(host, "host").map_err(err)?);
                    if let Some(&(last, _)) = statuses.last() {
                        if last >= host {
                            return Err(err(format!(
                                "st host {} after host {}: hosts must strictly ascend",
                                host.0, last.0
                            )));
                        }
                    }
                    statuses.push((host, parse_status(status).map_err(err)?));
                }
                "worker" => workers.push(WorkerState {
                    clock_micros: 0,
                    ethics: EthicsAudit::default(),
                    contacts: Vec::new(),
                    metrics: MetricsSnapshot::default(),
                    occurrences: Vec::new(),
                    counts: Vec::new(),
                }),
                "wclock" | "wethics" | "wcontact" | "wmetrics" | "wocc" | "wcount" => {
                    let Some(w) = workers.last_mut() else {
                        return Err(err(format!("{keyword} before any worker")));
                    };
                    match keyword {
                        "wclock" => {
                            let [us] = toks[..] else {
                                return Err(err("wclock wants 1 operand".to_string()));
                            };
                            w.clock_micros = parse_num(us, "clock").map_err(err)?;
                        }
                        "wethics" => w.ethics = parse_ethics(toks).map_err(err)?,
                        "wcontact" => {
                            let [ip, us] = toks[..] else {
                                return Err(err("wcontact wants 2 operands".to_string()));
                            };
                            w.contacts.push((
                                ip.parse()
                                    .map_err(|_| err(format!("bad address {ip:?}")))?,
                                SimTime::from_micros(parse_num(us, "contact").map_err(err)?),
                            ));
                        }
                        "wmetrics" => w.metrics = parse_metrics(toks).map_err(err)?,
                        "wocc" => {
                            let [h, d, t, x, n] = toks[..] else {
                                return Err(err("wocc wants 5 operands".to_string()));
                            };
                            w.occurrences.push((
                                (
                                    parse_num(h, "host").map_err(err)?,
                                    parse_num(d, "day").map_err(err)?,
                                    parse_num(t, "test").map_err(err)?,
                                    parse_num(x, "extra").map_err(err)?,
                                ),
                                parse_num(n, "occurrence").map_err(err)?,
                            ));
                        }
                        "wcount" => {
                            let [host, n] = toks[..] else {
                                return Err(err("wcount wants 2 operands".to_string()));
                            };
                            w.counts.push((
                                HostId(parse_num(host, "host").map_err(err)?),
                                parse_num(n, "count").map_err(err)?,
                            ));
                        }
                        _ => unreachable!(),
                    }
                }
                _ => return Err(err(format!("unknown keyword {keyword:?}"))),
            }
        }
        if trailed && !ended {
            return Err("truncated checkpoint: no end trailer".to_string());
        }
        let (world_seed, world_scale) = world.ok_or("missing world line")?;
        let (shards, timed, trace_enabled, incremental, no_policy_cache) =
            config.ok_or("missing config line")?;
        let builder = CampaignBuilder {
            shards,
            options: ProbeOptions {
                faults: faults.ok_or("missing faults line")?,
                retry: retry.ok_or("missing retry line")?,
            },
            timed,
            trace: TraceConfig {
                enabled: trace_enabled,
            },
            incremental,
            no_policy_cache,
            // An execution strategy, not measurement state: a resumed
            // campaign picks its own mode.
            streaming: false,
        };
        let (initial_busy, rounds_busy) = busy.ok_or("missing busy line")?;
        let masks = match masks {
            Some((declared, column)) => {
                if column.len() != declared {
                    return Err(format!(
                        "aggregate section declares {declared} hosts but carries {}",
                        column.len()
                    ));
                }
                Some(column)
            }
            None => None,
        };
        Ok(CampaignState {
            builder,
            world_seed,
            world_scale,
            rounds_done: rounds_done.ok_or("missing progress line")?,
            initial_busy,
            rounds_busy,
            stats,
            masks,
            initial,
            rounds,
            ethics_total,
            network_total,
            merged_counts,
            workers,
            trace_records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_netsim::SimDuration;
    use spfail_trace::{Phase, TraceEvent, TraceEventKind};

    fn sample_outcome(host: u32, vulnerable: bool) -> ProbeOutcome {
        let mut behaviors = BehaviorSet::default();
        if vulnerable {
            behaviors.insert(MacroBehavior::VulnerableLibSpf2);
            behaviors.insert(MacroBehavior::Compliant);
        }
        ProbeOutcome {
            host: HostId(host),
            test: ProbeTest::NoMsg,
            id: ProbeId::new("ab3x").expect("a short id"),
            transaction: Some(TransactionOutcome::NoMsgCompleted),
            classification: Classification {
                spf_triggered: vulnerable,
                behaviors,
                unknown_patterns: 1,
            },
            dns_fault: vulnerable.then_some(ProbeError::SmtpTempFail(451)),
        }
    }

    fn sample_initial() -> InitialResults {
        let mut initial = InitialResults::default();
        for row in [
            HostInitialResult {
                nomsg: sample_outcome(3, true),
                blankmsg: None,
            },
            HostInitialResult {
                nomsg: sample_outcome(9, false),
                blankmsg: Some(ProbeOutcome {
                    test: ProbeTest::BlankMsg,
                    ..sample_outcome(9, true)
                }),
            },
        ] {
            initial.push(row).expect("sample hosts ascend");
        }
        initial
    }

    fn sample_state() -> CampaignState {
        let record = ProbeRecord {
            phase: Phase::Round(17),
            host: 9,
            day: 17,
            test: 1,
            extra: 2,
            seq: 0,
            duration_us: 830,
            events: vec![TraceEvent {
                at_us: 3,
                kind: TraceEventKind::Enter {
                    span: spfail_trace::SpanKind::SmtpSession,
                    label: Some("weird =label".to_string()),
                },
            }],
        };
        CampaignState {
            builder: CampaignBuilder {
                shards: 4,
                options: ProbeOptions {
                    faults: FaultProfile {
                        dns: FaultPlan {
                            drop_chance: 0.05,
                            ..FaultPlan::NONE
                        },
                        smtp: FaultPlan::NONE,
                        flaky_fraction: 0.2,
                        window: Some(FlakyWindow::new(SimDuration::from_mins(360), 0.6)),
                    },
                    retry: RetryPolicy::standard(),
                },
                timed: true,
                trace: TraceConfig { enabled: true },
                incremental: true,
                no_policy_cache: true,
                streaming: false,
            },
            world_seed: 2024,
            world_scale: 0.004,
            rounds_done: 2,
            initial_busy: SimDuration::from_secs(7),
            rounds_busy: SimDuration::from_secs(3),
            stats: SessionStats {
                round_probes_issued: 11,
                round_probes_skipped: 44,
            },
            masks: None,
            initial: sample_initial(),
            rounds: vec![
                (15, vec![(HostId(3), RoundStatus::Vulnerable)]),
                (
                    17,
                    vec![
                        (HostId(3), RoundStatus::Patched),
                        (HostId(9), RoundStatus::Inconclusive),
                    ],
                ),
            ],
            ethics_total: EthicsAudit {
                immediate: 5,
                spaced: 2,
                greylist_waits: 1,
                dedup_suppressed: 0,
                peak_concurrency: 3,
            },
            network_total: MetricsSnapshot {
                dns_queries: 120,
                bytes_sent: 4096,
                ..MetricsSnapshot::default()
            },
            merged_counts: vec![(HostId(3), 2), (HostId(9), 3)],
            workers: vec![WorkerState {
                clock_micros: 1_296_000_000_000,
                ethics: EthicsAudit {
                    immediate: 4,
                    ..EthicsAudit::default()
                },
                contacts: vec![(
                    "192.0.2.7".parse().unwrap(),
                    SimTime::from_micros(1_295_999_000_000),
                )],
                metrics: MetricsSnapshot {
                    connections_attempted: 9,
                    ..MetricsSnapshot::default()
                },
                occurrences: vec![((3, 15, 0, 2), 1)],
                counts: vec![(HostId(3), 3)],
            }],
            trace_records: vec![record],
        }
    }

    /// The text form round-trips the whole state exactly — floats by
    /// bit pattern, labels through their escaping.
    #[test]
    fn state_round_trips_exactly() {
        let state = sample_state();
        let text = state.to_text();
        let parsed = CampaignState::parse(&text).expect("parses");
        assert_eq!(parsed, state);
        // And the canonical text form is a fixed point.
        assert_eq!(parsed.to_text(), text);
    }

    /// A streamed state carries its sweep as the `aggregate v1` section
    /// (no init lines) and round-trips just like the eager form.
    #[test]
    fn aggregate_section_round_trips_exactly() {
        let mut state = sample_state();
        state.initial = InitialResults::default();
        // More than one packed row, with high bits set.
        state.masks = Some((0..150u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect());
        let text = state.to_text();
        assert!(text.contains("aggregate v1 150\n"));
        assert!(text.contains("amask 0 "));
        assert!(text.contains("amask 64 "));
        assert!(text.contains("amask 128 "));
        let parsed = CampaignState::parse(&text).expect("parses");
        assert_eq!(parsed, state);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn truncated_aggregate_sections_are_rejected() {
        let mut state = sample_state();
        state.initial = InitialResults::default();
        state.masks = Some(vec![0x0001_0000; 70]);
        let text = state.to_text();
        // Drop the second mask row: the declared count no longer matches.
        let truncated = text
            .lines()
            .filter(|l| !l.starts_with("amask 64"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CampaignState::parse(&truncated).is_err());
        // An orphan mask row (no header) is rejected too.
        let headerless = text
            .lines()
            .filter(|l| !l.starts_with("aggregate "))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CampaignState::parse(&headerless).is_err());
    }

    /// Files written before the trailer existed carry the `v1` magic
    /// and no `end` line; they parse to the same state.
    #[test]
    fn v1_text_without_trailer_still_parses() {
        let state = sample_state();
        let v1: String = state
            .to_text()
            .replacen(MAGIC, MAGIC_V1, 1)
            .lines()
            .filter(|l| !l.starts_with("end "))
            .flat_map(|l| [l, "\n"])
            .collect();
        assert_eq!(CampaignState::parse(&v1).expect("v1 parses"), state);
    }

    #[test]
    fn trailer_must_count_the_lines_and_close_the_file() {
        let text = sample_state().to_text();
        let (body, trailer) = text.trim_end().rsplit_once('\n').expect("several lines");
        let count: usize = trailer
            .strip_prefix("end ")
            .and_then(|n| n.parse().ok())
            .expect("an end trailer");
        assert_eq!(count, body.lines().count());
        assert!(CampaignState::parse(&format!("{body}\nend {}\n", count + 1)).is_err());
        assert!(CampaignState::parse(&format!("{body}\n")).is_err());
        assert!(CampaignState::parse(&format!("{text}progress 2\n")).is_err());
        // A v1 file has no trailer to carry.
        assert!(CampaignState::parse(&text.replacen(MAGIC, MAGIC_V1, 1)).is_err());
    }

    /// Probe ids are held inline, so an `init` line carrying a longer
    /// one is an error — before or after unescaping — never a panic.
    #[test]
    fn overlong_probe_ids_are_rejected() {
        let text = sample_state().to_text();
        assert!(text.contains("init 3 ab3x "));
        for id in ["abcdefgh", "abcdefg%20"] {
            assert!(id.len() > ProbeId::MAX);
            let err = CampaignState::parse(&text.replace("init 3 ab3x ", &format!("init 3 {id} ")))
                .expect_err("an overlong id must not parse");
            assert!(err.contains("longer than 7 bytes"), "unexpected error: {err}");
        }
        // Seven bytes after unescaping still fit.
        let fits = text.replace("init 3 ab3x ", "init 3 abcde%25x ");
        let parsed = CampaignState::parse(&fits).expect("a 7-byte id parses");
        let row = parsed.initial.get(&HostId(3)).expect("host 3");
        assert_eq!(row.nomsg.id.as_str(), "abcde%x");
    }

    #[test]
    fn corrupted_checkpoints_are_rejected() {
        assert!(CampaignState::parse("").is_err());
        assert!(CampaignState::parse("not a checkpoint\n").is_err());
        let text = sample_state().to_text();
        let mangled = text.replace("retry ", "retry bogus ");
        assert!(CampaignState::parse(&mangled).is_err());
        // Keep the magic line but drop the config one.
        let truncated = text
            .lines()
            .filter(|l| !l.starts_with("config"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CampaignState::parse(&truncated).is_err());
    }
}
