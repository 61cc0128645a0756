//! The three workloads and the in-process run of one of them.
//!
//! A worker process runs one workload once, driving the pipeline stage
//! by stage the way `Context::run` and `StreamContext::run` do, with a
//! span around every stage call. It reports on standard output, one
//! record per line, for the coordinator to aggregate:
//!
//! ```text
//! ready                         just before the first probe
//! done                          the last exhibit is rendered and digested
//! span <id> <parent|-> <name> <start_ns> <end_ns> <allocs> <bytes>
//! sample <name> <value>         one latency sample (round_ms, resume_ms)
//! value <name> <value>          one measured value (peak_rss_mb, pause_s)
//! count <name> <value>          a counter the program exposes
//! digest <name> <hex>           an output digest
//! ```

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use spfail_netsim::{FaultPlan, FaultProfile, FlakyWindow, MetricsSnapshot, SimDuration};
use spfail_notify::{NotificationCampaign, PixelLog};
use spfail_prober::{
    CampaignBuilder, CampaignRun, CampaignSummary, RetryPolicy, Session, SessionStats,
    StreamedCampaign, TraceConfig,
};
use spfail_report::{Context, Exhibit, StreamContext, WorldAggregates, EXHIBIT_REGISTRY};
use spfail_world::{Population, World, WorldConfig};

use crate::alloc;
use crate::digest::Digest;

/// The `experiments` default seed.
pub const DEFAULT_SEED: u64 = 0x5bf2_a117;

/// The exhibit left out of the output digest: it reports how
/// evaluations were answered, not what was measured, and a restored
/// session restarts its tallies from zero.
const UNDIGESTED_EXHIBIT: &str = "cache_efficiency";

/// How many times the runs that do not checkpoint restore their
/// final-boundary checkpoint after the run, to give `resume_ms`.
const RESUME_PROBES: usize = 4;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-scale streaming run of `experiments --scale 1.0 --streaming`.
    PaperScale,
    /// An eager 2-shard campaign under the combined fault profile, traced.
    FaultySharded,
    /// An eager incremental campaign killed and resumed at every boundary.
    CheckpointResume,
}

/// Which of the two pipelines a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `World::generate`, then the eager session.
    Eager,
    /// Lazy synthesis inside `StreamedCampaign::sweep`.
    Streaming,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperScale,
        Workload::FaultySharded,
        Workload::CheckpointResume,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperScale => "paper_scale",
            Workload::FaultySharded => "faulty_sharded",
            Workload::CheckpointResume => "checkpoint_resume",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world scale the workload runs at.
    pub fn scale(self) -> f64 {
        match self {
            Workload::PaperScale => 1.0,
            Workload::FaultySharded | Workload::CheckpointResume => 0.2,
        }
    }

    /// The pipeline the workload drives.
    pub fn pipeline(self) -> Pipeline {
        match self {
            Workload::PaperScale => Pipeline::Streaming,
            Workload::FaultySharded | Workload::CheckpointResume => Pipeline::Eager,
        }
    }

    /// Whether the campaign is checkpointed, dropped and restored at
    /// every round boundary.
    pub fn checkpoints(self) -> bool {
        self == Workload::CheckpointResume
    }

    /// The campaign configuration.
    pub fn builder(self) -> CampaignBuilder {
        match self {
            Workload::PaperScale => CampaignBuilder::new(),
            Workload::FaultySharded => CampaignBuilder::new()
                .shards(2)
                .faults(combined_faults())
                .retry(RetryPolicy::standard())
                .trace(TraceConfig::enabled()),
            Workload::CheckpointResume => CampaignBuilder::new().incremental(),
        }
    }

    /// Threads the workload's process computes on.
    pub fn threads(self) -> usize {
        match self {
            Workload::FaultySharded => 2,
            Workload::PaperScale | Workload::CheckpointResume => 1,
        }
    }

    /// Whether the worker keeps all its threads on one CPU. The two
    /// shards of `faulty_sharded` meet at the end of every round, so
    /// left to run on two CPUs of a shared host each round waits for
    /// whichever CPU another tenant slows; on one CPU a round costs the
    /// sum of its shards' work, as a single-threaded round does.
    pub fn one_cpu(self) -> bool {
        self.threads() > 1
    }

    /// The full configuration, one line, for the run record.
    pub fn describe(self, seed: u64, scale: f64) -> String {
        let faults = match self {
            Workload::FaultySharded => {
                "dns drop 0.05 servfail 0.05 truncate 0.1, smtp tempfail 0.05 reset 0.05, \
                 20% flaky hosts (6h window, 0.6)"
            }
            _ => "none",
        };
        format!(
            "workload={} seed={seed} (0x{seed:x}) scale={scale} pipeline={} shards={} \
             threads={} faults=[{faults}] retry={} trace={} incremental={} policy_cache=on \
             checkpoint={}",
            self.name(),
            match self.pipeline() {
                Pipeline::Eager => "eager",
                Pipeline::Streaming => "streaming",
            },
            self.threads(),
            if self.one_cpu() {
                format!("{} on 1 cpu", self.threads())
            } else {
                self.threads().to_string()
            },
            if self == Workload::FaultySharded {
                "standard"
            } else {
                "off"
            },
            if self == Workload::FaultySharded {
                "on (jsonl + profile export)"
            } else {
                "off"
            },
            if self == Workload::CheckpointResume {
                "on"
            } else {
                "off"
            },
            if self.checkpoints() {
                "write, drop and restore at all 35 round boundaries"
            } else {
                "final boundary only, outside wall_s (resume_ms probe)"
            },
        )
    }
}

/// The combined fault profile of `tests/fault_matrix.rs`.
fn combined_faults() -> FaultProfile {
    FaultProfile {
        dns: FaultPlan {
            drop_chance: 0.05,
            servfail_chance: 0.05,
            truncate_chance: 0.1,
            ..FaultPlan::NONE
        },
        smtp: FaultPlan {
            tempfail_chance: 0.05,
            reset_chance: 0.05,
            ..FaultPlan::NONE
        },
        flaky_fraction: 0.2,
        window: Some(FlakyWindow::new(SimDuration::from_mins(360), 0.6)),
    }
}

/// Keep this thread, and every thread it starts from now on, on the CPU
/// it is running on.
fn pin_to_current_cpu() -> io::Result<()> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| io::Error::last_os_error())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("cpu {cpu} is past the affinity mask")))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of the size passed;
    // pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// How a worker runs its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload as defined.
    Measure,
    /// The same campaign without any checkpoint: the reference a
    /// checkpointed run must equal.
    Uninterrupted,
    /// Set up, signal `ready` and stop: one more `setup_s` sample.
    Setup,
}

/// Stage spans of one run, kept in memory and printed at the end.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
    allocs: u64,
    bytes: u64,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: impl Into<String>) -> usize {
        let (allocs, bytes) = alloc::totals();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            allocs,
            bytes,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and return its duration in seconds.
    fn end(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos();
        let (allocs, bytes) = alloc::totals();
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.allocs = allocs - span.allocs;
        span.bytes = bytes - span.bytes;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span named `name`.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }
}

/// The record a worker prints, built up as the run goes.
struct Out {
    lines: Vec<String>,
}

impl Out {
    fn sample(&mut self, name: &str, value: f64) {
        self.lines.push(format!("sample {name} {value}"));
    }

    fn value(&mut self, name: &str, value: f64) {
        self.lines.push(format!("value {name} {value}"));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.lines.push(format!("count {name} {value}"));
    }

    fn digest(&mut self, name: &str, digest: u64) {
        self.lines.push(format!("digest {name} {digest:016x}"));
    }
}

/// Tell the coordinator a milestone was reached, at once.
fn signal(line: &str) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "{line}")?;
    stdout.flush()
}

/// What a run does with checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checkpoints {
    /// Write, drop and restore the session at every round boundary.
    EveryBoundary,
    /// Write the final boundary outside the measured time and restore it
    /// after the run, so every workload reports `resume_ms`.
    ResumeProbe,
    /// None at all: the uninterrupted reference run.
    Off,
}

/// The rounds stage and the checkpoint layer around it.
struct Rounds<'a> {
    spans: &'a mut Spans,
    out: &'a mut Out,
    path: &'a Path,
    policy: Checkpoints,
    /// Seconds spent writing the resume probe's checkpoint, excluded
    /// from the workload's wall time.
    paused_s: f64,
    /// Size of the last checkpoint written.
    bytes: u64,
}

impl Rounds<'_> {
    fn write(&mut self, session: &mut Session<'_>) -> io::Result<f64> {
        let id = self.spans.begin("prober.checkpoint_write");
        session.checkpoint(self.path)?;
        let secs = self.spans.end(id);
        self.bytes = std::fs::metadata(self.path)?.len();
        Ok(secs)
    }

    fn restore<'w>(&mut self, pop: &'w dyn Population) -> io::Result<Session<'w>> {
        let id = self.spans.begin("prober.checkpoint_read");
        let session = Session::restore(self.path, pop)?;
        let secs = self.spans.end(id);
        self.out.sample("resume_ms", secs * 1e3);
        Ok(session)
    }

    /// Checkpoint the session, drop it and restore it from the file, as
    /// a kill and resume would. Returns the restored session and the
    /// seconds spent writing.
    fn kill_and_resume<'w>(
        &mut self,
        mut session: Session<'w>,
        pop: &'w dyn Population,
    ) -> io::Result<(Session<'w>, f64)> {
        let write_s = self.write(&mut session)?;
        self.spans.time("prober.session_drop", || drop(session));
        Ok((self.restore(pop)?, write_s))
    }

    /// Run every longitudinal round and return the session at the
    /// final boundary. Under [`Checkpoints::EveryBoundary`] a round's
    /// latency includes writing its checkpoint.
    fn run<'w>(
        &mut self,
        mut session: Session<'w>,
        pop: &'w dyn Population,
    ) -> io::Result<Session<'w>> {
        let every = self.policy == Checkpoints::EveryBoundary;
        let stage = self.spans.begin("prober.rounds");
        if every {
            session = self.kill_and_resume(session, pop)?.0;
        }
        while session.rounds_remaining() > 0 {
            let (_, mut round_s) = self.spans.time("prober.round", || session.advance_round());
            if every {
                let (restored, write_s) = self.kill_and_resume(session, pop)?;
                session = restored;
                round_s += write_s;
            }
            self.out.sample("round_ms", round_s * 1e3);
        }
        self.spans.end(stage);
        if self.policy == Checkpoints::ResumeProbe {
            let probe = self.spans.begin("bench.resume_probe");
            self.write(&mut session)?;
            self.paused_s += self.spans.end(probe);
        }
        Ok(session)
    }

    /// The measured part of the run is over: signal it and read the
    /// memory high-water mark before any resume probe runs.
    fn done(&mut self) -> io::Result<()> {
        signal("done")?;
        self.out.value("peak_rss_mb", peak_rss_mb()?);
        Ok(())
    }

    /// Restore the resume probe's checkpoint a few times.
    fn probe_resume(&mut self, pop: &dyn Population) -> io::Result<()> {
        if self.policy != Checkpoints::ResumeProbe {
            return Ok(());
        }
        let probe = self.spans.begin("bench.resume_probe");
        for _ in 0..RESUME_PROBES {
            drop(self.restore(pop)?);
        }
        self.spans.end(probe);
        Ok(())
    }
}

/// Build every registry exhibit, one span each.
fn build_exhibits(spans: &mut Spans, build: impl Fn(usize) -> Exhibit) -> Vec<Exhibit> {
    let stage = spans.begin("report.exhibits");
    let exhibits = (0..EXHIBIT_REGISTRY.len())
        .map(|i| {
            spans
                .time(
                    &format!("report.exhibit.{}", EXHIBIT_REGISTRY[i].id),
                    || build(i),
                )
                .0
        })
        .collect();
    spans.end(stage);
    exhibits
}

/// Digest the campaign summary and every measurement exhibit.
fn digest_outputs(
    spans: &mut Spans,
    out: &mut Out,
    summary: &CampaignSummary,
    exhibits: &[Exhibit],
) {
    let stage = spans.begin("bench.digest");
    out.digest("summary", Digest::summary(summary));
    for exhibit in exhibits.iter().filter(|e| e.id != UNDIGESTED_EXHIBIT) {
        out.digest(&format!("exhibit.{}", exhibit.id), Digest::exhibit(exhibit));
    }
    spans.end(stage);
}

/// Export the program's trace, when the campaign recorded one.
fn export_trace(spans: &mut Spans, out: &mut Out, run: &CampaignRun) {
    let stage = spans.begin("trace.export");
    let exported = run.trace.as_ref().map(|trace| {
        let jsonl = trace.to_jsonl();
        let profile = trace.profile();
        std::hint::black_box(&profile);
        (trace.len() as u64, jsonl)
    });
    spans.end(stage);
    let (records, bytes) = match exported {
        Some((records, jsonl)) => {
            let stage = spans.begin("bench.digest");
            out.digest("trace.jsonl", Digest::bytes(jsonl.as_bytes()));
            spans.end(stage);
            (records, jsonl.len() as u64)
        }
        None => (0, 0),
    };
    out.count("trace.records", records);
    out.count("trace.jsonl_bytes", bytes);
}

/// Record the counters the program exposes.
fn counters(out: &mut Out, run: &CampaignRun, stats: SessionStats) {
    let net: &MetricsSnapshot = &run.summary.network;
    let ethics = &run.summary.ethics;
    out.count("prober.probes_issued", stats.round_probes_issued);
    out.count("prober.round_probes_skipped", stats.round_probes_skipped);
    out.count("prober.retries", net.probe_retries);
    out.count("prober.recovered", net.probes_recovered);
    out.count("prober.ethics_spaced", ethics.spaced);
    out.count("prober.ethics_greylist_waits", ethics.greylist_waits);
    out.count("prober.ethics_dedup_suppressed", ethics.dedup_suppressed);
    let cache = run.cache.unwrap_or_default();
    out.count("spf.cache_hits", cache.hits);
    out.count("spf.cache_misses", cache.misses);
    out.count("spf.cache_interned", cache.interned);
    out.count("dns.queries", net.dns_queries);
    out.count("dns.cache_hits", net.dns_cache_hits);
    out.count("dns.truncated", net.dns_truncated);
    out.count("dns.timeouts", net.dns_timeouts);
    out.count("dns.servfails", net.dns_servfails);
    out.count("netsim.datagrams_sent", net.datagrams_sent);
    out.count("netsim.datagrams_dropped", net.datagrams_dropped);
    out.count("netsim.bytes_sent", net.bytes_sent);
    out.count("smtp.tempfails", net.smtp_tempfails);
    out.count("smtp.resets", net.connection_resets);
    out.count("smtp.window_closed_probes", net.window_closed_probes);
}

/// The process's high-water resident set, in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// Run `workload` once in this process and print its record.
pub fn run(
    workload: Workload,
    seed: u64,
    scale: f64,
    mode: Mode,
    traced: bool,
    checkpoint: &Path,
) -> io::Result<()> {
    if workload.one_cpu() {
        pin_to_current_cpu()?;
    }
    if traced {
        alloc::enable();
    }
    let mut spans = Spans::new();
    let mut out = Out { lines: Vec::new() };
    let policy = match mode {
        Mode::Uninterrupted | Mode::Setup => Checkpoints::Off,
        Mode::Measure if workload.checkpoints() => Checkpoints::EveryBoundary,
        Mode::Measure => Checkpoints::ResumeProbe,
    };
    let root = spans.begin("run");
    let config_of = || WorldConfig {
        seed,
        scale,
        ..WorldConfig::default()
    };
    let mut rounds = Rounds {
        spans: &mut spans,
        out: &mut out,
        path: checkpoint,
        policy,
        paused_s: 0.0,
        bytes: 0,
    };
    match workload.pipeline() {
        Pipeline::Eager => {
            let (world, _) = rounds
                .spans
                .time("world.generate", || World::generate(config_of()));
            signal("ready")?;
            if mode == Mode::Setup {
                return Ok(());
            }
            let (session, _) = rounds.spans.time("prober.sweep", || {
                let mut session = workload.builder().session(&world);
                session.initial_sweep();
                session
            });
            let session = rounds.run(session, &world)?;
            let stats = session.stats();
            let (run, _) = rounds.spans.time("prober.finish", || session.finish());
            let spans = &mut *rounds.spans;
            let out = &mut *rounds.out;
            export_trace(spans, out, &run);
            let mut pixels = PixelLog::new();
            let ((notifications, funnel), _) = spans.time("notify.run", || {
                NotificationCampaign::run(&world, &run.data.vulnerable_domains, &mut pixels)
            });
            let (aggregates, _) = spans.time("report.aggregates", || {
                WorldAggregates::from_world(&world, &run.summary.masks)
            });
            counters(out, &run, stats);
            out.count("world.hosts", world.hosts.len() as u64);
            out.count("world.domains", world.domains.len() as u64);
            out.count("notify.sent", funnel.sent as u64);
            let summary = run.summary;
            let ctx = Context {
                world,
                campaign: run.data,
                notifications,
                funnel,
                pixels,
                cache: run.cache,
                aggregates,
            };
            let exhibits = build_exhibits(spans, |i| (EXHIBIT_REGISTRY[i].build)(&ctx));
            digest_outputs(spans, out, &summary, &exhibits);
            rounds.done()?;
            drop(exhibits);
            rounds.probe_resume(&ctx.world)?;
        }
        Pipeline::Streaming => {
            let (config, _) = rounds.spans.time("world.generate", config_of);
            signal("ready")?;
            if mode == Mode::Setup {
                return Ok(());
            }
            let (streamed, _) = rounds.spans.time("prober.sweep", || {
                StreamedCampaign::sweep(workload.builder(), config.clone())
            });
            let (session, _) = rounds.spans.time("prober.sweep", || streamed.session());
            let session = session.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let session = rounds.run(session, streamed.population())?;
            let stats = session.stats();
            let (run, _) = rounds.spans.time("prober.finish", || session.finish());
            let spans = &mut *rounds.spans;
            let out = &mut *rounds.out;
            export_trace(spans, out, &run);
            let (aggregates, _) = spans.time("report.aggregates", || {
                WorldAggregates::from_config(&config, &run.summary.masks)
            });
            let population = streamed.into_population();
            let mut pixels = PixelLog::new();
            let ((notifications, funnel), _) = spans.time("notify.run", || {
                NotificationCampaign::run(&population, &run.summary.vulnerable_domains, &mut pixels)
            });
            counters(out, &run, stats);
            out.count("world.hosts", run.summary.masks.len() as u64);
            out.count("world.domains", aggregates.set_counts[0] as u64);
            out.count("notify.sent", funnel.sent as u64);
            let sc = StreamContext {
                config,
                population,
                campaign: run.data,
                summary: run.summary,
                aggregates,
                notifications,
                funnel,
                pixels,
                cache: run.cache,
            };
            let exhibits = build_exhibits(spans, |i| (EXHIBIT_REGISTRY[i].build_streaming)(&sc));
            digest_outputs(spans, out, &sc.summary, &exhibits);
            rounds.done()?;
            drop(exhibits);
            rounds.probe_resume(&sc.population)?;
        }
    }
    let (paused_s, bytes) = (rounds.paused_s, rounds.bytes);
    spans.end(root);
    out.value("paused_s", paused_s);
    out.count("prober.checkpoint_bytes", bytes);
    let mut stdout = io::stdout().lock();
    for line in &out.lines {
        writeln!(stdout, "{line}")?;
    }
    for (id, span) in spans.spans.iter().enumerate() {
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            stdout,
            "span {id} {parent} {} {} {} {} {}",
            span.name, span.start_ns, span.end_ns, span.allocs, span.bytes
        )?;
    }
    stdout.flush()
}
