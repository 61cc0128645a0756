//! The staged longitudinal engine: explicit campaign stages, checkpoint
//! and resume at round boundaries, and incremental rounds.
//!
//! [`CampaignBuilder::run`] drives a [`Session`] end to end; callers
//! that need finer control open one with
//! [`CampaignBuilder::session`] and drive the stages themselves:
//!
//! 1. [`Session::initial_sweep`] — probe every host once (day 0);
//! 2. [`Session::advance_round`] — one longitudinal round per call;
//! 3. [`Session::finish`] — the re-resolving February snapshot and the
//!    assembled [`CampaignRun`].
//!
//! Between stages the session can be serialised with
//! [`Session::checkpoint`] and later continued with
//! [`Session::restore`]: killing a campaign at *any* round boundary and
//! resuming it produces byte-for-byte the [`CampaignData`], trace
//! export, and report exhibits of an uninterrupted run, for any shard
//! count and fault profile (`tests/session_checkpoint.rs`).
//!
//! That works because a campaign's durable state at a round boundary is
//! small and explicit. Every probe's randomness is derived from the
//! probe's own identity (see [`Prober::probe`]), never drawn from a
//! consuming stream, so no rng positions need saving: the only live
//! facts are the sweep results so far, each worker's clock, ethics
//! audit + contact history, network counters, probe-repetition
//! counters, and blacklist counters — plus the trace records already
//! emitted. [`CampaignState`](crate::checkpoint::CampaignState) is
//! exactly that inventory.
//!
//! **Incremental rounds** ([`CampaignBuilder::incremental`]) re-probe
//! only hosts whose status can have changed since their last conclusive
//! measurement. A tracked host may be *skipped* in a round when no
//! injected fault profile is active (faults perturb every probe), and
//! either:
//!
//! * the host is past its blacklist threshold and no retry policy is
//!   active: every connection is rejected at the banner, so the round
//!   is `Inconclusive` by construction; or
//! * the host never blacklists, no patch event lies in the window since
//!   its last conclusive measurement
//!   ([`spfail_world::HostProfile::status_event_in`], the patch-event
//!   horizon from the world timeline), and the probe the round would
//!   issue misses the host's flaky roll — replayed exactly from the
//!   probe's identity rng ([`Prober`]'s `would_flake`) without issuing
//!   the probe, so its last conclusive status carries.
//!
//! A skipped host records its carried status for the round and its
//! blacklist counter advances by the one attempt the full rescan would
//! have spent, so every *issued* probe still rolls exactly the dice it
//! would in a full rescan. The measurement fields of [`CampaignData`]
//! (`initial`, `tracked`, `rounds`, `snapshot`, `vulnerable_domains`)
//! are therefore identical to a full rescan; the ethics audit, network
//! counters, and trace shrink with the probe volume — that reduction
//! (≥5× at paper scale) is the point. [`Session::full_rescan`] forces
//! the next round to probe everything.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr};
use std::path::Path;

use spfail_dns::QueryLog;
use spfail_netsim::{MetricsSnapshot, PolicyCacheStats, SimDuration, SimTime};
use spfail_trace::{Trace, Tracer};
use spfail_world::{DomainId, HostId, Population, Timeline};

use crate::aggregate::{CampaignSummary, HostMask};
use crate::campaign::{
    partition_hosts, Campaign, CampaignBuilder, CampaignData, CampaignRun, CampaignTiming,
    InitialMeasurement, InitialResults, RoundStatus,
};
use crate::checkpoint::{CampaignState, StateText, WorkerState};
use crate::ethics::{EthicsAudit, MAX_CONCURRENT};
use crate::probe::{ProbeContext, ProbeTest, Prober};

/// Probe-volume counters for a session's longitudinal rounds — the
/// incremental engine's savings, measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Probes actually issued during rounds (retried sequences count
    /// once, like the paper's per-host probe budget).
    pub round_probes_issued: u64,
    /// Round probes the incremental horizon model answered from carried
    /// state instead of the network.
    pub round_probes_skipped: u64,
}

/// One live probing worker: the sequential engine has exactly one (kept
/// across the initial sweep and every round, like the original
/// monolithic engine), the sharded engine one per shard for the round
/// phase.
struct Worker<'w> {
    prober: Prober<'w>,
    tracer: Tracer,
    counts: HashMap<HostId, u32>,
    hosts: Vec<HostId>,
}

impl Worker<'_> {
    fn state(&self) -> WorkerState {
        worker_state(&self.prober, &self.counts)
    }
}

/// A probing worker's durable state — its prober's plus its blacklist
/// counters — every collection in canonical order.
pub(crate) fn worker_state(prober: &Prober<'_>, counts: &HashMap<HostId, u32>) -> WorkerState {
    let (ethics, contacts) = prober.ethics().export();
    let mut counts: Vec<_> = counts.iter().map(|(&h, &n)| (h, n)).collect();
    counts.sort_unstable_by_key(|(h, _)| *h);
    WorkerState {
        clock_micros: prober.context().clock.now().as_micros(),
        ethics,
        contacts,
        metrics: prober.metrics().snapshot(),
        occurrences: prober.occurrences_export(),
        counts,
    }
}

/// Prune a sweep worker's per-host state — probe-repetition counters,
/// contact history, blacklist counters — down to the `keep` hosts and
/// their addresses (host-sorted). Sound mid-sweep and after it, in
/// either engine: the sweep never revisits a host, host addresses are
/// unique, and only tracked hosts are probed again (the snapshot through
/// a fresh prober), so the dropped entries can never be read again.
/// Audit counters and metrics are untouched.
pub(crate) fn prune(
    prober: &mut Prober<'_>,
    counts: &mut HashMap<HostId, u32>,
    keep: &[(HostId, Ipv4Addr)],
) {
    let hosts: Vec<HostId> = keep.iter().map(|&(h, _)| h).collect();
    prober.occurrences_retain(&hosts);
    counts.retain(|h, _| hosts.binary_search(h).is_ok());
    let mut ips: Vec<IpAddr> = keep.iter().map(|&(_, ip)| IpAddr::V4(ip)).collect();
    ips.sort();
    prober.ethics_mut().contacts_retain(&ips);
}

/// A staged, checkpointable campaign run. See the module docs.
pub struct Session<'w> {
    pop: &'w dyn Population,
    builder: CampaignBuilder,
    /// Rounds completed so far (index into `Timeline::all_round_days()`).
    rounds_done: usize,
    full_rescan_next: bool,
    initial: Option<InitialMeasurement>,
    tracked: Vec<HostId>,
    vulnerable_domains: Vec<DomainId>,
    preferred: HashMap<HostId, ProbeTest>,
    rounds: Vec<(u16, HashMap<HostId, RoundStatus>)>,
    /// Audit/counters merged from workers already retired (the sharded
    /// initial phase); live workers keep theirs until `finish`.
    ethics_total: EthicsAudit,
    network_total: MetricsSnapshot,
    /// Compiled-policy cache tallies merged from retired workers. Purely
    /// derived state: never checkpointed, and a restored session counts
    /// from zero again (its rebuilt workers start with cold caches).
    cache_total: PolicyCacheStats,
    initial_busy: SimDuration,
    rounds_busy: SimDuration,
    /// Trace records drained from retired workers and checkpoints; the
    /// final trace is the identity-ordered merge of these with the live
    /// tracers, so draining points leave no mark.
    trace_parts: Vec<Trace>,
    /// Per-host last conclusive measurement `(day, status)` — the
    /// incremental engine's carried state. Derivable from `initial` +
    /// `rounds`, so it is never checkpointed.
    last_conclusive: HashMap<HostId, (u16, RoundStatus)>,
    stats: SessionStats,
    workers: Vec<Worker<'w>>,
    /// Sharded only: per-host attempt counts merged from the initial
    /// phase, consumed when the round workers are created.
    merged_counts: HashMap<HostId, u32>,
    /// Streaming mode: the initial sweep's per-host results compressed
    /// to one [`HostMask`] per host (index = host id). When set, the
    /// session's `initial` is an empty sentinel (the sweep ran, its
    /// results live here) and [`Session::finish`] builds the run's
    /// summary from these masks.
    streamed: Option<Vec<u32>>,
}

impl<'w> Session<'w> {
    /// A fresh session for `builder` against `pop`.
    /// [`CampaignBuilder::session`] is the public spelling.
    pub(crate) fn new(builder: CampaignBuilder, pop: &'w dyn Population) -> Session<'w> {
        Session {
            pop,
            builder,
            rounds_done: 0,
            full_rescan_next: false,
            initial: None,
            tracked: Vec::new(),
            vulnerable_domains: Vec::new(),
            preferred: HashMap::new(),
            rounds: Vec::new(),
            ethics_total: EthicsAudit::default(),
            network_total: MetricsSnapshot::default(),
            cache_total: PolicyCacheStats::default(),
            initial_busy: SimDuration::ZERO,
            rounds_busy: SimDuration::ZERO,
            trace_parts: Vec::new(),
            last_conclusive: HashMap::new(),
            stats: SessionStats::default(),
            workers: Vec::new(),
            merged_counts: HashMap::new(),
            streamed: None,
        }
    }

    fn shards(&self) -> usize {
        self.builder.shards.max(1)
    }

    fn sharded(&self) -> bool {
        self.builder.shards > 1
    }

    fn cache_enabled(&self) -> bool {
        !self.builder.no_policy_cache
    }

    /// The hosts tracked longitudinally (set by the initial sweep).
    pub fn tracked(&self) -> &[HostId] {
        &self.tracked
    }

    /// Round days still to run.
    pub fn rounds_remaining(&self) -> usize {
        Timeline::all_round_days().len() - self.rounds_done
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// The session's probe-volume counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Force the next [`Session::advance_round`] to probe every tracked
    /// host, ignoring the incremental horizon for that round.
    pub fn full_rescan(&mut self) {
        self.full_rescan_next = true;
    }

    /// Stage 1: probe every unique server address once (day 0) and
    /// derive the longitudinal tracking set.
    ///
    /// # Panics
    ///
    /// If the initial sweep already ran (including via restore).
    pub fn initial_sweep(&mut self) {
        assert!(
            self.initial.is_none(),
            "Session::initial_sweep: the initial sweep already ran"
        );
        let world = self.pop;
        let host_count = world
            .full_host_count()
            .expect("the eager initial sweep needs the full population");
        let all_hosts: Vec<HostId> = (0..host_count as u32).map(HostId).collect();
        if !self.sharded() {
            let tracer = Tracer::new(self.builder.trace);
            let mut prober = Prober::with_options(
                world,
                "s1",
                ProbeContext::shared(world)
                    .with_tracer(tracer.clone())
                    .with_policy_cache(self.cache_enabled()),
                MAX_CONCURRENT,
                self.builder.options,
            );
            let mut counts = HashMap::new();
            let (initial, busy) = Campaign::initial_sweep(&mut prober, &mut counts, &all_hosts);
            self.initial_busy = busy;
            self.note_tracking(&initial);
            self.initial = Some(initial);
            let keep: Vec<(HostId, Ipv4Addr)> = self
                .tracked
                .iter()
                .map(|&h| (h, world.host(h).ip))
                .collect();
            prune(&mut prober, &mut counts, &keep);
            // The sequential engine keeps this one prober (and clock)
            // across the initial sweep and every round.
            self.workers.push(Worker {
                prober,
                tracer,
                counts,
                hosts: self.tracked.clone(),
            });
            return;
        }

        // Sharded: one worker per shard, retired at the join. The scope
        // is the barrier — tracking derivation needs every shard's
        // results.
        let shards = self.shards();
        let budget = (MAX_CONCURRENT / shards).max(1);
        let partitions = partition_hosts(&all_hosts, shards);
        let opts = self.builder.options;
        let trace = self.builder.trace;
        let cache_on = self.cache_enabled();
        type SweepOut = (
            InitialMeasurement,
            HashMap<HostId, u32>,
            EthicsAudit,
            MetricsSnapshot,
            PolicyCacheStats,
            SimDuration,
            Trace,
        );
        let sweep_outputs: Vec<SweepOut> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = partitions
                .iter()
                .map(|part| {
                    s.spawn(move |_| {
                        let tracer = Tracer::new(trace);
                        let mut prober = Prober::with_options(
                            world,
                            "s1",
                            ProbeContext::isolated(world)
                                .with_tracer(tracer.clone())
                                .with_policy_cache(cache_on),
                            budget,
                            opts,
                        );
                        let mut counts = HashMap::new();
                        let (initial, busy) =
                            Campaign::initial_sweep(&mut prober, &mut counts, part);
                        (
                            initial,
                            counts,
                            prober.ethics().audit().clone(),
                            prober.metrics().snapshot(),
                            prober.policy_cache_stats(),
                            busy,
                            tracer.finish(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
        .expect("scope");

        let mut parts = Vec::with_capacity(sweep_outputs.len());
        for (part_initial, part_counts, part_audit, part_network, part_cache, busy, part_trace) in
            sweep_outputs
        {
            parts.push(part_initial.results);
            self.merged_counts.extend(part_counts);
            self.ethics_total = self.ethics_total.merge(&part_audit);
            self.network_total = self.network_total.merge(&part_network);
            self.cache_total = self.cache_total.merge(&part_cache);
            self.initial_busy = self.initial_busy.max(busy);
            self.trace_parts.push(part_trace);
        }
        let initial = InitialMeasurement {
            results: InitialResults::merge(parts),
        };
        self.note_tracking(&initial);
        self.initial = Some(initial);
        // The round workers read these for tracked hosts only; `prune`'s
        // rule, applied to the retired sweep workers' merged counters.
        let tracked = &self.tracked;
        self.merged_counts
            .retain(|h, _| tracked.binary_search(h).is_ok());
    }

    /// Derive tracking from the merged initial sweep and seed the
    /// incremental engine's carried state: every tracked host was
    /// conclusively measured vulnerable on day 0 (that is what made it
    /// tracked).
    fn note_tracking(&mut self, initial: &InitialMeasurement) {
        let (tracked, vulnerable_domains, preferred) =
            Campaign::derive_tracking(self.pop, initial);
        self.last_conclusive = tracked
            .iter()
            .map(|&h| (h, (Timeline::INITIAL, RoundStatus::Vulnerable)))
            .collect();
        self.tracked = tracked;
        self.vulnerable_domains = vulnerable_domains;
        self.preferred = preferred;
    }

    /// Record a finished round: push it onto the results and advance the
    /// carried per-host state by its conclusive measurements.
    fn note_round(&mut self, day: u16, statuses: HashMap<HostId, RoundStatus>) {
        let mut conclusive: Vec<(HostId, RoundStatus)> = statuses
            .iter()
            .filter(|(_, &status)| status != RoundStatus::Inconclusive)
            .map(|(&host, &status)| (host, status))
            .collect();
        conclusive.sort_unstable_by_key(|(host, _)| *host);
        for (host, status) in conclusive {
            self.last_conclusive.insert(host, (day, status));
        }
        self.rounds.push((day, statuses));
        self.rounds_done += 1;
        self.full_rescan_next = false;
    }

    /// The round phase's shard workers, created on the first round (the
    /// monolithic engine created them at the same point: fresh probers
    /// with fresh clocks, seeded with the initial sweep's per-host
    /// attempt counts).
    fn ensure_round_workers(&mut self) {
        if !self.workers.is_empty() {
            return;
        }
        let shards = self.shards();
        let budget = (MAX_CONCURRENT / shards).max(1);
        for part in partition_hosts(&self.tracked, shards) {
            let tracer = Tracer::new(self.builder.trace);
            let prober = Prober::with_options(
                self.pop,
                "s1",
                ProbeContext::isolated(self.pop)
                    .with_tracer(tracer.clone())
                    .with_policy_cache(self.cache_enabled()),
                budget,
                self.builder.options,
            );
            let counts = part
                .iter()
                .map(|h| (*h, self.merged_counts.get(h).copied().unwrap_or(0)))
                .collect();
            self.workers.push(Worker {
                prober,
                tracer,
                counts,
                hosts: part,
            });
        }
    }

    /// Stage 2: run the next longitudinal round. Returns the round's
    /// day, or `None` when all rounds have run.
    ///
    /// # Panics
    ///
    /// If the initial sweep has not run.
    pub fn advance_round(&mut self) -> Option<u16> {
        assert!(
            self.initial.is_some(),
            "Session::advance_round: run initial_sweep first"
        );
        let day = *Timeline::all_round_days().get(self.rounds_done)?;
        if self.sharded() {
            self.ensure_round_workers();
        }
        let incremental = self.builder.incremental;
        let full_rescan = self.full_rescan_next;
        let world = self.pop;
        let preferred = &self.preferred;
        let last_conclusive = &self.last_conclusive;
        let workers = &mut self.workers;
        type RoundOut = (HashMap<HostId, RoundStatus>, SimDuration, u64, u64);
        let step = |w: &mut Worker<'w>| -> RoundOut {
            if incremental {
                incremental_round_sweep(
                    &mut w.prober,
                    day,
                    &w.hosts,
                    preferred,
                    &mut w.counts,
                    last_conclusive,
                    world,
                    full_rescan,
                )
            } else {
                let (statuses, busy) =
                    Campaign::round_sweep(&mut w.prober, day, &w.hosts, preferred, &mut w.counts);
                let issued = w.hosts.len() as u64;
                (statuses, busy, issued, 0)
            }
        };
        let outputs: Vec<RoundOut> = if workers.len() == 1 {
            vec![step(&mut workers[0])]
        } else {
            // Every shard starts the round at the same simulated day, so
            // the round costs its slowest shard.
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .map(|w| s.spawn(move |_| step(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
            .expect("scope")
        };
        let mut statuses = HashMap::new();
        let mut round_busy = SimDuration::ZERO;
        for (part_statuses, busy, issued, skipped) in outputs {
            statuses.extend(part_statuses);
            round_busy = round_busy.max(busy);
            self.stats.round_probes_issued += issued;
            self.stats.round_probes_skipped += skipped;
        }
        self.rounds_busy = self.rounds_busy + round_busy;
        self.note_round(day, statuses);
        Some(day)
    }

    /// Stage 3: the re-resolving February snapshot, then everything the
    /// campaign measured.
    ///
    /// # Panics
    ///
    /// If any stage is missing (initial sweep not run, rounds left).
    pub fn finish(mut self) -> CampaignRun {
        assert_eq!(
            self.rounds_remaining(),
            0,
            "Session::finish: advance_round until all rounds have run"
        );
        let world = self.pop;
        let opts = self.builder.options;
        let trace = self.builder.trace;
        let sharded = self.sharded();

        // Retire the round workers. Sequentially there is exactly one,
        // and its tracer keeps serving the snapshot prober — the
        // monolithic sequential engine used one tracer throughout.
        let mut seq_tracer = None;
        for Worker { prober, tracer, .. } in self.workers.drain(..) {
            self.ethics_total = self.ethics_total.merge(prober.ethics().audit());
            self.network_total = self.network_total.merge(&prober.metrics().snapshot());
            self.cache_total = self.cache_total.merge(&prober.policy_cache_stats());
            if sharded {
                self.trace_parts.push(tracer.finish());
            } else {
                seq_tracer = Some(tracer);
            }
        }

        // The snapshot re-resolves addresses (§5.1, §7.2): fresh
        // resolution reaches the provider's current servers, so the
        // campaign's accumulated blacklisting does not apply. It is its
        // own measurement sweep with its own prober(s): contact-spacing
        // decisions then depend only on the snapshot's own probe
        // sequence, never on how close the last longitudinal round
        // happened to finish.
        let (targets, domain_hosts) =
            Campaign::snapshot_targets(world, &self.vulnerable_domains, &self.tracked);
        let preferred = &self.preferred;
        let mut snapshot_busy = SimDuration::ZERO;
        let mut host_statuses: HashMap<HostId, RoundStatus> = HashMap::new();
        if !sharded {
            let tracer = seq_tracer.unwrap_or_else(|| Tracer::new(trace));
            let mut prober = Prober::with_options(
                world,
                "s1",
                ProbeContext::shared(world)
                    .with_tracer(tracer.clone())
                    .with_policy_cache(self.cache_enabled()),
                MAX_CONCURRENT,
                opts,
            );
            prober
                .context()
                .clock
                .advance_to(Timeline::day_to_time(Timeline::END));
            prober.context().query_log.clear();
            prober.ethics_mut().begin_sweep();
            let (statuses, busy) = Campaign::snapshot_sweep(&mut prober, &targets, preferred);
            host_statuses = statuses;
            snapshot_busy = busy;
            self.ethics_total = self.ethics_total.merge(prober.ethics().audit());
            self.network_total = self.network_total.merge(&prober.metrics().snapshot());
            self.cache_total = self.cache_total.merge(&prober.policy_cache_stats());
            self.trace_parts.push(tracer.finish());
        } else {
            let shards = self.shards();
            let budget = (MAX_CONCURRENT / shards).max(1);
            let target_parts = partition_hosts(&targets, shards);
            let cache_on = self.cache_enabled();
            type SnapOut = (
                HashMap<HostId, RoundStatus>,
                EthicsAudit,
                MetricsSnapshot,
                PolicyCacheStats,
                QueryLog,
                SimDuration,
                Trace,
            );
            let snapshot_outputs: Vec<SnapOut> = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = target_parts
                    .iter()
                    .map(|part| {
                        s.spawn(move |_| {
                            let tracer = Tracer::new(trace);
                            let mut prober = Prober::with_options(
                                world,
                                "s1",
                                ProbeContext::isolated(world)
                                    .with_tracer(tracer.clone())
                                    .with_policy_cache(cache_on),
                                budget,
                                opts,
                            );
                            prober
                                .context()
                                .clock
                                .advance_to(Timeline::day_to_time(Timeline::END));
                            prober.ethics_mut().begin_sweep();
                            let (statuses, busy) =
                                Campaign::snapshot_sweep(&mut prober, part, preferred);
                            let log = prober.context().query_log.clone();
                            (
                                statuses,
                                prober.ethics().audit().clone(),
                                prober.metrics().snapshot(),
                                prober.policy_cache_stats(),
                                log,
                                busy,
                                tracer.finish(),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
            .expect("scope");

            let mut snapshot_logs = Vec::new();
            for (statuses, part_audit, part_network, part_cache, log, busy, part_trace) in
                snapshot_outputs
            {
                host_statuses.extend(statuses);
                self.ethics_total = self.ethics_total.merge(&part_audit);
                self.network_total = self.network_total.merge(&part_network);
                self.cache_total = self.cache_total.merge(&part_cache);
                snapshot_logs.push(log);
                snapshot_busy = snapshot_busy.max(busy);
                self.trace_parts.push(part_trace);
            }

            // Leave the world's shared surfaces where the sequential
            // engine leaves them: clock at the snapshot day, query log
            // holding the snapshot phase's queries in simulated-time
            // order.
            let runtime = world.runtime();
            runtime.clock.advance_to(Timeline::day_to_time(Timeline::END));
            runtime.query_log.clear();
            runtime
                .query_log
                .extend(QueryLog::merged(snapshot_logs.iter()).snapshot());
        }
        let snapshot = Campaign::aggregate_snapshot(&domain_hosts, &host_statuses);

        let data = CampaignData {
            initial: self.initial.take().expect("initial sweep ran"),
            tracked: self.tracked,
            rounds: self.rounds,
            snapshot,
            vulnerable_domains: self.vulnerable_domains,
            ethics: self.ethics_total,
            network: self.network_total,
        };
        // The cross-mode comparison surface: a streamed session carried
        // its initial results as masks; an eager one compresses them now.
        let summary = match self.streamed.take() {
            Some(masks) => CampaignSummary {
                masks,
                tracked: data.tracked.clone(),
                vulnerable_domains: data.vulnerable_domains.clone(),
                rounds: data.rounds.clone(),
                snapshot: data.snapshot.clone(),
                ethics: data.ethics.clone(),
                network: data.network,
            },
            None => CampaignSummary::from_data(&data),
        };
        let timing = CampaignTiming {
            initial: self.initial_busy,
            rounds: self.rounds_busy,
            snapshot: snapshot_busy,
        };
        // Identity-order merge: neither which worker recorded a probe
        // nor where a checkpoint drained the tracer leaves any mark, so
        // this equals the uninterrupted single-tracer trace exactly.
        let trace = trace
            .enabled
            .then(|| Trace::merge(self.trace_parts.drain(..)));
        let cache = (!self.builder.no_policy_cache).then_some(self.cache_total);
        CampaignRun {
            data,
            summary,
            timing: self.builder.timed.then_some(timing),
            trace,
            cache,
        }
    }

    /// Serialise the session's durable state. Only legal at a stage
    /// boundary (which is the only place the caller can be): after
    /// `initial_sweep` or any number of `advance_round`s.
    ///
    /// Draining the live tracers into the state is not destructive —
    /// the final trace is an identity-ordered merge, so a session that
    /// checkpoints and carries on still produces the uninterrupted
    /// trace.
    ///
    /// # Panics
    ///
    /// If the initial sweep has not run (there is nothing to save that
    /// re-running `initial_sweep` would not recompute).
    pub fn to_state(&mut self) -> CampaignState {
        self.drain_tracers();
        let initial = self.initial_results().clone();
        let config = &self.pop.runtime().config;
        CampaignState {
            builder: self.builder,
            world_seed: config.seed,
            world_scale: config.scale,
            masks: self.streamed.clone(),
            rounds_done: self.rounds_done,
            initial_busy: self.initial_busy,
            rounds_busy: self.rounds_busy,
            stats: self.stats,
            initial,
            rounds: self.sorted_rounds().collect(),
            ethics_total: self.ethics_total.clone(),
            network_total: self.network_total,
            merged_counts: self.sorted_merged_counts(),
            workers: self.workers.iter().map(Worker::state).collect(),
            trace_records: self
                .trace_parts
                .iter()
                .flat_map(|t| t.records.iter().cloned())
                .collect(),
        }
    }

    /// The initial sweep's per-host results.
    ///
    /// # Panics
    ///
    /// If the initial sweep has not run.
    fn initial_results(&self) -> &InitialResults {
        &self
            .initial
            .as_ref()
            .expect("Session::checkpoint: run initial_sweep first")
            .results
    }

    /// Drain the live tracers so `trace_parts` holds every record
    /// emitted so far; the handles stay usable for the next stage.
    fn drain_tracers(&mut self) {
        for w in &self.workers {
            let part = w.tracer.finish();
            if !part.is_empty() {
                self.trace_parts.push(part);
            }
        }
    }

    /// Each completed round's statuses, host-sorted.
    fn sorted_rounds(&self) -> impl Iterator<Item = (u16, Vec<(HostId, RoundStatus)>)> + '_ {
        self.rounds.iter().map(|(day, statuses)| {
            let mut hosts: Vec<_> = statuses.iter().map(|(&h, &s)| (h, s)).collect();
            hosts.sort_unstable_by_key(|(h, _)| *h);
            (*day, hosts)
        })
    }

    fn sorted_merged_counts(&self) -> Vec<(HostId, u32)> {
        let mut counts: Vec<_> = self.merged_counts.iter().map(|(&h, &n)| (h, n)).collect();
        counts.sort_unstable_by_key(|(h, _)| *h);
        counts
    }

    /// Rebuild a session from a [`CampaignState`] against `world`,
    /// which must be (a retained subset of) the world the checkpointed
    /// session ran against (same seed and scale — worlds are pure
    /// functions of those).
    ///
    /// A state carrying an aggregate section (written by a streaming
    /// session) has no per-host initial results: tracking is derived
    /// from the [`HostMask`] column instead, which preserves exactly the
    /// predicates `Campaign::derive_tracking` reads. Either state
    /// vintage restores against either population kind — mode can be
    /// toggled across a stop/resume boundary.
    pub fn from_state(state: CampaignState, world: &'w dyn Population) -> Result<Session<'w>, String> {
        let config = &world.runtime().config;
        if config.seed != state.world_seed {
            return Err(format!(
                "checkpoint is for world seed {}, got {}",
                state.world_seed, config.seed
            ));
        }
        if config.scale.to_bits() != state.world_scale.to_bits() {
            return Err(format!(
                "checkpoint is for world scale {}, got {}",
                state.world_scale, config.scale
            ));
        }
        let mut session = Session::new(state.builder, world);
        if let Some(masks) = state.masks {
            if !state.initial.is_empty() {
                return Err("checkpoint carries both init lines and an aggregate section".into());
            }
            // Aggregate branch: tracking from the mask column. Tracked
            // hosts are exactly those whose mask has the vulnerable bit
            // (`HostMask::tracked` mirrors `Campaign::derive_tracking`),
            // and the preferred re-probe test is the conclusive test the
            // mask recorded.
            let tracked: Vec<HostId> = masks
                .iter()
                .enumerate()
                .filter(|(_, &m)| HostMask(m).tracked())
                .map(|(i, _)| HostId(i as u32))
                .collect();
            session.preferred = tracked
                .iter()
                .map(|&h| {
                    let test = HostMask(masks[h.0 as usize])
                        .measured_by()
                        .unwrap_or(ProbeTest::BlankMsg);
                    (h, test)
                })
                .collect();
            session.last_conclusive = tracked
                .iter()
                .map(|&h| (h, (Timeline::INITIAL, RoundStatus::Vulnerable)))
                .collect();
            session.vulnerable_domains = world.derive_vulnerable_domains(&tracked);
            session.tracked = tracked;
            // The sweep ran; its per-host results live in the masks.
            session.initial = Some(InitialMeasurement::default());
            session.streamed = Some(masks);
        } else {
            let initial = InitialMeasurement {
                results: state.initial,
            };
            session.note_tracking(&initial);
            session.initial = Some(initial);
        }
        session.initial_busy = state.initial_busy;
        session.rounds_busy = state.rounds_busy;
        session.stats = state.stats;
        session.ethics_total = state.ethics_total;
        session.network_total = state.network_total;
        session.merged_counts = state.merged_counts.into_iter().collect();
        for (day, hosts) in state.rounds {
            session.note_round(day, hosts.into_iter().collect());
        }
        if session.rounds_done != state.rounds_done {
            return Err(format!(
                "checkpoint records {} rounds but claims {} done",
                session.rounds_done, state.rounds_done
            ));
        }
        if !state.trace_records.is_empty() {
            session.trace_parts.push(Trace {
                records: state.trace_records,
            });
        }

        // Rebuild the live workers: a prober's durable state is its
        // clock, ethics guard, metrics, and probe-repetition counters —
        // everything else is a pure function of the world seed and the
        // suite label, so `with_options` + restore reproduces the
        // worker exactly.
        let sharded = session.sharded();
        let shards = session.shards();
        let budget = if sharded {
            (MAX_CONCURRENT / shards).max(1)
        } else {
            MAX_CONCURRENT
        };
        let expected = if sharded {
            // Before the first round the sharded engine has no live
            // workers (they are created lazily with the merged counts).
            if state.workers.is_empty() { 0 } else { shards }
        } else {
            1
        };
        if state.workers.len() != expected {
            return Err(format!(
                "checkpoint has {} worker states, expected {expected} for {} shard(s)",
                state.workers.len(),
                shards
            ));
        }
        let parts = partition_hosts(&session.tracked, shards);
        for (i, ws) in state.workers.into_iter().enumerate() {
            let tracer = Tracer::new(session.builder.trace);
            // Rebuilt workers start with cold policy caches: the cache is
            // derived state, deliberately absent from checkpoints, and
            // re-warming it is invisible to every measurement surface.
            let ctx = if sharded {
                ProbeContext::isolated(world)
            } else {
                ProbeContext::shared(world)
            }
            .with_policy_cache(session.cache_enabled());
            let mut prober = Prober::with_options(
                world,
                "s1",
                ctx.with_tracer(tracer.clone()),
                budget,
                session.builder.options,
            );
            prober
                .context()
                .clock
                .advance_to(SimTime::from_micros(ws.clock_micros));
            prober.ethics_mut().restore(ws.ethics, ws.contacts);
            prober.metrics().add_snapshot(&ws.metrics);
            prober.occurrences_restore(ws.occurrences);
            let hosts = if sharded {
                parts[i].clone()
            } else {
                session.tracked.clone()
            };
            session.workers.push(Worker {
                prober,
                tracer,
                // lint:allow(det-hash-iter) ws.counts is the checkpoint's sorted Vec, not a hash map; the name merely matches the Worker field
                counts: ws.counts.into_iter().collect(),
                hosts,
            });
        }
        Ok(session)
    }

    /// Write the session's durable state to `path`: the text of
    /// [`CampaignState::to_text`], rendered straight from the session's
    /// own maps (nothing is cloned into a state first) and written
    /// through a sibling temp file renamed over `path`, so a kill
    /// mid-write leaves the previous checkpoint in place. See
    /// [`Session::to_state`] for what is saved and when this is legal.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        self.drain_tracers();
        let merged_counts = self.sorted_merged_counts();
        let workers: Vec<WorkerState> = self.workers.iter().map(Worker::state).collect();
        let config = &self.pop.runtime().config;
        StateText {
            builder: &self.builder,
            world_seed: config.seed,
            world_scale: config.scale,
            rounds_done: self.rounds_done,
            initial_busy: self.initial_busy,
            rounds_busy: self.rounds_busy,
            stats: self.stats,
            ethics_total: &self.ethics_total,
            network_total: &self.network_total,
            merged_counts: &merged_counts,
            initial: self.initial_results(),
            masks: self.streamed.as_deref(),
            rounds: self
                .sorted_rounds()
                .map(|(day, hosts)| (day, Cow::Owned(hosts))),
            workers: &workers,
            trace_records: self.trace_parts.iter().flat_map(|t| &t.records),
        }
        .write_file(path.as_ref())
    }

    /// Continue a checkpointed session from `path` against `world` —
    /// the inverse of [`Session::checkpoint`].
    pub fn restore(path: impl AsRef<Path>, world: &'w dyn Population) -> io::Result<Session<'w>> {
        let text = std::fs::read_to_string(path)?;
        let state = CampaignState::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Session::from_state(state, world)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Streaming handoff only: hand the (single, sequential) worker the
    /// live policy cache the streamed initial sweep warmed, so cache
    /// tallies accumulate across the sweep→rounds boundary exactly as
    /// the eager sequential engine's one long-lived prober does.
    ///
    /// # Panics
    ///
    /// If the session does not have exactly one worker.
    pub(crate) fn adopt_policy_cache(&mut self, cache: Option<spfail_mta::PolicyCacheHandle>) {
        assert_eq!(self.workers.len(), 1, "adopt_policy_cache: sequential only");
        self.workers[0].prober.set_policy_cache(cache);
    }

    /// Streaming handoff only: seed the retired-worker cache tally with
    /// the streamed initial sweep's stats (the sharded eager engine
    /// merges its initial-phase workers' stats here at their retirement).
    pub(crate) fn seed_cache_total(&mut self, stats: PolicyCacheStats) {
        self.cache_total = self.cache_total.merge(&stats);
    }
}

/// One incremental longitudinal round: identical to
/// `Campaign::round_sweep` except that hosts inside the skip horizon
/// answer from carried state. Returns the round statuses, the busy
/// time, and the issued/skipped probe counts.
#[allow(clippy::too_many_arguments)]
fn incremental_round_sweep(
    prober: &mut Prober<'_>,
    day: u16,
    hosts: &[HostId],
    preferred: &HashMap<HostId, ProbeTest>,
    counts: &mut HashMap<HostId, u32>,
    last_conclusive: &HashMap<HostId, (u16, RoundStatus)>,
    world: &dyn Population,
    full_rescan: bool,
) -> (HashMap<HostId, RoundStatus>, SimDuration, u64, u64) {
    prober
        .context()
        .tracer
        .set_phase(spfail_trace::Phase::Round(day));
    prober
        .context()
        .clock
        .advance_to(Timeline::day_to_time(day));
    prober.context().query_log.clear();
    prober.ethics_mut().begin_sweep();
    let start = prober.context().clock.now();
    let faults_active = prober.options().faults.is_active();
    let retries_active = prober.options().retry.max_attempts > 1;
    let mut statuses = HashMap::new();
    let mut issued = 0u64;
    let mut skipped = 0u64;
    for &host in hosts {
        let seen = counts.entry(host).or_insert(0);
        let test = preferred[&host];
        let profile = &world.host(host).profile;
        // The skip horizon. A host's round probe can be answered from
        // carried state only when nothing that can change the answer
        // lies in between — and injected faults perturb every probe, so
        // they disable skipping wholesale.
        let carried = if full_rescan || faults_active {
            None
        } else if let Some(limit) = profile.blacklist_after {
            // A host past its blacklist threshold rejects every
            // connection at the banner, so the round is Inconclusive no
            // matter what (even a flaky connect times out into the same
            // verdict) and a no-retry probe spends exactly one attempt.
            // Pre-threshold probes run for real — one probe can open
            // more than one connection (greylisting), so predicting the
            // crossing is not worth the machinery — as do retried ones,
            // whose attempt count depends on the rejection banner drawn.
            (*seen >= limit && !retries_active).then_some(RoundStatus::Inconclusive)
        } else {
            // Deterministic host: its last conclusive status survives
            // if no patch event lies in the window since and this
            // round's probe would miss the host's flaky roll (replayed
            // from the probe's identity rng without issuing it).
            last_conclusive
                .get(&host)
                .filter(|(last_day, _)| !profile.status_event_in(*last_day, day))
                .map(|&(_, status)| status)
                .filter(|_| !prober.would_flake(host, day, test, *seen))
        };
        if let Some(status) = carried {
            // A full rescan would spend exactly one deterministic,
            // conclusive attempt here; mirror its blacklist counter so
            // every probe this engine *does* issue rolls the same dice.
            *seen += 1;
            skipped += 1;
            statuses.insert(host, status);
            continue;
        }
        let (outcome, attempts) = prober.probe_with_retry(host, day, test, *seen);
        *seen += attempts;
        issued += 1;
        statuses.insert(host, Campaign::round_status(&outcome));
    }
    let busy = prober.context().clock.now().since(start);
    (statuses, busy, issued, skipped)
}
