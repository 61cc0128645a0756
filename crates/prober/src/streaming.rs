//! The streaming campaign driver: bounded-memory measurement over a
//! lazily synthesized world.
//!
//! The eager engine materializes the whole population, probes it, and
//! keeps every per-host initial result for the lifetime of the run —
//! peak heap O(hosts). This driver runs the same campaign in two
//! bounded passes:
//!
//! 1. **Sweep with inline retention** — drive a [`LazyWorld`] host
//!    stream through the initial sweep, folding each host's results into
//!    one [`HostMask`] the moment they exist and recording only the
//!    vulnerable `(host, ip)` pairs. Once a step's fresh hosts are
//!    probed, every mask its domain needs exists, so the step goes
//!    through the one retention rule (`retain_step`) on the spot: the
//!    tracked host records and the domains that reference them form a
//!    [`SparsePopulation`] of O(tracked) records; every other record
//!    lives exactly as long as its synthesis step. Prober-side per-host
//!    state (repetition counters, contact history, blacklist counters)
//!    is pruned to the vulnerable set as the sweep goes, by the rule the
//!    eager sweep applies once at its end ([`crate::session`]'s
//!    `prune`).
//! 2. **Handoff** — assemble the sweep into an in-memory
//!    [`CampaignState`] (the same structure a checkpoint serialises,
//!    with the mask column as its `aggregate v1` section) and continue
//!    through the ordinary staged [`Session`]: the rounds, snapshot,
//!    trace merge, and summary are *the checkpoint-resume path*, which
//!    `tests/session_checkpoint.rs` already proves byte-identical to an
//!    uninterrupted run.
//!
//! Two arms cannot retain inline and replay the synthesis stream once
//! instead, through the same rule: a sharded sweep (its feeder thread
//! dispatches records before any shard has probed them) and
//! [`StreamedCampaign::adopt`] (a checkpoint carries masks, not records).
//!
//! Peak heap is O(shards + tracked + masks) — the mask column is 4
//! bytes per host, the one deliberately compact O(hosts) term — instead
//! of the eager engine's full population plus per-host probe outcomes
//! (`crates/bench/tests/alloc_count.rs` pins the budget).

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::mpsc::{sync_channel, Receiver};

use spfail_netsim::{PolicyCacheStats, SimDuration};
use spfail_trace::{Phase, Tracer};
use spfail_world::{
    DomainStep, HostId, HostRecord, LazyWorld, RuntimePopulation, SparsePopulation, Timeline,
    WorldConfig, WorldRuntime,
};

use crate::aggregate::HostMask;
use crate::campaign::{
    shard_of, CampaignBuilder, CampaignRun, HostInitialResult, InitialResults,
};
use crate::checkpoint::CampaignState;
use crate::ethics::MAX_CONCURRENT;
use crate::probe::{ProbeContext, ProbeTest, Prober};
use crate::session::{prune, worker_state, Session, SessionStats};

/// How many hosts a sweep worker probes between prunes of its per-host
/// state. Between prunes the maps hold at most this many dead entries,
/// so the interval trades prune overhead against the high-water mark.
const PRUNE_INTERVAL: usize = 4096;

/// Bound on in-flight host records per shard channel — the streamed
/// sweep's only buffering between synthesis and probing.
const CHANNEL_DEPTH: usize = 512;

/// Everything a streaming campaign run produced: the run itself plus
/// the retained population the longitudinal phases ran over (the
/// notification and reporting layers keep using it).
pub struct StreamingRun {
    /// The campaign run — summary, traces, and longitudinal data
    /// bit-for-bit those of the eager engine; `run.data.initial` is
    /// empty (the sweep's record is [`CampaignRun::summary`]'s masks).
    pub run: CampaignRun,
    /// The retained O(tracked) population.
    pub population: SparsePopulation,
}

/// A streamed initial sweep, ready to hand off to a staged [`Session`]:
/// the retained population plus the in-memory checkpoint the session
/// continues from. Built by [`StreamedCampaign::sweep`] (a fresh
/// campaign) or [`StreamedCampaign::adopt`] (resuming a checkpoint of
/// either vintage in streaming mode).
pub struct StreamedCampaign {
    population: SparsePopulation,
    state: CampaignState,
    /// Sequential sweeps hand their live policy cache to the rebuilt
    /// round worker — the eager sequential engine keeps one warm cache
    /// across all phases.
    cache: Option<spfail_mta::PolicyCacheHandle>,
    /// Sharded sweeps retire their workers at the sweep join; their
    /// cache tallies seed the session's merged total, as the eager
    /// sharded join does.
    cache_seed: PolicyCacheStats,
}

impl StreamedCampaign {
    /// Run the initial sweep for `builder` over the lazily synthesized
    /// world of `config`, retaining the tracked subset as it goes
    /// (sequential) or by one replay of the stream after the join
    /// (sharded).
    pub fn sweep(builder: CampaignBuilder, config: WorldConfig) -> StreamedCampaign {
        let lazy = LazyWorld::new(config.clone());
        let runtime = lazy.runtime().clone();
        let sharded = builder.shards > 1;
        let mut sweep = if sharded {
            sweep_sharded(&builder, lazy, &runtime)
        } else {
            sweep_sequential(&builder, lazy, &runtime)
        };
        let population = sweep.population.take().unwrap_or_else(|| {
            let tracked: Vec<HostId> = sweep.vulnerable.iter().map(|&(h, _)| h).collect();
            replay_retain(config.clone(), runtime, &tracked)
        });
        let mut counts: Vec<(HostId, u32)> = sweep.counts.into_iter().collect();
        counts.sort_by_key(|(h, _)| *h);
        let state = CampaignState {
            builder,
            world_seed: config.seed,
            world_scale: config.scale,
            masks: Some(sweep.masks),
            rounds_done: 0,
            initial_busy: sweep.busy,
            rounds_busy: SimDuration::ZERO,
            stats: SessionStats::default(),
            initial: InitialResults::default(),
            rounds: Vec::new(),
            ethics_total: sweep.ethics_total,
            network_total: sweep.network_total,
            // The sharded engine consumes these when it creates its
            // round workers; the sequential worker carries its own.
            merged_counts: if sharded { counts } else { Vec::new() },
            workers: sweep.workers,
            trace_records: sweep.trace_records,
        };
        StreamedCampaign {
            population,
            state,
            cache: sweep.cache,
            cache_seed: sweep.cache_seed,
        }
    }

    /// Resume a checkpointed campaign state (of either vintage: eager
    /// init lines or a streamed aggregate section) in streaming mode:
    /// replay the synthesis stream once to retain the tracked subset, then
    /// continue through [`StreamedCampaign::session`]. The checkpoint
    /// must be for the world of `config` (seed and scale are validated
    /// at session construction).
    pub fn adopt(state: CampaignState, config: WorldConfig) -> StreamedCampaign {
        let tracked: Vec<HostId> = match &state.masks {
            Some(masks) => masks
                .iter()
                .enumerate()
                .filter(|(_, &m)| HostMask(m).tracked())
                .map(|(i, _)| HostId(i as u32))
                .collect(),
            // `Campaign::derive_tracking`'s host set: the vulnerable
            // (its transient clause adds no further hosts). `initial`
            // is host-sorted in a checkpoint, so this is too.
            None => state
                .initial
                .iter()
                .filter(|(_, r)| r.vulnerable())
                .map(|(&h, _)| h)
                .collect(),
        };
        let runtime = WorldRuntime::new(config.clone());
        let population = replay_retain(config, runtime, &tracked);
        StreamedCampaign {
            population,
            state,
            // A resumed session starts with cold caches in either mode
            // (the cache is derived state, absent from checkpoints).
            cache: None,
            cache_seed: PolicyCacheStats::default(),
        }
    }

    /// The retained population.
    pub fn population(&self) -> &SparsePopulation {
        &self.population
    }

    /// Consume the handoff, keeping the retained population.
    pub fn into_population(self) -> SparsePopulation {
        self.population
    }

    /// Open the staged [`Session`] that continues this campaign: rounds,
    /// snapshot, and finish run exactly as the eager engine's
    /// checkpoint-resume path.
    pub fn session(&self) -> Result<Session<'_>, String> {
        let mut session = Session::from_state(self.state.clone(), &self.population)?;
        if self.cache.is_some() {
            session.adopt_policy_cache(self.cache.clone());
        }
        session.seed_cache_total(self.cache_seed);
        Ok(session)
    }
}

/// Drive a full streaming campaign: sweep, retention, rounds, snapshot.
/// [`CampaignBuilder::run_streaming`] is the public spelling.
pub(crate) fn run_streaming(builder: CampaignBuilder, config: WorldConfig) -> StreamingRun {
    let streamed = StreamedCampaign::sweep(builder, config);
    let mut session = streamed
        .session()
        .expect("a fresh handoff state is self-consistent");
    while session.advance_round().is_some() {}
    let run = session.finish();
    StreamingRun {
        run,
        population: streamed.into_population(),
    }
}

/// What one sweep pass hands to the session, whichever engine ran it.
struct SweepOutput {
    /// One [`HostMask`] per host, index = host id — the 4-bytes-per-host
    /// column that replaces the eager engine's per-host results.
    masks: Vec<u32>,
    /// The tracked hosts and their (unique) addresses, id-sorted.
    vulnerable: Vec<(HostId, Ipv4Addr)>,
    /// Sequential: the population retained inline as the sweep went.
    /// Sharded: `None` — the feeder cannot see the masks, so
    /// [`replay_retain`] runs after the join.
    population: Option<SparsePopulation>,
    /// Blacklist counters of the tracked hosts.
    counts: HashMap<HostId, u32>,
    /// Sharded: totals merged at the sweep join (sequential sweeps carry
    /// everything in their single worker instead).
    ethics_total: crate::EthicsAudit,
    network_total: spfail_netsim::MetricsSnapshot,
    /// Sequential: the single live worker's durable state (exactly one
    /// entry). Sharded: empty — round workers are created fresh.
    workers: Vec<crate::checkpoint::WorkerState>,
    trace_records: Vec<spfail_trace::ProbeRecord>,
    busy: SimDuration,
    cache: Option<spfail_mta::PolicyCacheHandle>,
    cache_seed: PolicyCacheStats,
}

/// Probe one streamed host: NoMsg first, BlankMsg where NoMsg elicited
/// no SPF — the per-host body of `Campaign::initial_sweep`, folded to a
/// mask the moment the outcomes exist.
fn sweep_host(prober: &mut Prober<'_>, host: HostId, record: &HostRecord) -> (HostMask, u32) {
    let (nomsg, attempts) =
        prober.probe_with_retry_record(host, record, Timeline::INITIAL, ProbeTest::NoMsg, 0);
    let mut seen = attempts;
    let blankmsg = if !nomsg.refused() && !nomsg.smtp_failure() && !nomsg.spf_measured() {
        let (outcome, attempts) = prober.probe_with_retry_record(
            host,
            record,
            Timeline::INITIAL,
            ProbeTest::BlankMsg,
            seen,
        );
        seen += attempts;
        Some(outcome)
    } else {
        None
    };
    let result = HostInitialResult { nomsg, blankmsg };
    (HostMask::from_initial(&result), seen)
}

/// The sequential streamed sweep: one prober over the shared runtime
/// surfaces, hosts probed in id order as the stream synthesizes them —
/// the same probe sequence, clock, and query log as
/// `Session::initial_sweep`'s sequential arm over an eager world.
fn sweep_sequential(
    builder: &CampaignBuilder,
    lazy: LazyWorld,
    runtime: &WorldRuntime,
) -> SweepOutput {
    let pop = RuntimePopulation(runtime.clone());
    let tracer = Tracer::new(builder.trace);
    let mut prober = Prober::with_options(
        &pop,
        "s1",
        ProbeContext::shared(&pop)
            .with_tracer(tracer.clone())
            .with_policy_cache(!builder.no_policy_cache),
        MAX_CONCURRENT,
        builder.options,
    );
    let query_log = prober.context().query_log.clone();
    prober.context().tracer.set_phase(Phase::Initial);
    prober
        .context()
        .clock
        .advance_to(Timeline::day_to_time(Timeline::INITIAL));
    prober.ethics_mut().begin_sweep();
    let start = prober.context().clock.now();

    let mut masks: Vec<u32> = Vec::new();
    let mut vulnerable: Vec<(HostId, Ipv4Addr)> = Vec::new();
    let mut counts: HashMap<HostId, u32> = HashMap::new();
    let mut population = SparsePopulation::new(runtime.clone());
    for step in lazy {
        let first = step.first_fresh.0;
        for (offset, record) in step.fresh.iter().enumerate() {
            let host = HostId(first + offset as u32);
            let (mask, seen) = sweep_host(&mut prober, host, record);
            masks.push(mask.0);
            if mask.tracked() {
                vulnerable.push((host, record.ip));
                counts.insert(host, seen);
            }
            // Keep the query log bounded, as the eager sweep does.
            if query_log.len() > 50_000 {
                query_log.clear();
            }
            if masks.len() % PRUNE_INTERVAL == 0 {
                prune(&mut prober, &mut counts, &vulnerable);
            }
        }
        // Every host the domain lists now has its mask: its fresh hosts
        // were just probed, and a host from an earlier step was probed
        // at that step.
        retain_step(&mut population, step, |h| {
            HostMask(masks[h.0 as usize]).tracked()
        });
    }
    prune(&mut prober, &mut counts, &vulnerable);
    let busy = prober.context().clock.now().since(start);

    let worker = worker_state(&prober, &counts);
    let cache = prober.context().policy_cache.clone();
    drop(prober);
    SweepOutput {
        masks,
        vulnerable,
        population: Some(population),
        counts,
        ethics_total: crate::EthicsAudit::default(),
        network_total: spfail_netsim::MetricsSnapshot::default(),
        workers: vec![worker],
        trace_records: tracer.finish().records,
        busy,
        cache,
        cache_seed: PolicyCacheStats::default(),
    }
}

/// The sharded streamed sweep: the synthesis stream is dispatched to
/// per-shard workers over bounded channels ([`shard_of`] keys the
/// partition, so each worker receives exactly its eager partition in id
/// order), each worker probing through an isolated context with the
/// eager engine's per-shard budget. The join merges audits, network
/// counters, cache tallies, busy times, and traces exactly as
/// `Session::initial_sweep`'s sharded arm retires its workers.
fn sweep_sharded(
    builder: &CampaignBuilder,
    lazy: LazyWorld,
    runtime: &WorldRuntime,
) -> SweepOutput {
    let shards = builder.shards.max(1);
    let budget = (MAX_CONCURRENT / shards).max(1);
    let opts = builder.options;
    let trace = builder.trace;
    let cache_on = !builder.no_policy_cache;

    struct ShardOut {
        /// Masks of this shard's hosts in arrival (id) order; host id =
        /// `shard + i * shards`, so the stride reconstructs the column
        /// without shipping ids.
        masks: Vec<u32>,
        vulnerable: Vec<(HostId, Ipv4Addr)>,
        counts: HashMap<HostId, u32>,
        ethics: crate::EthicsAudit,
        network: spfail_netsim::MetricsSnapshot,
        cache: PolicyCacheStats,
        busy: SimDuration,
        trace: spfail_trace::Trace,
    }

    let worker = |rx: Receiver<(HostId, HostRecord)>| -> ShardOut {
        let pop = RuntimePopulation(runtime.clone());
        let tracer = Tracer::new(trace);
        let mut prober = Prober::with_options(
            &pop,
            "s1",
            ProbeContext::isolated(&pop)
                .with_tracer(tracer.clone())
                .with_policy_cache(cache_on),
            budget,
            opts,
        );
        let query_log = prober.context().query_log.clone();
        prober.context().tracer.set_phase(Phase::Initial);
        prober
            .context()
            .clock
            .advance_to(Timeline::day_to_time(Timeline::INITIAL));
        prober.ethics_mut().begin_sweep();
        let start = prober.context().clock.now();
        let mut masks = Vec::new();
        let mut vulnerable: Vec<(HostId, Ipv4Addr)> = Vec::new();
        let mut counts = HashMap::new();
        while let Ok((host, record)) = rx.recv() {
            let (mask, seen) = sweep_host(&mut prober, host, &record);
            masks.push(mask.0);
            if mask.tracked() {
                vulnerable.push((host, record.ip));
                counts.insert(host, seen);
            }
            if query_log.len() > 50_000 {
                query_log.clear();
            }
            if masks.len() % PRUNE_INTERVAL == 0 {
                prune(&mut prober, &mut counts, &vulnerable);
            }
        }
        let busy = prober.context().clock.now().since(start);
        ShardOut {
            masks,
            vulnerable,
            counts,
            ethics: prober.ethics().audit().clone(),
            network: prober.metrics().snapshot(),
            cache: prober.policy_cache_stats(),
            busy,
            trace: tracer.finish(),
        }
    };

    let mut txs = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = sync_channel::<(HostId, HostRecord)>(CHANNEL_DEPTH);
        txs.push(tx);
        rxs.push(rx);
    }
    let shard_outputs: Vec<ShardOut> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = rxs.into_iter().map(|rx| s.spawn(|_| worker(rx))).collect();
        // The feeder: synthesize on this thread, dispatch each fresh
        // host's record to its shard, drop the senders to close.
        for step in lazy {
            let first = step.first_fresh.0;
            for (offset, record) in step.fresh.into_iter().enumerate() {
                let host = HostId(first + offset as u32);
                txs[shard_of(host, shards)]
                    .send((host, record))
                    .expect("shard worker hung up");
            }
        }
        drop(txs);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
    .expect("scope");

    let total: usize = shard_outputs.iter().map(|o| o.masks.len()).sum();
    let mut masks = vec![0u32; total];
    let mut vulnerable = Vec::new();
    let mut counts = HashMap::new();
    let mut ethics_total = crate::EthicsAudit::default();
    let mut network_total = spfail_netsim::MetricsSnapshot::default();
    let mut cache_seed = PolicyCacheStats::default();
    let mut busy = SimDuration::ZERO;
    let mut trace_records = Vec::new();
    for (shard, out) in shard_outputs.into_iter().enumerate() {
        for (i, m) in out.masks.into_iter().enumerate() {
            masks[shard + i * shards] = m;
        }
        vulnerable.extend(out.vulnerable);
        counts.extend(out.counts);
        ethics_total = ethics_total.merge(&out.ethics);
        network_total = network_total.merge(&out.network);
        cache_seed = cache_seed.merge(&out.cache);
        busy = busy.max(out.busy);
        trace_records.extend(out.trace.records);
    }
    vulnerable.sort_by_key(|&(h, _)| h);
    SweepOutput {
        masks,
        vulnerable,
        population: None,
        counts,
        ethics_total,
        network_total,
        workers: Vec::new(),
        trace_records,
        busy,
        cache: None,
        cache_seed,
    }
}

/// The retention rule, applied to one synthesis step: keep the step's
/// domain iff any of its hosts is `tracked`, and each fresh host record
/// iff that host is tracked or the domain is kept. The kept domains are
/// precisely the initially vulnerable ones, which is what makes
/// [`SparsePopulation::derive_vulnerable_domains`] agree with the eager
/// full-world scan; every host a kept domain lists is kept with it
/// (delivery walks a vulnerable domain's whole MX list, and the funnel
/// reads every member host's ground truth, so tracked hosts alone are
/// not enough).
///
/// One step suffices, with no look-ahead: a domain lists a host from an
/// earlier step only through a shared-hosting or parking pool, and such
/// a domain lists that host alone. So it is kept only if the pool host
/// is tracked — and a tracked pool host was kept at the step that
/// created it, whose domain lists it.
fn retain_step(
    population: &mut SparsePopulation,
    step: DomainStep,
    tracked: impl Fn(HostId) -> bool,
) {
    let keep_domain = step.domain.hosts.iter().any(|&h| tracked(h));
    let first = step.first_fresh.0;
    for (offset, record) in step.fresh.into_iter().enumerate() {
        let host = HostId(first + offset as u32);
        if keep_domain || tracked(host) {
            population.insert_host(host, record);
        }
    }
    if keep_domain {
        debug_assert!(
            step.domain.hosts.iter().all(|&h| population.has_host(h)),
            "domain {:?} kept without all of its hosts",
            step.id
        );
        population.insert_domain(step.id, step.domain);
    }
}

/// The retention replay, for the arms that cannot retain inline (the
/// sharded sweep's feeder never sees a mask; [`StreamedCampaign::adopt`]
/// has no sweep at all): re-drive the synthesis stream once — identical
/// by construction, both are `LazyWorld::new(config)` — through
/// [`retain_step`] against the sorted `tracked` list.
fn replay_retain(
    config: WorldConfig,
    runtime: WorldRuntime,
    tracked: &[HostId],
) -> SparsePopulation {
    let mut population = SparsePopulation::new(runtime);
    for step in LazyWorld::new(config) {
        retain_step(&mut population, step, |h| tracked.binary_search(&h).is_ok());
    }
    population
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignSummary;
    use spfail_world::{Population, World};

    fn config() -> WorldConfig {
        WorldConfig {
            scale: 0.004,
            ..WorldConfig::small(7)
        }
    }

    #[test]
    fn streaming_summary_matches_eager_sequential() {
        let world = World::generate(config());
        let eager = CampaignBuilder::new().run(&world);
        let streamed = CampaignBuilder::new().run_streaming(config());
        assert_eq!(streamed.run.summary, eager.summary);
        // The longitudinal data minus the (deliberately empty) initial
        // results is equal too.
        assert_eq!(streamed.run.data.tracked, eager.data.tracked);
        assert_eq!(streamed.run.data.rounds, eager.data.rounds);
        assert_eq!(streamed.run.data.snapshot, eager.data.snapshot);
        assert!(streamed.run.data.initial.results.is_empty());
        assert_eq!(
            CampaignSummary::from_data(&eager.data).aggregate(),
            streamed.run.summary.aggregate()
        );
    }

    #[test]
    fn streaming_summary_matches_eager_sharded() {
        let world = World::generate(config());
        let eager = CampaignBuilder::new().shards(3).run(&world);
        let streamed = CampaignBuilder::new().shards(3).run_streaming(config());
        assert_eq!(streamed.run.summary, eager.summary);
    }

    /// Inline retention (sequential sweep), the one-pass replay
    /// (sharded sweep), and the former two-pass rule — keep every host a
    /// domain with a tracked host lists — keep the same records.
    #[test]
    fn inline_replay_and_two_pass_retention_agree() {
        let sequential = StreamedCampaign::sweep(CampaignBuilder::new(), config());
        let sharded = StreamedCampaign::sweep(CampaignBuilder::new().shards(3), config());
        let masks = sequential
            .state
            .masks
            .as_ref()
            .expect("streamed sweep masks");
        assert_eq!(Some(masks), sharded.state.masks.as_ref());
        let tracked: Vec<HostId> = (0..masks.len() as u32)
            .map(HostId)
            .filter(|h| HostMask(masks[h.0 as usize]).tracked())
            .collect();
        assert!(!tracked.is_empty());

        let listed_tracked =
            |hosts: &[HostId]| hosts.iter().any(|h| tracked.binary_search(h).is_ok());
        let mut keep_hosts: Vec<HostId> = Vec::new();
        let mut keep_domains = Vec::new();
        for step in LazyWorld::new(config()) {
            if listed_tracked(&step.domain.hosts) {
                keep_hosts.extend(step.domain.hosts.iter().copied());
                keep_domains.push(step.id);
            }
        }
        keep_hosts.sort();
        keep_hosts.dedup();

        for streamed in [&sequential, &sharded] {
            let population = streamed.population();
            assert_eq!(population.host_count(), keep_hosts.len());
            assert_eq!(population.domain_count(), keep_domains.len());
            for &h in &keep_hosts {
                assert!(population.has_host(h), "{h:?} not retained");
            }
            // Every retained domain lists a tracked host, so this is the
            // retained domain set.
            assert_eq!(population.derive_vulnerable_domains(&tracked), keep_domains);
        }
    }

    #[test]
    fn retained_population_covers_the_longitudinal_phases() {
        let streamed = CampaignBuilder::new().run_streaming(config());
        for &host in &streamed.run.summary.tracked {
            assert!(streamed.population.has_host(host));
        }
        assert_eq!(
            streamed.population.domain_count(),
            streamed.run.summary.vulnerable_domains.len()
        );
        // Delivery and the snapshot walk each vulnerable domain's whole
        // MX list, so every member host must be retained, tracked or not.
        for &d in &streamed.run.summary.vulnerable_domains {
            for &h in &streamed.population.domain(d).hosts {
                assert!(streamed.population.has_host(h));
            }
        }
    }
}
