//! The streaming campaign driver: bounded-memory measurement over a
//! lazily synthesized world.
//!
//! The eager engine materializes the whole population, probes it, and
//! keeps every per-host initial result for the lifetime of the run —
//! peak heap O(hosts). This driver runs the same campaign in three
//! bounded passes:
//!
//! 1. **Sweep** — drive a [`LazyWorld`] host stream through the initial
//!    sweep, folding each host's results into one [`HostMask`] the
//!    moment they exist and recording only the vulnerable `(host, ip)`
//!    pairs. Host records live exactly as long as their synthesis step;
//!    prober-side per-host state (repetition counters, contact history,
//!    blacklist counters) is pruned to the vulnerable set as the sweep
//!    goes, by the rule the eager sweep applies once at its end
//!    ([`crate::session`]'s `prune`).
//! 2. **Retention replay** — re-drive the synthesis stream (identical by
//!    construction) keeping just the tracked host records and the
//!    domains that reference them: a [`SparsePopulation`] of O(tracked)
//!    records over the *live* runtime surface of pass 1.
//! 3. **Handoff** — assemble the sweep into an in-memory
//!    [`CampaignState`] (the same structure a checkpoint serialises,
//!    with the mask column as its `aggregate v1` section) and continue
//!    through the ordinary staged [`Session`]: the rounds, snapshot,
//!    trace merge, and summary are *the checkpoint-resume path*, which
//!    `tests/session_checkpoint.rs` already proves byte-identical to an
//!    uninterrupted run.
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
    HostId, HostRecord, LazyWorld, RuntimePopulation, SparsePopulation, Timeline, WorldConfig,
    WorldRuntime,
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
    /// world of `config`, then replay the stream to retain the tracked
    /// subset.
    pub fn sweep(builder: CampaignBuilder, config: WorldConfig) -> StreamedCampaign {
        let lazy = LazyWorld::new(config.clone());
        let runtime = lazy.runtime().clone();
        let sharded = builder.shards > 1;
        let sweep = if sharded {
            sweep_sharded(&builder, lazy, &runtime)
        } else {
            sweep_sequential(&builder, lazy, &runtime)
        };
        let tracked: Vec<HostId> = sweep.vulnerable.iter().map(|&(h, _)| h).collect();
        let population = retain(config.clone(), runtime, &tracked);
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
    /// replay the synthesis stream to retain the tracked subset, then
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
        let population = retain(config, runtime, &tracked);
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
    }
    prune(&mut prober, &mut counts, &vulnerable);
    let busy = prober.context().clock.now().since(start);

    let worker = worker_state(&prober, &counts);
    let cache = prober.context().policy_cache.clone();
    drop(prober);
    SweepOutput {
        masks,
        vulnerable,
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
    let host_count_hint = lazy.domain_count(); // lower bound, resized below
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

    let mut masks = vec![0u32; host_count_hint];
    let mut vulnerable = Vec::new();
    let mut counts = HashMap::new();
    let mut ethics_total = crate::EthicsAudit::default();
    let mut network_total = spfail_netsim::MetricsSnapshot::default();
    let mut cache_seed = PolicyCacheStats::default();
    let mut busy = SimDuration::ZERO;
    let mut trace_records = Vec::new();
    let total: usize = shard_outputs.iter().map(|o| o.masks.len()).sum();
    masks.resize(total, 0);
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

/// The retention replay: re-drive the synthesis stream (bit-identical
/// to the sweep's, both are `LazyWorld::new(config)`) keeping the
/// domains with a tracked host and *every* host those domains
/// reference — the records the rounds, snapshot, and notification
/// phases look up (delivery walks a vulnerable domain's whole MX list,
/// and the funnel reads every member host's ground truth, so tracked
/// hosts alone are not enough). The retained domains are precisely the
/// initially vulnerable ones, which is what makes
/// [`SparsePopulation::derive_vulnerable_domains`] agree with the eager
/// full-world scan.
///
/// Two passes: shared-hosting domains reference hosts synthesized for
/// *earlier* domains, so which hosts to keep is only known once every
/// domain's membership has streamed by. Pass one collects the host-id
/// set, pass two the records — synthesis is cheap, holding the
/// population is what streaming avoids.
fn retain(config: WorldConfig, runtime: WorldRuntime, tracked: &[HostId]) -> SparsePopulation {
    let mut keep_hosts: Vec<HostId> = Vec::new();
    for step in LazyWorld::new(config.clone()) {
        if step
            .domain
            .hosts
            .iter()
            .any(|h| tracked.binary_search(h).is_ok())
        {
            keep_hosts.extend(step.domain.hosts.iter().copied());
        }
    }
    keep_hosts.sort();
    keep_hosts.dedup();

    let mut population = SparsePopulation::new(runtime);
    for step in LazyWorld::new(config) {
        let first = step.first_fresh.0;
        for (offset, record) in step.fresh.into_iter().enumerate() {
            let id = HostId(first + offset as u32);
            if keep_hosts.binary_search(&id).is_ok() {
                population.insert_host(id, record);
            }
        }
        if step
            .domain
            .hosts
            .iter()
            .any(|h| tracked.binary_search(h).is_ok())
        {
            population.insert_domain(step.id, step.domain);
        }
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
