//! Ablation benchmarks for the design choices DESIGN.md calls out.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use spfail_dns::resolver::ResolverConfig;
use spfail_dns::{
    wire, Directory, Message, Name, QueryLog, RData, RecordType, Resolver, SpfTestAuthority,
    StaticAuthority, ZoneBuilder,
};
use spfail_mta::{Mta, MtaConfig, SpfStage};
use spfail_netsim::{Link, SimClock, SimRng};
use spfail_prober::classify;
use spfail_smtp::address::EmailAddress;
use spfail_smtp::command::Command;

/// Ablation 1: DNS name compression on vs off — codec time and message
/// size trade-off.
fn ablation_compression(c: &mut Criterion) {
    let origin = Name::parse("k7q2.s1.spf-test.dns-lab.org").expect("name");
    let q = Message::query(7, origin.clone(), RecordType::TXT);
    let mut message = Message::respond_to(&q);
    // A response with heavily repeated suffixes — compression's best case.
    for i in 0..8 {
        message.answers.push(spfail_dns::Record::new(
            origin.child(&format!("mx{i}")).expect("name"),
            60,
            RData::Mx {
                preference: i,
                exchange: origin.child(&format!("exchange{i}")).expect("name"),
            },
        ));
    }
    let mut group = c.benchmark_group("ablation_compression");
    group.bench_function("encode_compressed", |b| {
        b.iter(|| wire::encode(black_box(&message)))
    });
    group.bench_function("encode_uncompressed", |b| {
        b.iter(|| wire::encode_uncompressed(black_box(&message)))
    });
    // Record the size delta as auxiliary output.
    let compressed = wire::encode(&message).len();
    let plain = wire::encode_uncompressed(&message).len();
    eprintln!("ablation_compression: {compressed}B compressed vs {plain}B plain");
    group.finish();
}

/// Ablation 2: resolver cache on vs off. The paper's unique per-probe
/// labels deliberately make every query a cache miss; this quantifies the
/// asymmetry that design exploits.
fn ablation_cache(c: &mut Criterion) {
    let clock = SimClock::new();
    let directory = Directory::new();
    let origin = Name::parse("static.example").expect("name");
    let zone = ZoneBuilder::new(origin.clone())
        .txt(&origin, 300, "v=spf1 -all")
        .a(&origin, 300, "192.0.2.1".parse().expect("ip"))
        .build();
    directory.register(Arc::new(StaticAuthority::new(zone)));

    let mut group = c.benchmark_group("ablation_cache_bypass");
    group.bench_function("repeat_query_cached", |b| {
        let mut resolver = Resolver::new(
            directory.clone(),
            Link::ideal(clock.clone()),
            "198.51.100.1".parse().expect("ip"),
        );
        let mut rng = SimRng::new(1);
        b.iter(|| {
            resolver
                .resolve(&mut rng, black_box(&origin), RecordType::A)
                .expect("resolves")
        })
    });
    group.bench_function("repeat_query_uncached", |b| {
        let mut resolver = Resolver::with_config(
            directory.clone(),
            Link::ideal(clock.clone()),
            "198.51.100.1".parse().expect("ip"),
            ResolverConfig {
                cache_enabled: false,
                ..ResolverConfig::default()
            },
        );
        let mut rng = SimRng::new(2);
        b.iter(|| {
            resolver
                .resolve(&mut rng, black_box(&origin), RecordType::A)
                .expect("resolves")
        })
    });
    group.finish();
}

fn probe_rig() -> (Directory, QueryLog, SimClock) {
    let log = QueryLog::new();
    let directory = Directory::new();
    directory.register(Arc::new(SpfTestAuthority::new(
        SpfTestAuthority::default_origin(),
        log.clone(),
    )));
    (directory, log, SimClock::new())
}

fn run_probe(
    directory: &Directory,
    clock: &SimClock,
    stage: SpfStage,
    blank: bool,
    id: &str,
) -> bool {
    let mut config = MtaConfig::vulnerable("mx.bench.test");
    config.spf_stage = stage;
    config.reject_on_spf_fail = false;
    let mut mta = Mta::new(
        config,
        "198.51.100.9".parse().expect("ip"),
        directory.clone(),
        clock.clone(),
        SimRng::new(3),
    );
    let origin = SpfTestAuthority::default_origin();
    let sender = EmailAddress::new("mmj7yzdm0tbk", &format!("{id}.s1.{}", origin.to_ascii()))
        .expect("address");
    mta.connect("203.0.113.25".parse().expect("ip"));
    let (mut session, _) = mta.open_session();
    session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
    session.handle(&Command::MailFrom(sender));
    if blank {
        session.handle(&Command::RcptTo(
            EmailAddress::parse("postmaster@x.test").expect("address"),
        ));
        session.handle(&Command::Data);
        session.handle_message("");
    }
    true
}

/// Ablation 3: NoMsg-first vs BlankMsg-only probing. NoMsg is cheaper per
/// probe but misses OnData hosts; BlankMsg-only always pays the full
/// transaction.
fn ablation_probe_strategy(c: &mut Criterion) {
    let (directory, _log, clock) = probe_rig();
    let mut group = c.benchmark_group("ablation_probe_strategy");
    group.bench_function("nomsg_first_on_mailfrom_host", |b| {
        b.iter(|| run_probe(&directory, &clock, SpfStage::OnMailFrom, false, "aa1"))
    });
    group.bench_function("nomsg_then_blank_on_data_host", |b| {
        b.iter(|| {
            // NoMsg elicits nothing from an OnData host, so the prober
            // pays for both transactions.
            run_probe(&directory, &clock, SpfStage::OnData, false, "bb2");
            run_probe(&directory, &clock, SpfStage::OnData, true, "bb2")
        })
    });
    group.bench_function("blankmsg_only_on_data_host", |b| {
        b.iter(|| run_probe(&directory, &clock, SpfStage::OnData, true, "cc3"))
    });
    group.finish();
}

/// Ablation 4: classification over a single observed query vs a
/// multi-filter host's whole query set.
fn ablation_multiquery(c: &mut Criterion) {
    let (directory, log, clock) = probe_rig();
    let origin = SpfTestAuthority::default_origin();

    // Single implementation.
    let start = log.len();
    run_probe(&directory, &clock, SpfStage::OnMailFrom, false, "dd4");
    let single = log.entries_from(start);

    // Chained implementations (vulnerable + compliant).
    let mut config = MtaConfig::vulnerable("mx.multi.test");
    config.spf_impls = spfail_mta::SpfImpls::new(&[
        spfail_libspf2::MacroBehavior::VulnerableLibSpf2,
        spfail_libspf2::MacroBehavior::Compliant,
    ]);
    config.reject_on_spf_fail = false;
    let mut mta = Mta::new(
        config,
        "198.51.100.9".parse().expect("ip"),
        directory.clone(),
        clock.clone(),
        SimRng::new(4),
    );
    let sender = EmailAddress::new("mmj7yzdm0tbk", &format!("ee5.s1.{}", origin.to_ascii()))
        .expect("address");
    let start = log.len();
    mta.connect("203.0.113.25".parse().expect("ip"));
    let (mut session, _) = mta.open_session();
    session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
    session.handle(&Command::MailFrom(sender));
    let multi = log.entries_from(start);

    let mut group = c.benchmark_group("ablation_multiquery");
    group.bench_function("classify_single_impl", |b| {
        b.iter(|| classify(black_box(&single), "dd4", "s1", &origin))
    });
    group.bench_function("classify_multi_impl", |b| {
        b.iter(|| classify(black_box(&multi), "ee5", "s1", &origin))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_compression,
    ablation_cache,
    ablation_probe_strategy,
    ablation_multiquery
);
criterion_main!(benches);
