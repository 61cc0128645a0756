//! The checkpoint file itself, end to end:
//!
//! 1. **One writer.** [`Session::checkpoint`] renders the session's own
//!    maps straight to disk; its file is byte-identical to
//!    [`CampaignState::to_text`] of [`Session::to_state`] at any
//!    boundary, in every engine, traced or not.
//! 2. **Truncation is detected.** A `v2` file ends in an `end
//!    <line-count>` trailer, so a file cut at any section boundary, in
//!    the middle of any section, or inside a line is rejected.
//! 3. **Atomic replacement.** The write goes through a sibling temp
//!    file renamed over the target, so a failed write leaves the
//!    previous checkpoint in place.
//! 4. **Old files still resume.** Two `v1` fixtures written before the
//!    trailer and before the eager sweep pruned its worker state (scale
//!    0.01, seed 2024, killed after round 3; sequential and 4 shards)
//!    restore and finish to the uninterrupted run's data and exhibits.

use std::path::PathBuf;

use spfail::prober::{
    CampaignBuilder, CampaignData, CampaignState, Session, StreamedCampaign, TraceConfig,
};
use spfail::report::{all_exhibits, Context};
use spfail::world::{World, WorldConfig};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");

fn small(seed: u64) -> WorldConfig {
    WorldConfig {
        scale: 0.004,
        ..WorldConfig::small(seed)
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "spfail-checkpoint-format-{tag}-{}.ck",
        std::process::id()
    ))
}

/// Checkpoint `session` to a file and require the file to be exactly
/// the state's canonical text, with no temp file left behind.
fn assert_file_matches_state(session: &mut Session<'_>, tag: &str) {
    let path = temp_path(tag);
    session.checkpoint(&path).expect("write checkpoint");
    let written = std::fs::read_to_string(&path).expect("read checkpoint");
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(!PathBuf::from(tmp).exists(), "{tag}: temp file left behind");
    std::fs::remove_file(&path).ok();
    let state = session.to_state();
    assert_eq!(written, state.to_text(), "{tag}: file differs from to_text");
    assert_eq!(
        CampaignState::parse(&written).expect("checkpoint parses"),
        state,
        "{tag}"
    );
}

#[test]
fn checkpoint_file_is_the_state_text_in_every_engine() {
    for shards in [1usize, 4] {
        let world = World::generate(small(11));
        let builder = CampaignBuilder::new()
            .shards(shards)
            .trace(TraceConfig::enabled());
        let mut session = builder.session(&world);
        session.initial_sweep();
        assert_file_matches_state(&mut session, &format!("eager-{shards}-sweep"));
        session.advance_round();
        session.advance_round();
        assert_file_matches_state(&mut session, &format!("eager-{shards}-round2"));
    }
    let streamed = StreamedCampaign::sweep(
        CampaignBuilder::new()
            .shards(4)
            .trace(TraceConfig::enabled()),
        small(11),
    );
    let mut session = streamed
        .session()
        .expect("handoff state is self-consistent");
    assert_file_matches_state(&mut session, "streamed-sweep");
    session.advance_round();
    assert_file_matches_state(&mut session, "streamed-round1");
}

/// Every cut of `text` short of its end — at each section boundary, in
/// the middle of each section, and inside a line — is rejected.
fn assert_cuts_rejected(text: &str, label: &str) {
    assert!(
        CampaignState::parse(text).is_ok(),
        "{label}: whole file parses"
    );
    let lines: Vec<&str> = text.lines().collect();
    let keyword = |line: &str| line.split(' ').next().unwrap_or_default().to_string();
    let mut cuts = Vec::new();
    let mut start = 0;
    while start < lines.len() {
        let mut end = start + 1;
        while end < lines.len() && keyword(lines[end]) == keyword(lines[start]) {
            end += 1;
        }
        cuts.push(start);
        cuts.push(start + (end - start) / 2);
        start = end;
    }
    cuts.dedup();
    for cut in cuts {
        let truncated: String = lines[..cut].iter().flat_map(|l| [*l, "\n"]).collect();
        assert!(
            CampaignState::parse(&truncated).is_err(),
            "{label}: a cut before line {} ({:?}) was accepted",
            cut + 1,
            lines[cut]
        );
    }
    let mut mid = text.len() / 2;
    while !text.is_char_boundary(mid) {
        mid += 1;
    }
    assert!(
        CampaignState::parse(&text[..mid]).is_err(),
        "{label}: a cut inside a line was accepted"
    );
}

#[test]
fn truncated_checkpoints_are_rejected_at_every_section() {
    for shards in [1usize, 4] {
        let world = World::generate(small(2024));
        let mut session = CampaignBuilder::new()
            .shards(shards)
            .trace(TraceConfig::enabled())
            .session(&world);
        session.initial_sweep();
        for _ in 0..3 {
            session.advance_round();
        }
        let text = session.to_state().to_text();
        assert_cuts_rejected(&text, &format!("eager, {shards} shard(s)"));
    }
    let streamed = StreamedCampaign::sweep(
        CampaignBuilder::new()
            .shards(4)
            .trace(TraceConfig::enabled()),
        small(2024),
    );
    let mut session = streamed
        .session()
        .expect("handoff state is self-consistent");
    session.advance_round();
    let text = session.to_state().to_text();
    assert!(text.contains("\namask "), "the streamed text has mask rows");
    assert_cuts_rejected(&text, "streamed, 4 shards");
}

/// The reported reproduction: a sequential scale-0.01 checkpoint after
/// round 3, cut at a line boundary halfway through its `wocc` lines,
/// used to parse and restore into a campaign with different results.
#[test]
fn checkpoint_cut_inside_the_worker_section_is_rejected() {
    let world = World::generate(WorldConfig::small(2024));
    let mut session = CampaignBuilder::new().session(&world);
    session.initial_sweep();
    for _ in 0..3 {
        session.advance_round();
    }
    let text = session.to_state().to_text();
    let lines: Vec<&str> = text.lines().collect();
    let wocc: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("wocc "))
        .collect();
    assert!(wocc.len() >= 2, "the worker carries occurrence counters");
    let cut = wocc[wocc.len() / 2];
    let truncated: String = lines[..cut].iter().flat_map(|l| [*l, "\n"]).collect();
    let err = CampaignState::parse(&truncated).expect_err("a cut file must not parse");
    assert!(err.contains("truncated"), "unexpected error: {err}");
}

/// A prober keeps repetition counters for its current probe day only:
/// after each round, every `wocc` entry carries that round's day, in the
/// sequential and the sharded engine.
#[test]
fn worker_occurrences_hold_only_the_latest_round() {
    let world = World::generate(small(2024));
    for shards in [1, 3] {
        let mut session = CampaignBuilder::new().shards(shards).session(&world);
        session.initial_sweep();
        for _ in 0..4 {
            let day = session.advance_round().expect("rounds remain");
            let state = session.to_state();
            let days: Vec<u16> = state
                .workers
                .iter()
                .flat_map(|w| &w.occurrences)
                .map(|&((_, d, _, _), _)| d)
                .collect();
            assert!(
                !days.is_empty(),
                "{shards} shard(s): the round probed hosts"
            );
            assert!(
                days.iter().all(|&d| d == day),
                "{shards} shard(s), round day {day}: {days:?}"
            );
        }
    }
}

/// `text` with `extra` inserted after the first line `after` matches,
/// and the `end` trailer recounted so only the insertion is wrong.
fn insert_line(text: &str, after: impl Fn(&str) -> bool, extra: &str) -> String {
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.starts_with("end ")).collect();
    let at = lines.iter().position(|l| after(l)).expect("an anchor line");
    lines.insert(at + 1, extra);
    let mut out: String = lines.iter().flat_map(|l| [*l, "\n"]).collect();
    out.push_str(&format!("end {}\n", lines.len()));
    out
}

/// A sequential checkpoint after three rounds, as text.
fn round3_text() -> String {
    let world = World::generate(small(2024));
    let mut session = CampaignBuilder::new().session(&world);
    session.initial_sweep();
    for _ in 0..3 {
        session.advance_round();
    }
    session.to_state().to_text()
}

/// The reported reproduction: a second `init` line for host 1, placed
/// after host 2's, used to replace host 1's real result ("last line
/// wins"). Sweep rows must strictly ascend, so it is refused with its
/// line number, and the file does not restore.
#[test]
fn duplicated_init_host_is_rejected() {
    let text = round3_text();
    assert!(text.contains("\ninit 1 "), "host 1 has a real init line");
    let forged = insert_line(&text, |l| l.starts_with("init 2 "), "init 1 zzzz none 0 - 0 none");
    let line = forged
        .lines()
        .position(|l| l == "init 1 zzzz none 0 - 0 none")
        .expect("the forged line")
        + 1;
    let err = CampaignState::parse(&forged).expect_err("a duplicated host must not parse");
    assert!(err.starts_with(&format!("line {line}: ")), "unexpected error: {err}");

    let path = temp_path("duplicate-init");
    std::fs::write(&path, &forged).expect("write forged checkpoint");
    let world = World::generate(small(2024));
    let restored = Session::restore(&path, &world);
    std::fs::remove_file(&path).ok();
    assert!(restored.is_err(), "a duplicated host must not restore");

    // Out of order without a duplicate is refused too.
    let mut lines: Vec<&str> = text.lines().collect();
    let first = lines.iter().position(|l| l.starts_with("init ")).expect("init lines");
    lines.swap(first + 1, first + 2);
    let swapped: String = lines.iter().flat_map(|l| [*l, "\n"]).collect();
    assert!(CampaignState::parse(&swapped).is_err(), "swapped init lines must not parse");
}

/// Within one round, `st` lines must strictly ascend by host too: a
/// repeated host used to overwrite the first status silently.
#[test]
fn repeated_round_status_host_is_rejected() {
    let text = round3_text();
    let statuses: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("round "))
        .skip(1)
        .take_while(|l| l.starts_with("st "))
        .collect();
    assert!(statuses.len() >= 2, "the first round holds several statuses");
    let first = statuses[0];
    let forged = insert_line(&text, |l| l == statuses[1], first);
    let err = CampaignState::parse(&forged).expect_err("a repeated host must not parse");
    assert!(err.starts_with("line "), "unexpected error: {err}");
    // The same host in two different rounds is of course fine.
    assert!(CampaignState::parse(&text).is_ok());
}

#[test]
fn failed_write_leaves_the_previous_checkpoint_in_place() {
    let world = World::generate(small(77));
    let mut session = CampaignBuilder::new().session(&world);
    session.initial_sweep();
    let path = temp_path("atomic");
    session.checkpoint(&path).expect("first checkpoint");
    let before = std::fs::read_to_string(&path).expect("read checkpoint");

    // Block the temp file with a directory: the next write must fail
    // before it touches `path`.
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::create_dir(&tmp).expect("block the temp path");
    session.advance_round();
    let failed = session.checkpoint(&path);
    std::fs::remove_dir(&tmp).ok();
    assert!(
        failed.is_err(),
        "the write must fail while the temp path is blocked"
    );
    let after = std::fs::read_to_string(&path).expect("read checkpoint");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        before, after,
        "a failed write replaced the previous checkpoint"
    );
}

fn assert_same_exhibits(reference: CampaignData, resumed: CampaignData, label: &str) {
    let reference = all_exhibits(&Context::from_campaign(
        World::generate(WorldConfig::small(2024)),
        reference,
    ));
    let resumed = all_exhibits(&Context::from_campaign(
        World::generate(WorldConfig::small(2024)),
        resumed,
    ));
    assert_eq!(reference.len(), resumed.len(), "{label}");
    for (r, c) in reference.iter().zip(&resumed) {
        assert_eq!(r.id, c.id, "{label}");
        assert_eq!(r.rendered, c.rendered, "{label}: exhibit {} diverged", r.id);
        assert_eq!(
            serde_json::to_string(&r.json).expect("serialize"),
            serde_json::to_string(&c.json).expect("serialize"),
            "{label}: exhibit {} JSON diverged",
            r.id
        );
    }
}

/// `v1` files — no trailer, unpruned sweep state — resume to the
/// uninterrupted run. The fixtures were written by the engine before
/// the format change (see the module docs).
#[test]
fn v1_checkpoints_resume_to_the_uninterrupted_run() {
    for (shards, file) in [
        (1usize, "v1_sequential_round3.ck"),
        (4, "v1_shards4_round3.ck"),
    ] {
        let path = format!("{FIXTURES}/{file}");
        let text = std::fs::read_to_string(&path).expect("read fixture");
        assert!(
            text.starts_with("spfail-checkpoint v1\n"),
            "{file} is a v1 file"
        );
        assert!(!text.contains("\nend "), "{file} has no trailer");

        let world = World::generate(WorldConfig::small(2024));
        let reference = CampaignBuilder::new().shards(shards).run(&world);

        let world = World::generate(WorldConfig::small(2024));
        let mut session = Session::restore(&path, &world).expect("v1 fixture restores");
        assert_eq!(session.rounds_done(), 3, "{file}");
        while session.advance_round().is_some() {}
        let resumed = session.finish();
        assert_eq!(reference.data, resumed.data, "{file}");
        assert_same_exhibits(reference.data, resumed.data, file);
    }
}
