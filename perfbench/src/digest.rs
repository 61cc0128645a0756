//! Stable 64-bit output digests, identical across processes, builds
//! and toolchains, so they can be committed as references. FNV-1a over
//! 8-byte little-endian words, so a 64 MB trace export digests in
//! milliseconds.

use std::fmt::{self, Write as _};

use spfail_prober::CampaignSummary;
use spfail_report::Exhibit;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A word-wise FNV-1a hasher that text can be formatted into.
pub struct Digest {
    state: u64,
    /// Bytes not yet forming a whole word.
    tail: [u8; 8],
    tail_len: usize,
    /// Bytes written in all.
    len: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            state: OFFSET,
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }

    fn word(&mut self, word: [u8; 8]) {
        self.state = (self.state ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.word(self.tail);
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.word(word);
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The digest of everything written, the length included.
    fn finish(mut self) -> u64 {
        let mut last = [0; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        self.word(last);
        self.word(self.len.to_le_bytes());
        self.state
    }

    /// Digest of raw bytes.
    pub fn bytes(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.update(bytes);
        d.finish()
    }

    /// Digest of an exhibit's rendered text and its JSON contents.
    pub fn exhibit(exhibit: &Exhibit) -> u64 {
        let mut d = Digest::new();
        d.update(exhibit.rendered.as_bytes());
        d.update(&[0]);
        let json = serde_json::to_string(&exhibit.json).unwrap_or_default();
        d.update(json.as_bytes());
        d.finish()
    }

    /// Digest of the campaign summary, with its hash maps in key order.
    pub fn summary(summary: &CampaignSummary) -> u64 {
        let mut d = Digest::new();
        // Formatting into a digest cannot fail.
        let _ = write_summary(&mut d, summary);
        d.finish()
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

fn write_summary(d: &mut Digest, s: &CampaignSummary) -> fmt::Result {
    for mask in &s.masks {
        write!(d, "{mask:x},")?;
    }
    write!(
        d,
        "\ntracked {:?}\nvulnerable {:?}\n",
        s.tracked, s.vulnerable_domains
    )?;
    for (day, statuses) in &s.rounds {
        let mut sorted: Vec<_> = statuses.iter().collect();
        sorted.sort_by_key(|(host, _)| host.0);
        writeln!(d, "round {day} {sorted:?}")?;
    }
    let mut snapshot: Vec<_> = s.snapshot.iter().collect();
    snapshot.sort_by_key(|(domain, _)| domain.0);
    write!(
        d,
        "snapshot {snapshot:?}\nethics {:?}\nnetwork {:?}\n",
        s.ethics, s.network
    )
}

#[cfg(test)]
mod tests {
    use super::Digest;

    #[test]
    fn digest_is_pinned_and_split_invariant() {
        // The committed references depend on these exact values.
        assert_eq!(Digest::bytes(b""), 0x0832_8807_b4eb_6fed);
        let text = b"the quick brown fox jumps over the lazy dog";
        let mut split = Digest::new();
        for part in text.chunks(3) {
            split.update(part);
        }
        assert_eq!(split.finish(), Digest::bytes(text));
        assert_ne!(Digest::bytes(b"a"), Digest::bytes(b"a\0"));
    }
}
