//! SMTP server replies.

use std::fmt;

use crate::address::EmailAddress;

/// The broad class of a reply code (its first digit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyCategory {
    /// 2xx — success.
    Success,
    /// 3xx — intermediate (354 after `DATA`).
    Intermediate,
    /// 4xx — transient failure (greylisting lives here).
    TransientFailure,
    /// 5xx — permanent failure.
    PermanentFailure,
    /// Anything else (never sent by a conforming server).
    Unknown,
}

/// A server's hostname as its banner and greeting name it. `Copy`, so a
/// session and its replies carry it by value; a numbered name is
/// rendered only when a reply is written out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hostname {
    /// A fixed name, e.g. `mx.example.test`.
    Fixed(&'static str),
    /// `<prefix><number>.<domain>`, e.g. `mx42.com`.
    Numbered {
        /// Text before the number.
        prefix: &'static str,
        /// The number.
        number: u32,
        /// The domain after the dot.
        domain: &'static str,
    },
}

impl From<&'static str> for Hostname {
    fn from(name: &'static str) -> Hostname {
        Hostname::Fixed(name)
    }
}

impl fmt::Display for Hostname {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hostname::Fixed(name) => f.write_str(name),
            Hostname::Numbered {
                prefix,
                number,
                domain,
            } => write!(f, "{prefix}{number}.{domain}"),
        }
    }
}

/// A server reply: a three-digit code plus one or more text lines.
///
/// The standard replies hold static text, or the hostname or sender they
/// name, and render it only when [`Reply::to_wire`] or `Display` asks, so
/// building one allocates nothing. Replies compare by their wire form.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The reply code, e.g. 250.
    pub code: u16,
    text: Text,
}

/// The text lines of a [`Reply`].
#[derive(Debug, Clone)]
enum Text {
    /// One fixed line.
    Static(&'static str),
    /// `<host> ESMTP ready`.
    Banner(Hostname),
    /// `<host> greets you`, then `SIZE <limit>`.
    Greeting(Hostname),
    /// `SPF check failed for <sender domain>: sender not authorized`.
    SpfRejected(EmailAddress),
    /// Caller-supplied or parsed lines; multi-line replies use `250-...`
    /// continuation on the wire.
    Lines(Vec<String>),
}

impl Text {
    fn line_count(&self) -> usize {
        match self {
            Text::Greeting(_) => 2,
            Text::Lines(lines) => lines.len(),
            _ => 1,
        }
    }

    /// Write line `i` (0-based); lines past the end are empty.
    fn write_line(&self, i: usize, f: &mut impl fmt::Write) -> fmt::Result {
        match (self, i) {
            (Text::Static(text), 0) => f.write_str(text),
            (Text::Banner(host), 0) => write!(f, "{host} ESMTP ready"),
            (Text::Greeting(host), 0) => write!(f, "{host} greets you"),
            (Text::Greeting(_), 1) => {
                write!(f, "SIZE {}", crate::session::MAX_MESSAGE_SIZE)
            }
            (Text::SpfRejected(sender), 0) => write!(
                f,
                "SPF check failed for {}: sender not authorized",
                sender.domain()
            ),
            (Text::Lines(lines), i) => f.write_str(lines.get(i).map_or("", String::as_str)),
            _ => Ok(()),
        }
    }
}

impl Reply {
    /// A single-line reply with caller-supplied text (copied).
    pub fn new(code: u16, text: &str) -> Reply {
        Reply {
            code,
            text: Text::Lines(vec![text.to_string()]),
        }
    }

    /// A single-line reply with fixed text.
    pub fn fixed(code: u16, text: &'static str) -> Reply {
        Reply {
            code,
            text: Text::Static(text),
        }
    }

    /// 220 service-ready banner.
    pub fn banner(host: impl Into<Hostname>) -> Reply {
        Reply {
            code: 220,
            text: Text::Banner(host.into()),
        }
    }

    /// 250 OK.
    pub fn ok() -> Reply {
        Reply::fixed(250, "OK")
    }

    /// 250 greeting response to EHLO, advertising no extensions.
    pub fn ehlo_ok(host: impl Into<Hostname>) -> Reply {
        Reply {
            code: 250,
            text: Text::Greeting(host.into()),
        }
    }

    /// 354 start-mail-input.
    pub fn start_mail_input() -> Reply {
        Reply::fixed(354, "Start mail input; end with <CRLF>.<CRLF>")
    }

    /// 221 closing.
    pub fn closing() -> Reply {
        Reply::fixed(221, "Bye")
    }

    /// 421 service not available (also used when blacklisting probers).
    pub fn service_unavailable() -> Reply {
        Reply::fixed(421, "Service not available, closing transmission channel")
    }

    /// 450 mailbox unavailable (greylisting).
    pub fn greylisted() -> Reply {
        Reply::fixed(450, "Greylisted, try again later")
    }

    /// 550 mailbox unavailable.
    pub fn mailbox_unavailable() -> Reply {
        Reply::fixed(550, "No such user here")
    }

    /// 550 rejected by SPF policy, in the style of real MTA rejections,
    /// naming `sender`'s domain.
    pub fn spf_rejected(sender: &EmailAddress) -> Reply {
        Reply {
            code: 550,
            text: Text::SpfRejected(sender.clone()),
        }
    }

    /// 503 bad sequence of commands.
    pub fn bad_sequence() -> Reply {
        Reply::fixed(503, "Bad sequence of commands")
    }

    /// 500 syntax error.
    pub fn syntax_error() -> Reply {
        Reply::fixed(500, "Syntax error, command unrecognized")
    }

    /// The category of this reply.
    pub fn category(&self) -> ReplyCategory {
        match self.code / 100 {
            2 => ReplyCategory::Success,
            3 => ReplyCategory::Intermediate,
            4 => ReplyCategory::TransientFailure,
            5 => ReplyCategory::PermanentFailure,
            _ => ReplyCategory::Unknown,
        }
    }

    /// Whether the reply is a success (2xx).
    pub fn is_positive(&self) -> bool {
        self.category() == ReplyCategory::Success
    }

    /// Whether the reply is any failure (4xx/5xx).
    pub fn is_failure(&self) -> bool {
        matches!(
            self.category(),
            ReplyCategory::TransientFailure | ReplyCategory::PermanentFailure
        )
    }

    /// Render the reply in wire form (with CRLFs and continuation dashes).
    pub fn to_wire(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let count = self.text.line_count();
        for i in 0..count {
            let sep = if i + 1 == count { ' ' } else { '-' };
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{}{}", self.code, sep);
            let _ = self.text.write_line(i, &mut out);
            out.push_str("\r\n");
        }
        out
    }

    /// Parse a wire-form reply (one or more lines).
    pub fn parse(wire: &str) -> Option<Reply> {
        let mut code = None;
        let mut lines = Vec::new();
        for raw in wire.split("\r\n").filter(|l| !l.is_empty()) {
            if raw.len() < 4 {
                return None;
            }
            let this_code: u16 = raw[..3].parse().ok()?;
            if *code.get_or_insert(this_code) != this_code {
                return None;
            }
            lines.push(raw[4..].to_string());
        }
        Some(Reply {
            code: code?,
            text: Text::Lines(lines),
        })
    }

    /// Approximate wire size, for link accounting.
    pub fn wire_size(&self) -> usize {
        self.to_wire().len()
    }
}

impl PartialEq for Reply {
    fn eq(&self, other: &Reply) -> bool {
        self.code == other.code && self.to_wire() == other.to_wire()
    }
}

impl Eq for Reply {}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.code)?;
        self.text.write_line(0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(Reply::ok().category(), ReplyCategory::Success);
        assert_eq!(
            Reply::start_mail_input().category(),
            ReplyCategory::Intermediate
        );
        assert_eq!(
            Reply::greylisted().category(),
            ReplyCategory::TransientFailure
        );
        assert_eq!(
            Reply::mailbox_unavailable().category(),
            ReplyCategory::PermanentFailure
        );
        assert!(Reply::ok().is_positive());
        assert!(Reply::greylisted().is_failure());
        assert!(!Reply::start_mail_input().is_failure());
    }

    #[test]
    fn single_line_wire_round_trip() {
        let r = Reply::new(250, "OK");
        assert_eq!(r.to_wire(), "250 OK\r\n");
        assert_eq!(Reply::parse(&r.to_wire()), Some(r));
    }

    #[test]
    fn multi_line_wire_round_trip() {
        let r = Reply::ehlo_ok("mx.example.com");
        let wire = r.to_wire();
        assert!(wire.starts_with("250-mx.example.com greets you\r\n"));
        assert!(wire.ends_with("250 SIZE 10485760\r\n"));
        assert_eq!(Reply::parse(&wire), Some(r));
    }

    #[test]
    fn mismatched_codes_rejected() {
        assert_eq!(Reply::parse("250-a\r\n550 b\r\n"), None);
        assert_eq!(Reply::parse("xx\r\n"), None);
        assert_eq!(Reply::parse(""), None);
    }

    /// The rendering of the former `Reply { code, lines: Vec<String> }`.
    fn old_wire(code: u16, lines: &[&str]) -> String {
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            let sep = if i + 1 == lines.len() { ' ' } else { '-' };
            out.push_str(&format!("{code}{sep}{line}\r\n"));
        }
        out
    }

    #[test]
    fn constructors_render_as_the_owned_lines_did() {
        let numbered = Hostname::Numbered {
            prefix: "mx",
            number: 4711,
            domain: "de",
        };
        let sender = EmailAddress::parse("mmj7yzdm0tbk@k7q2.s1.spf-test.dns-lab.org").unwrap();
        let cases: Vec<(Reply, u16, Vec<&str>)> = vec![
            (Reply::new(250, "free text"), 250, vec!["free text"]),
            (
                Reply::fixed(554, "Transaction failed"),
                554,
                vec!["Transaction failed"],
            ),
            (Reply::banner("mx.test"), 220, vec!["mx.test ESMTP ready"]),
            (Reply::banner(numbered), 220, vec!["mx4711.de ESMTP ready"]),
            (Reply::ok(), 250, vec!["OK"]),
            (
                Reply::ehlo_ok("mx.test"),
                250,
                vec!["mx.test greets you", "SIZE 10485760"],
            ),
            (
                Reply::ehlo_ok(numbered),
                250,
                vec!["mx4711.de greets you", "SIZE 10485760"],
            ),
            (
                Reply::start_mail_input(),
                354,
                vec!["Start mail input; end with <CRLF>.<CRLF>"],
            ),
            (Reply::closing(), 221, vec!["Bye"]),
            (
                Reply::service_unavailable(),
                421,
                vec!["Service not available, closing transmission channel"],
            ),
            (
                Reply::greylisted(),
                450,
                vec!["Greylisted, try again later"],
            ),
            (Reply::mailbox_unavailable(), 550, vec!["No such user here"]),
            (
                Reply::spf_rejected(&sender),
                550,
                vec!["SPF check failed for k7q2.s1.spf-test.dns-lab.org: sender not authorized"],
            ),
            (Reply::bad_sequence(), 503, vec!["Bad sequence of commands"]),
            (
                Reply::syntax_error(),
                500,
                vec!["Syntax error, command unrecognized"],
            ),
        ];
        for (reply, code, lines) in cases {
            assert_eq!(reply.code, code);
            assert_eq!(reply.to_wire(), old_wire(code, &lines));
            assert_eq!(reply.to_string(), format!("{code} {}", lines[0]));
            assert_eq!(reply.wire_size(), old_wire(code, &lines).len());
            assert_eq!(Reply::parse(&reply.to_wire()), Some(reply));
        }
    }

    #[test]
    fn display_shows_code_and_first_line() {
        assert_eq!(Reply::banner("mx.test").to_string(), "220 mx.test ESMTP ready");
    }
}
