//! SMTP substrate for the SPFail reproduction (RFC 5321 subset).
//!
//! The paper's probes are ordinary SMTP conversations: connect, `EHLO`,
//! `MAIL FROM`, `RCPT TO`, and then either abort before `DATA` completes
//! (the **NoMsg** test) or transmit an entirely empty message (the
//! **BlankMsg** test). This crate implements the protocol pieces both sides
//! need, sans-IO:
//!
//! * [`address`] — email addresses and reverse-paths.
//! * [`command`] — client commands, parsing and formatting.
//! * [`reply`] — server replies with standard codes.
//! * [`session`] — the server-side state machine with policy hooks.
//! * [`client`] — transaction plans the prober executes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod client;
pub mod command;
pub mod reply;
pub mod session;

pub use address::{AddressError, EmailAddress};
pub use client::{TransactionOutcome, TransactionPlan, TransactionStep};
pub use command::Command;
pub use reply::{Hostname, Reply, ReplyCategory};
pub use session::{ServerPolicy, ServerSession, SessionEvent, SessionState};
