//! Simulated mail transfer agents.
//!
//! An [`Mta`] glues the substrates together into one probeable server: it
//! speaks SMTP through [`spfail_smtp::ServerSession`], and at the stage its
//! configuration dictates it runs SPF validation — parsing the policy it
//! fetches through the simulated DNS and expanding macros with whichever
//! [`MacroExpander`] implementation it is configured to "link against"
//! (compliant, vulnerable libSPF2, or one of the sloppy variants).
//!
//! Everything the paper's probes observe — which SMTP stage rejects, when
//! DNS queries fire, what shapes the queried names have, greylisting, and
//! eventual blacklisting of the prober — is produced by this crate.
//!
//! [`MacroExpander`]: spfail_spf::expand::MacroExpander

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod mta;

pub use config::{ConnectPolicy, MtaConfig, SmtpQuirk, SpfImpls, SpfStage};
pub use mta::{new_policy_cache, Mta, PolicyCacheHandle, ValidationRecord};
pub use spfail_smtp::Hostname;
