//! # microblog-platform
//!
//! A synthetic microblogging platform — the substrate the SIGMOD'14 paper
//! ran against live Twitter / Google+ / Tumblr. Since the 2013 platforms
//! (and their Firehose-derived ground truth) are not available, this crate
//! simulates the closest equivalent that exercises the same code paths:
//!
//! * **Social graphs** ([`gen`]): directed follower graphs with power-law
//!   in-degrees (preferential attachment), planted community structure,
//!   plus Erdős–Rényi and Watts–Strogatz baselines. Community structure
//!   matters: the paper's level-by-level design exists *because* keywords
//!   propagate inside tightly-knit communities.
//! * **Keyword cascades** ([`cascade`]): an event-driven
//!   independent-cascade simulation in which adopters expose their
//!   followers, who adopt after a two-mode delay (≈92% react within an
//!   hour — the Sysomos retweet statistic the paper cites [3] — the rest
//!   after hours or days), plus spontaneous background adoption and
//!   configurable event spikes (e.g. "boston" on Apr 15 2013).
//! * **The platform store** ([`platform`]): users, posts, per-user
//!   timelines, keyword indexes and the *exact ground truth* for any
//!   aggregate ([`truth`]) against which estimators are scored.
//! * **Fault injection** ([`fault`]): a deterministic hostile-API wrapper
//!   ([`FaultyPlatform`]) behind the [`ApiBackend`] seam, injecting
//!   transient errors, rate limits, timeouts and truncated pages per a
//!   seeded [`FaultPlan`] — the test substrate for the resilience layer.
//! * **Scenarios** ([`scenario`]): preset "Twitter 2013"-style worlds with
//!   the keyword mix of the paper's evaluation (perpetually popular,
//!   low-frequency-with-spikes, single-event, obscure).
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cascade;
pub mod crash;
pub mod fault;
pub mod gen;
pub mod ids;
pub mod metric;
pub mod persist;
pub mod platform;
pub mod post;
pub mod scenario;
pub mod slow;
pub mod time;
pub mod truth;
pub mod user;

pub use backend::ApiBackend;
pub use crash::{
    crash_point, CrashInjector, CrashMode, CrashPlan, CRASH_PANIC_PREFIX, CRASH_POINTS,
};
pub use fault::{ApiEndpoint, Fault, FaultCounts, FaultPlan, FaultRates, FaultyPlatform};
pub use ids::{KeywordId, PostId, UserId};
pub use metric::UserMetric;
/// Id-keyed hash collections, re-exported so crates above the platform
/// use one hasher without depending on `microblog-graph` directly.
pub use microblog_graph::{IdMap, IdSet};
pub use platform::{Platform, PlatformBuilder};
pub use post::Post;
pub use slow::SlowBackend;
pub use time::{Duration, TimeWindow, Timestamp};
pub use user::{Gender, UserProfile};
