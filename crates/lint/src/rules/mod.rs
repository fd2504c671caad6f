//! The rule catalog. Most rules are pure functions over a [`FileCtx`];
//! `lock_order` feeds a global graph checked once per run, and
//! `interproc`/`checkpoint_coverage` run in the workspace phase over the
//! assembled call graph and symbol tables.
//!
//! [`FileCtx`]: crate::context::FileCtx

pub mod blocking_fetch;
pub mod charging;
pub mod checkpoint_coverage;
pub mod determinism;
pub mod fs_write;
pub mod hygiene;
pub mod interproc;
pub mod lock_across_call;
pub mod lock_order;
pub mod panic_safety;
pub mod rng_confinement;
