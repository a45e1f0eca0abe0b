//! `teda-simkit` — the deterministic simulation kit underpinning the whole
//! reproduction.
//!
//! The paper's pipeline talks to three remote services (the Bing search API,
//! the Google Geocoding API, DBpedia's SPARQL endpoint). All of them are
//! replaced by local simulations in this repository, and all of those
//! simulations share the primitives defined here:
//!
//! * [`clock::VirtualClock`] — a shared, monotonically increasing virtual
//!   time source. Simulated services *charge* latency into it instead of
//!   sleeping, so the §6.4 efficiency experiment reproduces the paper's
//!   latency-dominated running times in microseconds of real CPU time.
//! * [`clock::LatencyModel`] — seeded latency distributions (fixed, uniform,
//!   jittered) used by the simulated services.
//! * [`rng`] — stable seed derivation so every component of the fixture
//!   (world, web corpus, table set, classifier initialisation) is
//!   deterministic given one master seed, yet decorrelated across
//!   components.
//! * [`stats`] — the interpolated percentile and mean used by the
//!   experiment harness.
//! * [`tablefmt`] — a plain-text table renderer; every experiment binary
//!   prints paper-style tables through it.

pub mod clock;
pub mod rng;
pub mod stats;
pub mod tablefmt;

pub use clock::{LatencyModel, VirtualClock};
pub use rng::{derive_seed, rng_from_seed};
pub use tablefmt::TextTable;
