//! `teda-geo` — the geographic substrate.
//!
//! §5.2.2 of the paper disambiguates search-engine queries with spatial
//! information taken from the table itself: addresses are geocoded through
//! "online geocoding services such as the Google Geocoding API", which
//! "parses an address and breaks it down into different components, such as
//! street, city, state and country", each a geographic location in a
//! containment hierarchy. Ambiguous (partial) addresses yield several
//! candidate interpretations, which the paper resolves with a
//! PageRank-style voting graph over same-row/same-column candidates
//! sharing a geographic container.
//!
//! This crate provides all of it, offline:
//!
//! * [`gazetteer`] — the containment hierarchy (country ⊃ state ⊃ city ⊃
//!   street) with deliberately ambiguous toponyms, including every worked
//!   example from the paper's Figure 7 (Paris TX/TN/France, Washington
//!   DC/GA, College Park MD/GA, Pennsylvania Avenue in two cities);
//! * [`synthetic`] — a seeded generator for larger gazetteers with
//!   controlled name-collision rates;
//! * [`address`] — a loose postal-address parser (partial addresses are
//!   the norm in GFT tables, as the paper observes);
//! * [`geocoder`] — the [`geocoder::Geocoder`] trait and the simulated
//!   Google-Geocoding implementation charging virtual latency;
//! * [`mod@disambiguate`] — the §5.2.2 voting-graph algorithm;
//! * [`memo`] — batch-aware geocoding: a sharded single-flight memo so a
//!   corpus geocodes each distinct address once (the `QueryCache` trick
//!   applied to the geocoder).

pub mod address;
pub mod disambiguate;
pub mod gazetteer;
pub mod geocoder;
pub mod memo;
pub mod synthetic;

pub use address::ParsedAddress;
pub use disambiguate::{disambiguate, DisambiguationConfig, DisambiguationResult};
pub use gazetteer::{Gazetteer, Location, LocationId, LocationKind};
pub use geocoder::{Geocoder, SimGeocoder};
pub use memo::{GeocodeCache, GEO_MEMO_CAPACITY};
