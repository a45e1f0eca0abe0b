//! The pre-compiled entity catalogue (the Yago ∪ DBpedia ∪ Freebase
//! stand-in).
//!
//! §1: "we verified that only 22% of the entities in our dataset of tables
//! are actually represented in either Yago, DBpedia or Freebase". The
//! catalogue-based annotators the paper positions itself against (Limaye
//! et al., §2/§6.3) can only annotate entities present in such a catalogue;
//! this type reproduces that constraint with a configurable coverage
//! fraction so the comparison and coverage experiments have a controlled
//! knob.

use std::collections::HashMap;

use rand::seq::SliceRandom;

use teda_simkit::{derive_seed, rng_from_seed};
use teda_text::similarity::{normalize_name, normalize_name_cow};

use crate::entity::EntityId;
use crate::types::EntityType;
use crate::world::World;

/// A partial catalogue: normalized entity name → (entity, type) entries.
#[derive(Debug, Clone, Default)]
pub struct Catalogue {
    entries: HashMap<String, Vec<(EntityId, EntityType)>>,
    n_entities: usize,
}

impl Catalogue {
    /// Samples a catalogue covering `coverage` of each target type of
    /// `world` (deterministic per seed). `coverage = 0.22` reproduces the
    /// paper's §1 statistic.
    pub fn sample(world: &World, coverage: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&coverage), "coverage in [0,1]");
        let mut rng = rng_from_seed(derive_seed(seed, "catalogue"));
        let mut cat = Catalogue::default();
        for &etype in &EntityType::TARGETS {
            let mut ids = world.entities_of(etype).to_vec();
            ids.shuffle(&mut rng);
            let keep = (ids.len() as f64 * coverage).round() as usize;
            for &id in &ids[..keep.min(ids.len())] {
                cat.insert(world.entity(id).name.as_str(), id, etype);
            }
        }
        cat
    }

    /// Inserts one entry.
    pub fn insert(&mut self, name: &str, id: EntityId, etype: EntityType) {
        self.entries
            .entry(normalize_name(name))
            .or_default()
            .push((id, etype));
        self.n_entities += 1;
    }

    /// Looks up a name (normalized); returns all known entities bearing it.
    ///
    /// Already-normalized names take a zero-allocation path; callers that
    /// look the same cell content up repeatedly should normalize once and
    /// use [`lookup_normalized`](Self::lookup_normalized).
    pub fn lookup(&self, name: &str) -> &[(EntityId, EntityType)] {
        self.lookup_normalized(normalize_name_cow(name).as_ref())
    }

    /// Looks up a pre-normalized name (as produced by
    /// [`normalize_name`]) without
    /// re-normalizing — the annotators' hot path.
    pub fn lookup_normalized(&self, normalized: &str) -> &[(EntityId, EntityType)] {
        self.entries.get(normalized).map_or(&[], Vec::as_slice)
    }

    /// Whether any entity with this name is catalogued.
    pub fn contains(&self, name: &str) -> bool {
        !self.lookup(name).is_empty()
    }

    /// The single type recorded for `name`, if unambiguous in the
    /// catalogue.
    pub fn unambiguous_type(&self, name: &str) -> Option<EntityType> {
        let hits = self.lookup(name);
        let first = hits.first()?.1;
        hits.iter().all(|&(_, t)| t == first).then_some(first)
    }

    /// Number of catalogued entities.
    pub fn len(&self) -> usize {
        self.n_entities
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.n_entities == 0
    }

    /// Measured coverage of the catalogue over the entities of `etype`.
    pub fn coverage_of(&self, world: &World, etype: EntityType) -> f64 {
        let ids = world.entities_of(etype);
        if ids.is_empty() {
            return 0.0;
        }
        let known = ids
            .iter()
            .filter(|&&id| {
                self.lookup(&world.entity(id).name)
                    .iter()
                    .any(|&(cid, _)| cid == id)
            })
            .count();
        known as f64 / ids.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldSpec;

    #[test]
    fn coverage_is_respected() {
        let w = World::generate(WorldSpec::tiny(), 42);
        let cat = Catalogue::sample(&w, 0.22, 42);
        for t in [
            EntityType::Restaurant,
            EntityType::Museum,
            EntityType::Actor,
        ] {
            let cov = cat.coverage_of(&w, t);
            assert!(
                (cov - 0.22).abs() < 0.08,
                "{t}: coverage {cov} too far from 0.22"
            );
        }
    }

    #[test]
    fn full_coverage_catalogue_knows_everyone() {
        let w = World::generate(WorldSpec::tiny(), 1);
        let cat = Catalogue::sample(&w, 1.0, 1);
        for t in EntityType::TARGETS {
            assert!((cat.coverage_of(&w, t) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_coverage_catalogue_is_empty() {
        let w = World::generate(WorldSpec::tiny(), 1);
        let cat = Catalogue::sample(&w, 0.0, 1);
        assert!(cat.is_empty());
        assert!(!cat.contains(&w.entities()[0].name));
    }

    #[test]
    fn lookup_is_name_normalized() {
        let w = World::generate(WorldSpec::tiny(), 2);
        let cat = Catalogue::sample(&w, 1.0, 2);
        let name = &w.entities_of(EntityType::Museum)[0];
        let museum_name = &w.entity(*name).name;
        assert!(cat.contains(&museum_name.to_uppercase()));
    }

    #[test]
    fn unambiguous_type_detection() {
        let mut cat = Catalogue::default();
        cat.insert("Melisse", EntityId(0), EntityType::Restaurant);
        assert_eq!(
            cat.unambiguous_type("melisse"),
            Some(EntityType::Restaurant)
        );
        cat.insert("Melisse", EntityId(1), EntityType::JazzLabel);
        assert_eq!(cat.unambiguous_type("melisse"), None);
        assert_eq!(cat.unambiguous_type("unknown"), None);
    }

    #[test]
    fn normalized_lookup_is_equivalent() {
        let mut cat = Catalogue::default();
        cat.insert("Musée du  Louvre", EntityId(0), EntityType::Museum);
        assert_eq!(cat.lookup("musée du louvre").len(), 1);
        assert_eq!(cat.lookup_normalized("musée du louvre").len(), 1);
        assert!(
            cat.lookup_normalized("Musée du  Louvre").is_empty(),
            "lookup_normalized must not normalize"
        );
        // the allocation-free path answers already-normal ASCII names
        cat.insert("Melisse", EntityId(1), EntityType::Restaurant);
        assert_eq!(cat.lookup("melisse"), cat.lookup_normalized("melisse"));
    }

    #[test]
    fn sampling_is_deterministic() {
        let w = World::generate(WorldSpec::tiny(), 3);
        let a = Catalogue::sample(&w, 0.5, 3);
        let b = Catalogue::sample(&w, 0.5, 3);
        assert_eq!(a.len(), b.len());
        for e in w.entities() {
            assert_eq!(a.contains(&e.name), b.contains(&e.name));
        }
    }
}
