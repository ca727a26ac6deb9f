//! Seeded synthetic generator for the IRIS HEP ADL dataset.
//!
//! The real benchmark uses 53.4 M events from the 2012 CMS Run (17 GiB at
//! SF1), which is not redistributable here; this generator produces events
//! with the same schema (paper Fig. 1) and physics-plausible distributions so
//! the benchmark queries exercise identical logical structure:
//!
//! - particle multiplicities follow truncated Poisson-like distributions;
//! - transverse momenta are exponential with per-species means;
//! - pseudorapidity is Gaussian, azimuth uniform in [-π, π);
//! - a fraction of events contain a genuine Z → μ⁺μ⁻ decay whose invariant
//!   mass peaks at 91.2 GeV, so Q5's opposite-charge-pair selection has the
//!   selectivity shape of the original data;
//! - field names are upper-case, matching the engine's identifier folding.
//!
//! Everything is deterministic in the seed, so the interpreter, the translated
//! SQL, and the baselines all see bit-identical data.

use std::f64::consts::PI;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snowdb::storage::{ColumnDef, ColumnType};
use snowdb::variant::Object;
use snowdb::{Database, Variant};

/// Number of events at (re-based) Scale Factor 1. The paper's SF1 is 53.4 M
/// events; this laptop-scale rebase keeps the same sweep structure
/// (powers of two around SF1) at ~1/3000 of the cardinality, sized so the
/// full evaluation — including the interpreted baselines and the join-heavy
/// Q6 translation — completes in minutes on one core.
pub const SF1_EVENTS: usize = 16_384;

/// Z boson mass (GeV), used for the resonant di-muon pairs.
pub const Z_MASS: f64 = 91.2;

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdlConfig {
    pub events: usize,
    pub seed: u64,
    pub partition_rows: usize,
}

impl Default for AdlConfig {
    fn default() -> Self {
        AdlConfig { events: SF1_EVENTS, seed: 42, partition_rows: 4096 }
    }
}

impl AdlConfig {
    /// Configuration for a power-of-two scale factor relative to SF1
    /// (e.g. `-4` → SF 2⁻⁴).
    pub fn scale_factor_pow2(pow: i32) -> AdlConfig {
        let events = if pow >= 0 {
            SF1_EVENTS << pow
        } else {
            (SF1_EVENTS >> (-pow).min(16)).max(1)
        };
        AdlConfig { events, ..Default::default() }
    }

    /// Configuration for a given absolute event count.
    pub fn with_events(events: usize) -> AdlConfig {
        AdlConfig { events, ..Default::default() }
    }
}

/// The ADL table schema: typed scalar column for the event id, `VARIANT`
/// columns for nested entries — the multi-column staging of paper §III-C.
pub fn schema() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("EVENT", ColumnType::Int),
        ColumnDef::new("MET", ColumnType::Variant),
        ColumnDef::new("HLT", ColumnType::Variant),
        ColumnDef::new("MUON", ColumnType::Variant),
        ColumnDef::new("ELECTRON", ColumnType::Variant),
        ColumnDef::new("JET", ColumnType::Variant),
        ColumnDef::new("PHOTON", ColumnType::Variant),
        ColumnDef::new("TAU", ColumnType::Variant),
    ]
}

struct Sampler {
    rng: StdRng,
}

impl Sampler {
    fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        -mean * u.ln()
    }

    fn gauss(&mut self, mean: f64, sigma: f64) -> f64 {
        // Box-Muller.
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        mean + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
    }

    fn phi(&mut self) -> f64 {
        self.rng.gen_range(-PI..PI)
    }

    fn eta(&mut self) -> f64 {
        self.gauss(0.0, 1.4).clamp(-4.0, 4.0)
    }

    /// Truncated Poisson-ish multiplicity via inverse-ish geometric mixing.
    fn multiplicity(&mut self, mean: f64, max: usize) -> usize {
        let mut n = 0usize;
        let p = mean / (mean + 1.0);
        while n < max && self.rng.gen_bool(p) {
            n += 1;
        }
        n
    }

    fn charge(&mut self) -> i64 {
        if self.rng.gen_bool(0.5) {
            1
        } else {
            -1
        }
    }
}

/// The field names, allocated once per generation: every object clones
/// these `Arc`s instead of allocating its own copy of each key. The empty
/// array is shared the same way.
struct Keys {
    pt: Arc<str>,
    eta: Arc<str>,
    phi: Arc<str>,
    mass: Arc<str>,
    charge: Arc<str>,
    btag: Arc<str>,
    isomu24: Arc<str>,
    isomu17: Arc<str>,
    empty: Variant,
}

impl Keys {
    fn new() -> Keys {
        Keys {
            pt: Arc::from("PT"),
            eta: Arc::from("ETA"),
            phi: Arc::from("PHI"),
            mass: Arc::from("MASS"),
            charge: Arc::from("CHARGE"),
            btag: Arc::from("BTAG"),
            isomu24: Arc::from("ISOMU24"),
            isomu17: Arc::from("ISOMU17_ETA2P1_LOOSEISOPFTAU20"),
            empty: Variant::array(Vec::new()),
        }
    }

    /// An array of `items`; every empty one is the one shared empty array.
    fn array(&self, items: Vec<Variant>) -> Variant {
        match items.is_empty() {
            true => self.empty.clone(),
            false => Variant::array(items),
        }
    }
}

fn particle(k: &Keys, pt: f64, eta: f64, phi: f64, mass: f64, charge: i64) -> Variant {
    let mut o = Object::with_capacity(5);
    o.insert(k.pt.clone(), Variant::Float(round6(pt)));
    o.insert(k.eta.clone(), Variant::Float(round6(eta)));
    o.insert(k.phi.clone(), Variant::Float(round6(phi)));
    o.insert(k.mass.clone(), Variant::Float(round6(mass)));
    o.insert(k.charge.clone(), Variant::Int(charge));
    Variant::object(o)
}

fn jet(k: &Keys, s: &mut Sampler) -> Variant {
    let mut o = Object::with_capacity(5);
    o.insert(k.pt.clone(), Variant::Float(round6(15.0 + s.exp(35.0))));
    o.insert(k.eta.clone(), Variant::Float(round6(s.eta())));
    o.insert(k.phi.clone(), Variant::Float(round6(s.phi())));
    o.insert(k.mass.clone(), Variant::Float(round6(3.0 + s.exp(7.0))));
    o.insert(k.btag.clone(), Variant::Float(round6(s.rng.gen_range(0.0..1.0))));
    Variant::object(o)
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Generates one event's row (one value per schema column).
fn event_row(id: i64, s: &mut Sampler, k: &Keys) -> Vec<Variant> {
    // MET.
    let mut met = Object::with_capacity(2);
    met.insert(k.pt.clone(), Variant::Float(round6(s.exp(25.0))));
    met.insert(k.phi.clone(), Variant::Float(round6(s.phi())));

    // Trigger flags.
    let mut hlt = Object::with_capacity(2);
    hlt.insert(k.isomu24.clone(), Variant::Bool(s.rng.gen_bool(0.35)));
    hlt.insert(k.isomu17.clone(), Variant::Bool(s.rng.gen_bool(0.1)));

    // Muons: background plus an occasional resonant Z → μμ pair.
    let mut muons: Vec<Variant> = Vec::new();
    if s.rng.gen_bool(0.25) {
        // Build an opposite-charge pair with invariant mass ~ N(Z_MASS, 4):
        // m² = 2·pt1·pt2·(cosh Δη − cos Δφ) for (near-)massless particles.
        let m = s.gauss(Z_MASS, 4.0).max(20.0);
        let pt1 = 20.0 + s.exp(25.0);
        let eta1 = s.eta();
        let deta = s.gauss(0.0, 0.8);
        let eta2 = eta1 + deta;
        let c = s.rng.gen_range((deta.cosh() - 1.0).max(0.05)..deta.cosh() + 1.0);
        let pt2 = (m * m / (2.0 * pt1 * c)).clamp(3.0, 500.0);
        let cosdphi = deta.cosh() - (m * m) / (2.0 * pt1 * pt2);
        let dphi = cosdphi.clamp(-1.0, 1.0).acos();
        let phi1 = s.phi();
        let mut phi2 = phi1 + dphi;
        if phi2 > PI {
            phi2 -= 2.0 * PI;
        }
        let q = s.charge();
        muons.push(particle(k, pt1, eta1, phi1, 0.105658, q));
        muons.push(particle(k, pt2, eta2, phi2, 0.105658, -q));
    }
    for _ in 0..s.multiplicity(0.7, 4) {
        muons.push(particle(k, 3.0 + s.exp(15.0), s.eta(), s.phi(), 0.105658, s.charge()));
    }

    // Electrons.
    let mut electrons: Vec<Variant> = Vec::new();
    for _ in 0..s.multiplicity(0.6, 4) {
        electrons.push(particle(k, 3.0 + s.exp(14.0), s.eta(), s.phi(), 0.000511, s.charge()));
    }

    // Jets.
    let njets = s.multiplicity(2.2, 10);
    let jets: Vec<Variant> = (0..njets).map(|_| jet(k, s)).collect();

    // Photons and taus (lighter use in the queries, still populated).
    let photons: Vec<Variant> = (0..s.multiplicity(0.5, 3))
        .map(|_| particle(k, 2.0 + s.exp(12.0), s.eta(), s.phi(), 0.0, 0))
        .collect();
    let taus: Vec<Variant> = (0..s.multiplicity(0.3, 2))
        .map(|_| particle(k, 5.0 + s.exp(18.0), s.eta(), s.phi(), 1.77686, s.charge()))
        .collect();

    vec![
        Variant::Int(id),
        Variant::object(met),
        Variant::object(hlt),
        k.array(muons),
        k.array(electrons),
        k.array(jets),
        k.array(photons),
        k.array(taus),
    ]
}

/// Generates all events for a configuration.
pub fn generate_events(cfg: &AdlConfig) -> Vec<Vec<Variant>> {
    let mut s = Sampler { rng: StdRng::seed_from_u64(cfg.seed) };
    let keys = Keys::new();
    (0..cfg.events).map(|i| event_row(i as i64, &mut s, &keys)).collect()
}

/// Generates and loads the dataset into a database table.
pub fn load_into(db: &Database, table: &str, cfg: &AdlConfig) {
    let mut s = Sampler { rng: StdRng::seed_from_u64(cfg.seed) };
    let keys = Keys::new();
    db.load_table(
        table,
        schema(),
        (0..cfg.events).map(|i| event_row(i as i64, &mut s, &keys)),
        cfg.partition_rows,
    )
    .expect("schema arity is fixed");
}

/// Invariant mass of two (near-)massless particles, used by tests to validate
/// the generator's Z peak.
pub fn dimuon_mass(pt1: f64, eta1: f64, phi1: f64, pt2: f64, eta2: f64, phi2: f64) -> f64 {
    (2.0 * pt1 * pt2 * ((eta1 - eta2).cosh() - (phi1 - phi2).cos())).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_events(&AdlConfig { events: 50, seed: 7, partition_rows: 16 });
        let b = generate_events(&AdlConfig { events: 50, seed: 7, partition_rows: 16 });
        assert_eq!(a, b);
        let c = generate_events(&AdlConfig { events: 50, seed: 8, partition_rows: 16 });
        assert_ne!(a, c);
    }

    #[test]
    fn schema_matches_rows() {
        let rows = generate_events(&AdlConfig { events: 10, seed: 1, partition_rows: 16 });
        for r in &rows {
            assert_eq!(r.len(), schema().len());
            assert!(r[0].as_i64().is_some());
            assert!(r[1].as_object().unwrap().get("PT").is_some());
            assert!(r[3].as_array().is_some());
        }
    }

    #[test]
    fn z_peak_is_present() {
        let rows = generate_events(&AdlConfig { events: 2000, seed: 3, partition_rows: 512 });
        let mut in_window = 0usize;
        let mut with_pair = 0usize;
        for r in &rows {
            let muons = r[3].as_array().unwrap();
            for i in 0..muons.len() {
                for j in i + 1..muons.len() {
                    let (a, b) = (&muons[i], &muons[j]);
                    let qa = a.get_field("CHARGE").as_i64().unwrap();
                    let qb = b.get_field("CHARGE").as_i64().unwrap();
                    if qa + qb != 0 {
                        continue;
                    }
                    with_pair += 1;
                    let m = dimuon_mass(
                        a.get_field("PT").as_f64().unwrap(),
                        a.get_field("ETA").as_f64().unwrap(),
                        a.get_field("PHI").as_f64().unwrap(),
                        b.get_field("PT").as_f64().unwrap(),
                        b.get_field("ETA").as_f64().unwrap(),
                        b.get_field("PHI").as_f64().unwrap(),
                    );
                    if (60.0..120.0).contains(&m) {
                        in_window += 1;
                    }
                }
            }
        }
        // The resonant pairs must dominate the 60–120 window.
        assert!(with_pair > 200, "expected many OS pairs, got {with_pair}");
        assert!(
            in_window as f64 > 0.3 * with_pair as f64,
            "Z window too sparse: {in_window}/{with_pair}"
        );
    }

    #[test]
    fn multiplicities_are_bounded_and_varied() {
        let rows = generate_events(&AdlConfig { events: 500, seed: 5, partition_rows: 128 });
        let njets: Vec<usize> = rows.iter().map(|r| r[5].as_array().unwrap().len()).collect();
        assert!(njets.contains(&0));
        assert!(njets.iter().any(|&n| n >= 3));
        assert!(njets.iter().all(|&n| n <= 10));
    }

    #[test]
    fn load_into_creates_partitions() {
        let db = Database::new();
        load_into(&db, "hep", &AdlConfig { events: 100, seed: 1, partition_rows: 32 });
        let t = db.table("hep").unwrap();
        assert_eq!(t.row_count(), 100);
        assert_eq!(t.partitions().len(), 4);
    }
}
