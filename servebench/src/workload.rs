//! The four workloads: a fixed catalog each, and request streams made
//! from the run's seed.
//!
//! A stream is a sequence of *passes*. Every pass of a connection has the
//! same length and the same mix of verbs, aggregates and deadlines; only
//! the regions (and, on `churn_corrpc`, the mutation boxes) are drawn
//! fresh from `(seed, connection, pass)`. A run replays whole passes, so a
//! faster layer changes how many passes fit in the run, never the mix.

use pc_core::{FrequencyConstraint, PcSet, PredicateConstraint, ValueConstraint};
use pc_datagen::intel::{self, cols, IntelConfig};
use pc_datagen::missing::remove_top_fraction;
use pc_datagen::pcgen;
use pc_datagen::queries::QueryGenerator;
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{render_query, table_from_csv, AggKind, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Client connections (and client threads) of every workload.
pub const CONNECTIONS: usize = 2;

/// The catalogs are fixed, so that a seed moves only the request streams
/// and every run of a workload serves the same constraint set.
const CATALOG_SEED: u64 = 0x5EED_CA7A;

/// `@timeout-ms` on `wire_small`'s timed share: far above any service
/// time there, so admission runs on the request path but never degrades.
const GENEROUS_TIMEOUT_MS: u64 = 5_000;

/// `@timeout-ms` on `deadline_randpc`'s timed share: about 20x the
/// untimed p99 (8-9 ms).
const DEADLINE_TIMEOUT_MS: u64 = 200;

/// One mutation after this many queries on `churn_corrpc`'s connection A.
const CHURN_QUERIES_PER_MUTATION: usize = 4;

/// The aggregate rotation of the random-region streams.
const AGGS: [AggKind; 5] = [
    AggKind::Sum,
    AggKind::Count,
    AggKind::Avg,
    AggKind::Max,
    AggKind::Min,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 15-constraint staggered catalog, 8 repeated SQL shapes, one
    /// tenant per connection, a quarter of the requests with a generous
    /// deadline.
    WireSmall,
    /// Rand-PC (60) on the Intel twin, fresh regions, no deadlines.
    EngineRandpc,
    /// `engine_randpc`'s catalog and stream with a 200 ms deadline on one
    /// request in four.
    DeadlineRandpc,
    /// Corr-PC (144) on the Intel twin; connection A mutates after every
    /// fourth query, connection B only queries.
    ChurnCorrpc,
}

/// A workload's catalog: the table the server resolves SQL and DSL
/// against, and the base constraint set every tenant starts from.
pub struct Catalog {
    /// Schema and dictionaries; on the Intel workloads also the missing
    /// rows the constraints summarize.
    pub table: Table,
    /// The epoch-0 constraint set.
    pub set: PcSet,
}

impl Workload {
    /// Every workload this program can run (`BENCHMARK.json` lists the
    /// steady ones; see `WORKLOADS.md`).
    pub const ALL: [Workload; 4] = [
        Workload::WireSmall,
        Workload::EngineRandpc,
        Workload::DeadlineRandpc,
        Workload::ChurnCorrpc,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::EngineRandpc => "engine_randpc",
            Workload::DeadlineRandpc => "deadline_randpc",
            Workload::ChurnCorrpc => "churn_corrpc",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tenant each connection uses.
    pub fn tenants(self) -> [&'static str; CONNECTIONS] {
        match self {
            Workload::WireSmall => ["default", "t1"],
            _ => ["default", "default"],
        }
    }

    /// How many times one run sets the server up; the median is reported.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::WireSmall => 41,
            _ => 5,
        }
    }

    /// Build the catalog. Deterministic; independent of the run's seed.
    pub fn catalog(self) -> Catalog {
        match self {
            Workload::WireSmall => {
                let schema = wire_schema();
                let table = table_from_csv(schema, "region,value\n1,5.0\n20,40.0\n")
                    .expect("the inline CSV parses");
                Catalog {
                    table,
                    set: serving_set(14),
                }
            }
            Workload::EngineRandpc | Workload::DeadlineRandpc => {
                let table = intel_missing();
                let mut rng = StdRng::seed_from_u64(CATALOG_SEED);
                let set = pcgen::rand_pc(&table, &[cols::DEVICE, cols::EPOCH], 60, &mut rng);
                Catalog { table, set }
            }
            Workload::ChurnCorrpc => {
                let table = intel_missing();
                let set = pcgen::corr_pc(&table, &[cols::DEVICE, cols::EPOCH], 144);
                Catalog { table, set }
            }
        }
    }

    /// The request lines of one pass of one connection. Pass 0 is the
    /// warm-up pass. Pure in `(seed, conn, pass)`.
    pub fn pass_lines(self, catalog: &Catalog, seed: u64, conn: usize, pass: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(mix(seed, conn as u64, pass));
        match self {
            Workload::WireSmall => {
                let sqls = wire_sqls();
                let mut lines: Vec<String> = (0..4 * sqls.len())
                    .map(|i| {
                        let sql = &sqls[i % sqls.len()];
                        if i < sqls.len() {
                            format!("bound @timeout-ms={GENEROUS_TIMEOUT_MS} {sql}")
                        } else {
                            format!("bound {sql}")
                        }
                    })
                    .collect();
                lines.shuffle(&mut rng);
                lines
            }
            Workload::EngineRandpc | Workload::DeadlineRandpc => {
                let generator =
                    QueryGenerator::from_table(&catalog.table, &[cols::DEVICE, cols::EPOCH]);
                (0..20)
                    .map(|i| {
                        let query =
                            generator.gen_query(AGGS[i % AGGS.len()], cols::LIGHT, &mut rng);
                        let sql = render_query(&catalog.table, &query);
                        if self == Workload::DeadlineRandpc && i % 4 == 0 {
                            format!("bound @timeout-ms={DEADLINE_TIMEOUT_MS} {sql}")
                        } else {
                            format!("bound {sql}")
                        }
                    })
                    .collect()
            }
            Workload::ChurnCorrpc => {
                let generator =
                    QueryGenerator::from_table(&catalog.table, &[cols::DEVICE, cols::EPOCH]);
                let queries = 3 * CHURN_QUERIES_PER_MUTATION;
                let mut lines = Vec::new();
                // Ids are predictable because only connection A mutates:
                // every pass adds one constraint, replaces it, and retires
                // the replacement, so pass `p` uses ids base+2p, base+2p+1.
                let added = catalog.set.len() as u64 + 2 * pass;
                for i in 0..queries {
                    let query = generator.gen_query(AGGS[i % AGGS.len()], cols::LIGHT, &mut rng);
                    lines.push(format!("bound {}", render_query(&catalog.table, &query)));
                    if conn == 0 && (i + 1) % CHURN_QUERIES_PER_MUTATION == 0 {
                        lines.push(match (i + 1) / CHURN_QUERIES_PER_MUTATION {
                            1 => format!("+ {}", churn_box(&catalog.table, &mut rng)),
                            2 => {
                                format!("replace c{added} {}", churn_box(&catalog.table, &mut rng))
                            }
                            _ => format!("- c{}", added + 1),
                        });
                    }
                }
                lines
            }
        }
    }
}

/// SplitMix64 finalizer over the three stream coordinates.
fn mix(seed: u64, conn: u64, pass: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(conn.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(pass.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Intel twin's missing partition: 20k rows, the top 20% by `light`.
fn intel_missing() -> Table {
    let full = intel::generate(IntelConfig {
        rows: 20_000,
        ..IntelConfig::default()
    });
    remove_top_fraction(&full, cols::LIGHT, 0.2).0
}

fn wire_schema() -> Schema {
    Schema::new(vec![("region", AttrType::Int), ("value", AttrType::Float)])
}

/// The staggered serving catalog of `benches/query_throughput.rs`
/// (`serving_set`): `n` region windows, every third a narrow frequency
/// floor, plus a catch-all cap that closes the set.
fn serving_set(n: usize) -> PcSet {
    let mut set = PcSet::new(wire_schema());
    for i in 0..n {
        let lo = (i * 5 % 23) as f64;
        let (hi, freq) = if i % 3 == 0 {
            (
                lo + 3.0,
                FrequencyConstraint::between(2, 15 + (i % 7) as u64),
            )
        } else {
            (
                lo + 9.0 + (i % 4) as f64,
                FrequencyConstraint::at_most(15 + (i % 7) as u64),
            )
        };
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, lo, hi)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 40.0 + 10.0 * (i % 6) as f64)),
            freq,
        ));
    }
    set.push(PredicateConstraint::new(
        Predicate::always(),
        ValueConstraint::none().with(1, Interval::closed(0.0, 100.0)),
        FrequencyConstraint::at_most(200),
    ));
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, 40.0));
    domain.set_interval(1, Interval::closed(0.0, 100.0));
    set.set_domain(domain);
    set
}

/// The 8 SQL shapes of `wire_small` (the `serve_net` replay mix).
fn wire_sqls() -> Vec<String> {
    (0..8)
        .map(|i| {
            let lo = (i * 7 % 29) as f64;
            let hi = lo + 6.0 + (i % 5) as f64;
            let agg = match i % 4 {
                0 => "SUM(value)",
                1 => "COUNT(*)",
                2 => "AVG(value)",
                _ => "MAX(value)",
            };
            format!("SELECT {agg} WHERE region BETWEEN {lo} AND {hi}")
        })
        .collect()
}

/// A random integer box over (device, epoch) with the exact statistics of
/// the rows inside it, in DSL notation: it holds on the data, and it
/// overlaps the Corr-PC grid cells it crosses.
fn churn_box(missing: &Table, rng: &mut StdRng) -> String {
    let schema = missing.schema();
    let mut bounds = Vec::new();
    for attr in [cols::DEVICE, cols::EPOCH] {
        let (dlo, dhi) = missing
            .attr_range(attr)
            .expect("the missing rows are not empty");
        let span = dhi - dlo;
        let width = (span * rng.gen_range(0.05..0.5)).round().max(1.0);
        let lo = (dlo + rng.gen_range(0.0..(span - width).max(1.0))).floor();
        bounds.push((attr, lo, lo + width));
    }
    let predicate = bounds
        .iter()
        .map(|&(attr, lo, hi)| format!("{} BETWEEN {lo} AND {hi}", schema.attr_name(attr)))
        .collect::<Vec<_>>()
        .join(" AND ");
    let width = schema.width();
    let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); width];
    let mut count = 0u64;
    let mut row = vec![0.0; width];
    for r in 0..missing.len() {
        missing.encode_row_into(r, &mut row);
        if bounds
            .iter()
            .all(|&(attr, lo, hi)| (lo..=hi).contains(&row[attr]))
        {
            count += 1;
            for (range, &v) in ranges.iter_mut().zip(&row) {
                *range = (range.0.min(v), range.1.max(v));
            }
        }
    }
    let values = if count == 0 {
        "TRUE".to_string()
    } else {
        ranges
            .iter()
            .enumerate()
            .map(|(attr, (lo, hi))| format!("{} BETWEEN {lo} AND {hi}", schema.attr_name(attr)))
            .collect::<Vec<_>>()
            .join(" AND ")
    };
    format!("{predicate} => {values}, ({count}, {count})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for workload in Workload::ALL {
            let catalog = workload.catalog();
            for conn in 0..CONNECTIONS {
                for pass in [0, 1, 7] {
                    let a = workload.pass_lines(&catalog, 42, conn, pass).join("\n");
                    let b = workload.pass_lines(&catalog, 42, conn, pass).join("\n");
                    assert_eq!(a.as_bytes(), b.as_bytes(), "{}", workload.name());
                    let other = workload.pass_lines(&catalog, 43, conn, pass).join("\n");
                    assert_ne!(
                        a,
                        other,
                        "{}: the seed must move the stream",
                        workload.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_pass_has_the_same_mix() {
        let shape = |line: &str| {
            let verb = line.split_whitespace().next().unwrap_or("").to_string();
            let agg = ["SUM", "COUNT", "AVG", "MAX", "MIN"]
                .into_iter()
                .find(|a| line.contains(&format!("SELECT {a}(")));
            (verb, line.contains("@timeout-ms"), agg)
        };
        for workload in Workload::ALL {
            let catalog = workload.catalog();
            for conn in 0..CONNECTIONS {
                let mut first: Vec<_> = workload
                    .pass_lines(&catalog, 1, conn, 1)
                    .iter()
                    .map(|l| shape(l))
                    .collect();
                let mut later: Vec<_> = workload
                    .pass_lines(&catalog, 9, conn, 5)
                    .iter()
                    .map(|l| shape(l))
                    .collect();
                first.sort();
                later.sort();
                assert_eq!(first, later, "{} conn {conn}", workload.name());
            }
        }
    }

    #[test]
    fn churn_mutations_parse_and_hold_on_the_data() {
        let catalog = Workload::ChurnCorrpc.catalog();
        assert_eq!(catalog.set.len(), 144);
        for line in Workload::ChurnCorrpc.pass_lines(&catalog, 3, 0, 2) {
            let text = match line.split_once(' ') {
                Some(("+", text)) => text,
                Some(("replace", rest)) => rest.split_once(' ').expect("id and box").1,
                _ => continue,
            };
            let pc = pc_core::dsl::parse_constraint(&catalog.table, text).expect("box parses");
            let mut one = PcSet::new(catalog.table.schema().clone());
            one.push(pc);
            assert!(
                one.validate(&catalog.table).is_empty(),
                "`{text}` must hold"
            );
        }
    }
}
