//! Workload definitions: the instance each workload serves and the seeded
//! request stream it sends. The server receives only what is built here,
//! as CSV files and ndjson frames.

use dpcq::graph::datasets::DatasetProfile;
use dpcq::graph::queries;
use dpcq_wire::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads (see `NOTES.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReplayPipelined,
    FreshAnalysts,
    DurableWrites,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "replay_pipelined" => Some(Workload::ReplayPipelined),
            "fresh_analysts" => Some(Workload::FreshAnalysts),
            "durable_writes" => Some(Workload::DurableWrites),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayPipelined => "replay_pipelined",
            Workload::FreshAnalysts => "fresh_analysts",
            Workload::DurableWrites => "durable_writes",
        }
    }
}

/// Request classes. A class names what the request is expected to cost
/// the server; percentiles are attributed to classes in the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Set-up release (catalogue publish or cold warm-up).
    Warmup,
    /// Zipf-drawn replay of a catalogue key.
    Replay,
    /// Ego-network triangle count for a vertex not asked before (cold).
    EgoTriangle,
    /// Ego-network rectangle count for a vertex not asked before (cold).
    EgoRectangle,
    /// A Figure-2 shape at an ε not used before (warm family cache).
    NewEpsilon,
    /// Elastic release of a projected (`Q(x1)`) triangle query.
    ElasticProjection,
    /// Elastic release of a path query with an `x < c` comparison.
    ElasticComparison,
    /// A repeat of a key published earlier in the stream.
    Repeat,
    /// Triangle release over the mutated relation (fresh on a
    /// delta-patched cache).
    EdgeTriangle,
    /// Release over the untouched relation (kept by scoped invalidation).
    CoauthorReplay,
    /// `insert_batch` / `remove_batch` into `Edge`.
    Mutation,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Warmup => "warmup",
            Class::Replay => "replay",
            Class::EgoTriangle => "ego_triangle",
            Class::EgoRectangle => "ego_rectangle",
            Class::NewEpsilon => "new_epsilon",
            Class::ElasticProjection => "elastic_projection",
            Class::ElasticComparison => "elastic_comparison",
            Class::Repeat => "repeat",
            Class::EdgeTriangle => "edge_triangle",
            Class::CoauthorReplay => "coauthor_replay",
            Class::Mutation => "mutation",
        }
    }
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub enum Op {
    Release {
        principal: String,
        query: String,
        method: &'static str,
        epsilon: f64,
    },
    /// A batch mutation of `Edge`; every tuple is effective by
    /// construction (inserts are absent, removes present, no duplicates).
    Mutate { insert: bool, tuples: Vec<[i64; 2]> },
}

#[derive(Clone, Debug)]
pub struct Step {
    pub class: Class,
    pub op: Op,
}

impl Step {
    /// Whether the server is expected to answer from its release cache.
    pub fn expect_cached(&self) -> Option<bool> {
        match self.class {
            Class::Replay | Class::Repeat | Class::CoauthorReplay => Some(true),
            Class::Mutation => None,
            _ => Some(false),
        }
    }

    /// The ndjson request frame (without the trailing newline).
    pub fn frame(&self, id: u64) -> String {
        let id = Json::Int(i128::from(id));
        match &self.op {
            Op::Release {
                principal,
                query,
                method,
                epsilon,
            } => Json::obj([
                ("id", id),
                ("op", Json::Str("release".into())),
                ("principal", Json::Str(principal.clone())),
                ("query", Json::Str(query.clone())),
                ("method", Json::Str((*method).into())),
                ("epsilon", Json::Num(*epsilon)),
            ]),
            Op::Mutate { insert, tuples } => Json::obj([
                ("id", id),
                (
                    "op",
                    Json::Str(
                        if *insert {
                            "insert_batch"
                        } else {
                            "remove_batch"
                        }
                        .into(),
                    ),
                ),
                ("relation", Json::Str("Edge".into())),
                (
                    "tuples",
                    Json::Arr(
                        tuples
                            .iter()
                            .map(|t| Json::Arr(t.iter().map(|&v| Json::Int(v.into())).collect()))
                            .collect(),
                    ),
                ),
            ]),
        }
        .render_compact()
    }
}

/// A stored relation: name and its rows (both orientations of every
/// undirected edge).
pub struct Table {
    pub name: &'static str,
    pub rows: Vec<[i64; 2]>,
}

/// Everything one workload run needs.
pub struct Plan {
    pub tables: Vec<Table>,
    /// Warm-up requests sent one at a time during set-up.
    pub setup: Vec<Step>,
    /// Frames kept in flight on the connection during the timed phase.
    pub window: usize,
    /// `--budget` for the server (`None` = unmetered).
    pub budget: Option<f64>,
    /// Whether the server runs with a fresh `--data-dir`.
    pub durable: bool,
    pub stream: Stream,
}

fn directed_rows(profile: &DatasetProfile) -> (Vec<[i64; 2]>, usize) {
    let g = profile.generate();
    let mut rows = Vec::with_capacity(2 * g.num_edges());
    for (u, v) in g.edges() {
        rows.push([i64::from(u), i64::from(v)]);
        rows.push([i64::from(v), i64::from(u)]);
    }
    rows.sort_unstable();
    (rows, g.num_vertices())
}

fn profile(name: &str, scale: f64) -> DatasetProfile {
    DatasetProfile::by_name(name)
        .expect("dataset profile exists")
        .scaled(scale)
}

/// The four Figure-2 shapes over `relation`, as query text, in the
/// paper's order (triangle, 3-star, rectangle, 2-triangle).
pub fn figure2(relation: &str) -> Vec<String> {
    queries::all()
        .into_iter()
        .map(|(_, q)| q.to_string().replace("Edge(", &format!("{relation}(")))
        .collect()
}

fn release(class: Class, principal: &str, query: &str, method: &'static str, eps: f64) -> Step {
    Step {
        class,
        op: Op::Release {
            principal: principal.to_string(),
            query: query.to_string(),
            method,
            epsilon: eps,
        },
    }
}

/// ε values of the replay catalogue.
const CATALOGUE_EPS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

pub fn plan(workload: Workload, seed: u64) -> Plan {
    let rng = StdRng::seed_from_u64(seed ^ 0x5EB0_57A7_1DEA_u64);
    match workload {
        Workload::ReplayPipelined => {
            let (rows, _) = directed_rows(&profile("GrQc", 4.0));
            let mut setup = Vec::new();
            for q in figure2("Edge") {
                for method in ["residual", "elastic", "global"] {
                    for eps in CATALOGUE_EPS {
                        setup.push(release(Class::Warmup, "publisher", &q, method, eps));
                    }
                }
            }
            let stream = Stream::Replay(ReplayStream::new(&setup, rng));
            Plan {
                tables: vec![Table { name: "Edge", rows }],
                setup,
                window: 8,
                budget: None,
                durable: false,
                stream,
            }
        }
        Workload::FreshAnalysts => {
            let (rows, n) = directed_rows(&profile("GrQc", 4.0));
            let setup: Vec<Step> = figure2("Edge")
                .iter()
                .map(|q| release(Class::Warmup, "publisher", q, "residual", 1.0))
                .collect();
            let stream = Stream::Fresh(FreshStream::new(&rows, n, rng));
            Plan {
                tables: vec![Table { name: "Edge", rows }],
                setup,
                window: 1,
                budget: None,
                durable: false,
                stream,
            }
        }
        Workload::DurableWrites => {
            let (edge, n) = directed_rows(&profile("GrQc", 2.0));
            let (coauthor, _) = directed_rows(&profile("HepTh", 2.0));
            // Triangle and 3-star over both relations: the engine keeps
            // (and delta-patches) the `Edge` 3-star cache although the
            // stream only re-asks the `Edge` triangle, so that the fresh
            // pool is one class and its percentiles sit inside it.
            let edge_shapes = figure2("Edge");
            let coauthor_shapes: Vec<String> = figure2("Coauthor")[..2].to_vec();
            let mut setup = Vec::new();
            for q in edge_shapes[..2].iter().chain(&coauthor_shapes) {
                setup.push(release(Class::Warmup, "publisher", q, "residual", 1.0));
            }
            let stream = Stream::Durable(DurableStream::new(
                &edge,
                n,
                edge_shapes[0].clone(),
                coauthor_shapes,
                rng,
            ));
            Plan {
                tables: vec![
                    Table {
                        name: "Edge",
                        rows: edge,
                    },
                    Table {
                        name: "Coauthor",
                        rows: coauthor,
                    },
                ],
                setup,
                window: 1,
                budget: Some(1.0e6),
                durable: true,
                stream,
            }
        }
    }
}

/// A seeded request generator; `next` never fails and never runs dry.
pub enum Stream {
    Replay(ReplayStream),
    Fresh(FreshStream),
    Durable(DurableStream),
}

impl Stream {
    pub fn next_step(&mut self) -> Step {
        match self {
            Stream::Replay(s) => s.next_step(),
            Stream::Fresh(s) => s.next_step(),
            Stream::Durable(s) => s.next_step(),
        }
    }
}

/// Zipf(1.0) over the published catalogue: every answer is a replay.
pub struct ReplayStream {
    keys: Vec<Step>,
    cdf: Vec<f64>,
    rng: StdRng,
}

impl ReplayStream {
    fn new(catalogue: &[Step], mut rng: StdRng) -> Self {
        let mut keys: Vec<Step> = catalogue.to_vec();
        shuffle(&mut keys, &mut rng);
        let mut acc = 0.0;
        let cdf = (1..=keys.len())
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        ReplayStream { keys, cdf, rng }
    }

    fn next_step(&mut self) -> Step {
        let total = *self.cdf.last().expect("non-empty catalogue");
        let u = self.rng.gen::<f64>() * total;
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        let mut step = self.keys[i].clone();
        step.class = Class::Replay;
        if let Op::Release { principal, .. } = &mut step.op {
            *principal = "reader".into();
        }
        step
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// The class mix of `fresh_analysts`, one block of 20 requests: every
/// block holds exactly these counts in a seeded order, so class shares do
/// not drift between seeds.
const FRESH_BLOCK: [(Class, usize); 6] = [
    (Class::EgoTriangle, 7),
    (Class::EgoRectangle, 3),
    (Class::NewEpsilon, 4),
    (Class::ElasticProjection, 1),
    (Class::ElasticComparison, 2),
    (Class::Repeat, 3),
];

/// The next ego vertex and how many times the vertex list
/// has been used up before.
fn next_vertex(vertices: &[i64], next: &mut usize) -> (i64, usize) {
    let v = vertices[*next % vertices.len()];
    let pass = *next / vertices.len();
    *next += 1;
    (v, pass)
}

/// An ego-network query for vertex `v` over the given `Edge` atoms (the
/// term `v` stands for the vertex). A server fast enough to use up every
/// vertex within one run must still see only new keys, so odd passes over
/// the vertex list flip every atom (the relation is symmetric: same count,
/// same cost, another shape).
fn ego_query(v: i64, atoms: &[(&str, &str)], predicates: &str, pass: usize) -> String {
    let term = |t: &str| {
        if t == "v" {
            v.to_string()
        } else {
            t.to_string()
        }
    };
    let atoms: Vec<String> = atoms
        .iter()
        .map(|&(a, b)| {
            let (a, b) = (term(a), term(b));
            if pass.is_multiple_of(2) {
                format!("Edge({a}, {b})")
            } else {
                format!("Edge({b}, {a})")
            }
        })
        .collect();
    format!("Q(*) :- {}, {predicates}", atoms.join(", "))
}

/// ε of an ego release: 1.0 on the first two passes over the vertex list,
/// a new value on each later pair of passes.
fn ego_epsilon(pass: usize) -> f64 {
    1.0 + (pass / 2) as f64 / 1024.0
}

pub struct FreshStream {
    rng: StdRng,
    block: Vec<Class>,
    /// Vertices in seeded order; each is asked once per ego shape.
    tri_vertices: Vec<i64>,
    rect_vertices: Vec<i64>,
    tri_next: usize,
    rect_next: usize,
    /// Seeded start of the low-discrepancy walk over comparison constants.
    comparison_offset: f64,
    comparisons: usize,
    figure2: Vec<String>,
    n: usize,
    /// Fresh releases issued so far (the pool repeats draw from).
    published: Vec<Step>,
    issued: usize,
    new_epsilon: usize,
}

/// Golden-ratio additive recurrence: the `i`-th point of a seeded,
/// evenly spread sequence in `[0, 1)`.
fn spread_point(offset: f64, i: usize) -> f64 {
    (offset + i as f64 * 0.618_033_988_749_895).fract()
}

/// `items` (sorted by cost) reordered so that every prefix samples the
/// whole cost range evenly: a seeded golden-ratio walk, each item once.
/// Prefix means then barely depend on the seed, unlike a shuffle's.
fn spread_order<T: Copy>(items: &[T], offset: f64) -> Vec<T> {
    let mut used = vec![false; items.len()];
    let mut out = Vec::with_capacity(items.len());
    for i in 0..items.len() {
        let mut j = (spread_point(offset, i) * items.len() as f64) as usize;
        while used[j] {
            j = (j + 1) % items.len();
        }
        used[j] = true;
        out.push(items[j]);
    }
    out
}

impl FreshStream {
    fn new(rows: &[[i64; 2]], n: usize, mut rng: StdRng) -> Self {
        let mut degree = vec![0usize; n];
        for r in rows {
            degree[r[0] as usize] += 1;
        }
        let mut eligible: Vec<i64> = (0..n as i64).filter(|&v| degree[v as usize] >= 2).collect();
        eligible.sort_by_key(|&v| (degree[v as usize], v));
        let tri_vertices = spread_order(&eligible, rng.gen());
        let rect_vertices = spread_order(&eligible, rng.gen());
        let comparison_offset = rng.gen();
        FreshStream {
            rng,
            block: Vec::new(),
            tri_vertices,
            rect_vertices,
            tri_next: 0,
            rect_next: 0,
            comparison_offset,
            comparisons: 0,
            figure2: figure2("Edge"),
            n,
            published: Vec::new(),
            issued: 0,
            new_epsilon: 0,
        }
    }

    fn principal(&self) -> String {
        format!("analyst{}", self.issued % 4)
    }

    /// An ε no earlier request used (distinct bit patterns are distinct
    /// cache keys), strictly inside (1.5, 2) so that it never meets the
    /// warm-up's ε = 1 or an ego release's.
    fn fresh_epsilon(&self) -> f64 {
        1.5 + (self.issued + 1) as f64 / 65536.0
    }

    fn next_step(&mut self) -> Step {
        if self.block.is_empty() {
            for (class, count) in FRESH_BLOCK {
                self.block.extend(std::iter::repeat_n(class, count));
            }
            shuffle(&mut self.block, &mut self.rng);
        }
        let mut class = self.block.pop().expect("refilled above");
        if class == Class::Repeat && self.published.is_empty() {
            class = Class::NewEpsilon;
        }
        let principal = self.principal();
        let eps = self.fresh_epsilon();
        self.issued += 1;
        let step = match class {
            Class::EgoTriangle => {
                let (v, pass) = next_vertex(&self.tri_vertices, &mut self.tri_next);
                let q = ego_query(
                    v,
                    &[("v", "x2"), ("x2", "x3"), ("v", "x3")],
                    "x2 != x3",
                    pass,
                );
                release(class, &principal, &q, "residual", ego_epsilon(pass))
            }
            Class::EgoRectangle => {
                let (v, pass) = next_vertex(&self.rect_vertices, &mut self.rect_next);
                let q = ego_query(
                    v,
                    &[("v", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "v")],
                    &format!("x2 != x4, x3 != {v}"),
                    pass,
                );
                release(class, &principal, &q, "residual", ego_epsilon(pass))
            }
            Class::NewEpsilon => {
                let q = self.figure2[self.new_epsilon % self.figure2.len()].clone();
                self.new_epsilon += 1;
                release(class, &principal, &q, "residual", eps)
            }
            Class::ElasticProjection => release(
                class,
                &principal,
                "Q(x1) :- Edge(x1, x2), Edge(x2, x3), Edge(x1, x3), x1 != x2, x2 != x3, x1 != x3",
                "elastic",
                eps,
            ),
            Class::ElasticComparison => {
                let u = spread_point(self.comparison_offset, self.comparisons);
                self.comparisons += 1;
                let c = 1 + (u * (self.n - 1) as f64) as i64;
                let q = format!("Q(*) :- Edge(x1, x2), Edge(x2, x3), x1 != x3, x1 < {c}");
                release(class, &principal, &q, "elastic", eps)
            }
            Class::Repeat => {
                let i = self.rng.gen_range(0..self.published.len());
                let mut s = self.published[i].clone();
                s.class = Class::Repeat;
                return s;
            }
            _ => unreachable!("not in FRESH_BLOCK"),
        };
        self.published.push(step.clone());
        step
    }
}

/// Rounds of one 8-tuple batch mutation of `Edge` followed by a triangle
/// release over `Edge` (fresh: the mutation changed its stamp) and
/// triangle and 3-star releases over `Coauthor` (replays: scoped
/// invalidation keeps them). Odd rounds remove
/// the next four edges of a cost-spread walk over the instance's edges;
/// even rounds insert them back, so the instance, and the work a round
/// costs, stays the same whatever the seed.
pub struct DurableStream {
    /// Undirected edges (`u < v`) in removal order.
    edges: Vec<(i64, i64)>,
    next_edge: usize,
    /// The edges the last remove took out (re-inserted next round).
    removed: Vec<(i64, i64)>,
    edge_triangle: String,
    coauthor_queries: Vec<String>,
    round: Vec<Step>,
    rounds: usize,
}

/// Undirected edges per batch mutation (two tuples each).
const EDGES_PER_BATCH: usize = 4;

impl DurableStream {
    fn new(
        rows: &[[i64; 2]],
        n: usize,
        edge_triangle: String,
        coauthor_queries: Vec<String>,
        mut rng: StdRng,
    ) -> Self {
        let mut degree = vec![0usize; n];
        for r in rows {
            degree[r[0] as usize] += 1;
        }
        // Delta maintenance of an edge costs with its endpoints' degrees.
        let mut edges: Vec<(i64, i64)> = rows
            .iter()
            .filter(|r| r[0] < r[1])
            .map(|r| (r[0], r[1]))
            .collect();
        edges.sort_by_key(|&(u, v)| (degree[u as usize] + degree[v as usize], u, v));
        let edges = spread_order(&edges, rng.gen());
        DurableStream {
            edges,
            next_edge: 0,
            removed: Vec::new(),
            edge_triangle,
            coauthor_queries,
            round: Vec::new(),
            rounds: 0,
        }
    }

    fn mutation(&mut self) -> Step {
        let insert = !self.removed.is_empty();
        let edges = if insert {
            std::mem::take(&mut self.removed)
        } else {
            let batch: Vec<(i64, i64)> = (0..EDGES_PER_BATCH)
                .map(|k| self.edges[(self.next_edge + k) % self.edges.len()])
                .collect();
            self.next_edge += EDGES_PER_BATCH;
            self.removed = batch.clone();
            batch
        };
        let tuples = edges.iter().flat_map(|&(u, v)| [[u, v], [v, u]]).collect();
        Step {
            class: Class::Mutation,
            op: Op::Mutate { insert, tuples },
        }
    }

    fn next_step(&mut self) -> Step {
        if self.round.is_empty() {
            let principal = format!("analyst{}", self.rounds % 4);
            let mut round = vec![self.mutation()];
            round.push(release(
                Class::EdgeTriangle,
                &principal,
                &self.edge_triangle,
                "residual",
                1.0,
            ));
            for q in &self.coauthor_queries {
                round.push(release(
                    Class::CoauthorReplay,
                    &principal,
                    q,
                    "residual",
                    1.0,
                ));
            }
            round.reverse();
            self.round = round;
            self.rounds += 1;
        }
        self.round.pop().expect("filled above")
    }
}
