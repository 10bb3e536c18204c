//! The typed planning API: one [`PlanRequest`] → [`PlanResponse`] entry
//! point behind `plan`, `advise`, `euc3d_select`, the temporal (`--steps`)
//! and locality (`--geometry`) variants.
//!
//! The CLI subcommands and the `tiling3d serve` wire protocol are thin
//! adapters over [`respond`]: both transports serialize through
//! [`PlanResponse::to_json`], and both are validated against the same
//! checked-in golden schema ([`GOLDEN_SCHEMA`], DESIGN.md §16) by the obs
//! schema engine — one schema, two transports.
//!
//! Requests are **canonicalized** before planning: fields a query ignores
//! are normalized away, so equivalent requests (default vs explicit `nk`,
//! reordered wire fields, `--jobs` on a spatial-only plan) produce the
//! same [`PlanRequest::cache_key`] and land in the same cache shard.

use std::fmt::Write as _;

use crate::legality::{certificate_for, SweepDiscipline};
use crate::missmodel::{
    histogram, predict_level, KernelModel, LevelGeometry, LevelPrediction, PlanSchedule, Problem,
};
use crate::plan::{plan, CacheSpec, Transform, TransformPlan};
use crate::temporal::{
    plan_temporal, plan_temporal_certified, temporal_certificate, TemporalKernel, TemporalPlan,
};
use crate::TileSelection;
use tiling3d_loopnest::locality::ReuseHistogram;
use tiling3d_loopnest::{reuse, LegalityCertificate, StencilShape};
use tiling3d_obs::json::Json;

/// Wire/API version; bumped on breaking changes to the request or
/// response layout. Part of every cache key, so a version bump naturally
/// invalidates persisted warm-start caches.
pub const API_VERSION: u32 = 1;

/// The checked-in golden schema governing every API payload and wire
/// envelope (validated by `tiling3d_obs::validate`).
pub const GOLDEN_SCHEMA: &str = include_str!("../api.schema.golden");

// ---------------------------------------------------------------------------
// Request vocabulary
// ---------------------------------------------------------------------------

/// The stencil/kernel a request names — the typed union of the CLI's
/// `--stencil` and `--kernel` vocabularies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqStencil {
    /// 7-point out-of-place Jacobi, 3D.
    Jacobi3d,
    /// 5-point Jacobi, 2D (spatial queries only).
    Jacobi2d,
    /// Red-black Gauss-Seidel, fused schedule (the form the drivers run).
    RedBlack,
    /// Red-black, naive two-pass schedule.
    RedBlackNaive,
    /// 27-point MGRID residual.
    Resid,
}

impl ReqStencil {
    /// Canonical lowercase spelling (used in cache keys and wire JSON).
    pub fn name(self) -> &'static str {
        match self {
            ReqStencil::Jacobi3d => "jacobi3d",
            ReqStencil::Jacobi2d => "jacobi2d",
            ReqStencil::RedBlack => "redblack",
            ReqStencil::RedBlackNaive => "redblack-naive",
            ReqStencil::Resid => "resid",
        }
    }

    /// The paper's uppercase kernel spelling, for kernel-flavoured
    /// reports (`analyze`-family responses).
    pub fn kernel_name(self) -> Result<&'static str, String> {
        match self {
            ReqStencil::Jacobi3d => Ok("JACOBI"),
            ReqStencil::RedBlack => Ok("REDBLACK"),
            ReqStencil::Resid => Ok("RESID"),
            other => Err(format!(
                "stencil '{}' has no runnable kernel form (expected jacobi, redblack or resid)",
                other.name()
            )),
        }
    }

    /// The stencil shape planned against (matches the historical
    /// `--stencil` parse: `redblack` means the fused schedule).
    pub fn shape(self) -> StencilShape {
        match self {
            ReqStencil::Jacobi3d => StencilShape::jacobi3d(),
            ReqStencil::Jacobi2d => StencilShape::jacobi2d(),
            ReqStencil::RedBlack => StencilShape::redblack3d_fused(),
            ReqStencil::RedBlackNaive => StencilShape::redblack3d(),
            ReqStencil::Resid => StencilShape::resid27(),
        }
    }

    /// The sweep discipline for legality queries.
    fn discipline(self) -> Result<SweepDiscipline, String> {
        match self {
            ReqStencil::Jacobi3d | ReqStencil::Resid => Ok(SweepDiscipline::OutOfPlace),
            ReqStencil::RedBlack => Ok(SweepDiscipline::FusedRedBlack),
            other => Err(format!(
                "no legality discipline for stencil '{}'",
                other.name()
            )),
        }
    }

    /// The iterated-kernel counterpart for the temporal (`steps > 0`)
    /// mode. RESID has no iterated in-place form.
    pub fn temporal_kernel(self) -> Result<TemporalKernel, String> {
        match self {
            ReqStencil::Jacobi3d => Ok(TemporalKernel::Jacobi),
            ReqStencil::RedBlack | ReqStencil::RedBlackNaive => Ok(TemporalKernel::RedBlack),
            other => Err(format!(
                "--steps: no iterated form for stencil '{}' \
                 (temporal mode supports jacobi3d and redblack)",
                other.name()
            )),
        }
    }

    /// The miss-model view of the kernel under a transform (red-black
    /// realises its locality transformation as the fused schedule; the
    /// original runs naive — DESIGN.md §15).
    fn model(self, t: Transform) -> Result<KernelModel, String> {
        match self {
            ReqStencil::Jacobi3d => Ok(KernelModel::jacobi3d()),
            ReqStencil::RedBlack if t == Transform::Orig => Ok(KernelModel::redblack_naive()),
            ReqStencil::RedBlack => Ok(KernelModel::redblack_fused()),
            ReqStencil::Resid => Ok(KernelModel::resid()),
            other => Err(format!("no locality model for stencil '{}'", other.name())),
        }
    }
}

impl std::str::FromStr for ReqStencil {
    type Err = String;

    /// Accepts both the `--stencil` and the `--kernel` spellings,
    /// case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "jacobi" | "jacobi3d" => Ok(ReqStencil::Jacobi3d),
            "jacobi2d" => Ok(ReqStencil::Jacobi2d),
            "redblack" | "redblack3d" | "redblack3d_fused" | "red-black" | "rb" => {
                Ok(ReqStencil::RedBlack)
            }
            "redblack-naive" => Ok(ReqStencil::RedBlackNaive),
            "resid" | "resid27" | "mgrid" => Ok(ReqStencil::Resid),
            other => Err(format!(
                "unknown stencil '{other}' (expected jacobi3d, jacobi2d, redblack, \
                 redblack-naive, or resid)"
            )),
        }
    }
}

/// A named two-level cache geometry for locality queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GeometryPreset {
    /// UltraSPARC-2: 16KB direct-mapped L1, 512KB direct-mapped L2.
    Us2,
    /// A modern core: 32KB 8-way L1, 1MB 8-way L2, 64B lines.
    Modern,
    /// Fully associative 16KB — the conflict-free reference point.
    Fa,
}

impl GeometryPreset {
    /// Canonical lowercase spelling.
    pub fn name(self) -> &'static str {
        match self {
            GeometryPreset::Us2 => "us2",
            GeometryPreset::Modern => "modern",
            GeometryPreset::Fa => "fa",
        }
    }

    /// The static model's view of the two levels.
    pub fn levels(self) -> (LevelGeometry, LevelGeometry) {
        match self {
            GeometryPreset::Us2 => (
                LevelGeometry::ultrasparc2_l1(),
                LevelGeometry::ultrasparc2_l2(),
            ),
            GeometryPreset::Modern => (LevelGeometry::modern_l1(), LevelGeometry::modern_l2()),
            GeometryPreset::Fa => (LevelGeometry::fa_16k(), LevelGeometry::ultrasparc2_l2()),
        }
    }
}

impl std::str::FromStr for GeometryPreset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "us2" => Ok(GeometryPreset::Us2),
            "modern" => Ok(GeometryPreset::Modern),
            "fa" => Ok(GeometryPreset::Fa),
            other => Err(format!(
                "--geometry: unknown geometry '{other}' (expected us2, modern or fa)"
            )),
        }
    }
}

/// Which transforms a request covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransformSel {
    /// Every row of the paper's Table 2.
    All,
    /// One specific transform.
    One(Transform),
}

impl TransformSel {
    /// The concrete transform list this selection expands to.
    pub fn list(self) -> Vec<Transform> {
        match self {
            TransformSel::All => Transform::ALL.to_vec(),
            TransformSel::One(t) => vec![t],
        }
    }

    fn key_token(self) -> String {
        match self {
            TransformSel::All => "all".into(),
            TransformSel::One(t) => t.name().to_ascii_lowercase(),
        }
    }
}

/// What the request asks of the planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanQuery {
    /// The full tile + padding plan table (plus the certified temporal
    /// tile when `steps > 0`) — `tiling3d plan`.
    Plan,
    /// Reuse advice at `N = dims.di` — `tiling3d advise`.
    Advise,
    /// The raw Euc3D tile selection for the dims.
    Euc3d,
    /// Dependence legality certificates per transform —
    /// `tiling3d analyze`.
    Legality {
        /// Skew the tile origins (the executors' schedule); `false`
        /// requests the known-illegal rectangular red-black variant.
        skewed: bool,
    },
    /// The time-skewed band schedule certificate — `analyze --temporal`.
    TemporalLegality {
        /// As in [`PlanQuery::Legality`].
        skewed: bool,
    },
    /// The static locality analysis — `analyze --locality`.
    Locality {
        /// The cache geometry analysed.
        geometry: GeometryPreset,
    },
}

impl PlanQuery {
    /// Canonical wire token.
    pub fn token(self) -> &'static str {
        match self {
            PlanQuery::Plan => "plan",
            PlanQuery::Advise => "advise",
            PlanQuery::Euc3d => "euc3d",
            PlanQuery::Legality { .. } => "legality",
            PlanQuery::TemporalLegality { .. } => "temporal-legality",
            PlanQuery::Locality { .. } => "locality",
        }
    }
}

/// A fully typed planning request — the one entry point behind `plan`,
/// `advise`, `euc3d_select`, and the `analyze` family, for both the CLI
/// and the `serve` wire protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanRequest {
    /// What is being asked.
    pub query: PlanQuery,
    /// Which stencil/kernel.
    pub stencil: ReqStencil,
    /// Leading array dimension (or the problem size `N`).
    pub di: usize,
    /// Middle array dimension (defaults to `di`).
    pub dj: usize,
    /// Third-dimension extent (locality queries only).
    pub nk: usize,
    /// Target cache capacity for tile selection.
    pub cache: CacheSpec,
    /// Transform coverage.
    pub transforms: TransformSel,
    /// Iterated time steps; `> 0` engages the temporal mode.
    pub steps: usize,
    /// Worker threads the temporal tile is sized for (`>= 1`; resolve
    /// "all cores" *before* building the request so cache keys stay
    /// machine-independent on the wire).
    pub jobs: usize,
}

impl PlanRequest {
    /// A minimal plan-query request, for building up variations.
    pub fn plan(stencil: ReqStencil, di: usize, dj: usize, cache: CacheSpec) -> PlanRequest {
        PlanRequest {
            query: PlanQuery::Plan,
            stencil,
            di,
            dj,
            nk: 0,
            cache,
            transforms: TransformSel::All,
            steps: 0,
            jobs: 1,
        }
    }

    /// Normalizes the request so equivalent requests compare (and hash,
    /// and cache) equal: fields the query ignores are forced to fixed
    /// values, `dj` defaults to `di` where the query is square, and
    /// `jobs` collapses to 1 whenever no temporal tile is planned.
    #[must_use]
    pub fn canonical(mut self) -> PlanRequest {
        match self.query {
            PlanQuery::Plan => {
                self.nk = 0;
            }
            PlanQuery::Advise => {
                self.dj = self.di;
                self.nk = 0;
                self.transforms = TransformSel::All;
            }
            PlanQuery::Euc3d => {
                self.nk = 0;
                self.steps = 0;
                self.transforms = TransformSel::All;
            }
            PlanQuery::Legality { .. } => {
                self.dj = self.di;
                self.nk = 0;
                self.steps = 0;
            }
            PlanQuery::TemporalLegality { .. } => {
                self.di = 0;
                self.dj = 0;
                self.nk = 0;
                self.steps = 0;
                self.cache = CacheSpec::ELEMENTS_16K_DOUBLES;
                self.transforms = TransformSel::All;
            }
            PlanQuery::Locality { .. } => {
                self.dj = self.di;
                self.steps = 0;
            }
        }
        if self.steps == 0 || self.jobs == 0 {
            self.jobs = if self.steps == 0 { 1 } else { self.jobs.max(1) };
        }
        self
    }

    /// The canonical cache key: a pure function of the canonicalized
    /// request, stable across processes and machines. Keyed under
    /// [`API_VERSION`] so format changes invalidate persisted caches.
    pub fn cache_key(&self) -> String {
        let c = self.canonical();
        let (skew, geom) = match c.query {
            PlanQuery::Legality { skewed } | PlanQuery::TemporalLegality { skewed } => {
                (skewed, GeometryPreset::Us2)
            }
            PlanQuery::Locality { geometry } => (true, geometry),
            _ => (true, GeometryPreset::Us2),
        };
        format!(
            "v{}|{}|{}|di{}|dj{}|nk{}|c{}|t:{}|s{}|j{}|skew{}|g{}",
            API_VERSION,
            c.query.token(),
            c.stencil.name(),
            c.di,
            c.dj,
            c.nk,
            c.cache.elements,
            c.transforms.key_token(),
            c.steps,
            c.jobs,
            u8::from(skew),
            geom.name(),
        )
    }

    /// The cache shard a key lands in, out of `shards` (FNV-1a of the
    /// canonical key) — the one sharding function shared by every cache
    /// holder.
    pub fn shard(&self, shards: usize) -> usize {
        shard_of_key(&self.cache_key(), shards)
    }

    /// Parses a wire-protocol request object (DESIGN.md §16). Field order
    /// never matters; `n` is shorthand for `di` = `dj` = `n`; omitted
    /// fields take the documented defaults.
    pub fn from_json(v: &Json) -> Result<PlanRequest, String> {
        let str_field = |name: &str| v.get(name).and_then(Json::as_str);
        let num_field = |name: &str| -> Result<Option<usize>, String> {
            match v.get(name) {
                None => Ok(None),
                Some(j) => j
                    .as_f64()
                    .filter(|f| f.fract() == 0.0 && *f >= 0.0)
                    .map(|f| Some(f as usize))
                    .ok_or_else(|| {
                        format!("request field '{name}' must be a non-negative integer")
                    }),
            }
        };
        let stencil: ReqStencil = str_field("stencil")
            .or_else(|| str_field("kernel"))
            .unwrap_or("jacobi3d")
            .parse()?;
        let nk = num_field("nk")?.unwrap_or(30);
        let cache = CacheSpec::from_bytes(num_field("cache_kb")?.unwrap_or(16) * 1024);
        let steps = num_field("steps")?.unwrap_or(0);
        let jobs = num_field("jobs")?.unwrap_or(1);
        let skewed = match v.get("skewed") {
            None => true,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("request field 'skewed' must be a boolean".into()),
        };
        let transforms = match str_field("transform") {
            None => TransformSel::All,
            Some(t) if t.eq_ignore_ascii_case("all") => TransformSel::All,
            Some(t) => TransformSel::One(t.parse()?),
        };
        let query = match str_field("query").unwrap_or("plan") {
            "plan" => PlanQuery::Plan,
            "advise" => PlanQuery::Advise,
            "euc3d" => PlanQuery::Euc3d,
            "legality" => PlanQuery::Legality { skewed },
            "temporal-legality" => PlanQuery::TemporalLegality { skewed },
            "locality" => {
                let geometry = str_field("geometry").unwrap_or("us2").parse()?;
                PlanQuery::Locality { geometry }
            }
            other => {
                return Err(format!(
                    "unknown query '{other}' (expected plan, advise, euc3d, legality, \
                     temporal-legality or locality)"
                ))
            }
        };
        let n = num_field("n")?;
        let di = num_field("di")?.or(n);
        let dj = num_field("dj")?.or(di);
        let (di, dj) = match (di, dj) {
            (Some(di), Some(dj)) => (di, dj),
            // Temporal legality is dims-independent (its canonical form
            // zeroes the dims), so the wire request may omit them.
            _ if matches!(query, PlanQuery::TemporalLegality { .. }) => (0, 0),
            _ => return Err("request needs dims: 'di'/'dj' or 'n'".into()),
        };
        Ok(PlanRequest {
            query,
            stencil,
            di,
            dj,
            nk,
            cache,
            transforms,
            steps,
            jobs,
        })
    }

    /// Renders the canonical request as a wire-protocol object — the
    /// inverse of [`PlanRequest::from_json`] up to canonicalization.
    pub fn to_json(&self) -> Json {
        let c = self.canonical();
        let mut fields = vec![
            ("query", Json::str(c.query.token())),
            ("stencil", Json::str(c.stencil.name())),
            ("di", Json::uint(c.di as u64)),
            ("dj", Json::uint(c.dj as u64)),
            ("nk", Json::uint(c.nk as u64)),
            (
                "cache_kb",
                Json::uint((c.cache.elements * std::mem::size_of::<f64>() / 1024) as u64),
            ),
            ("steps", Json::uint(c.steps as u64)),
            ("jobs", Json::uint(c.jobs as u64)),
        ];
        if let TransformSel::One(t) = c.transforms {
            fields.push(("transform", Json::str(t.name())));
        }
        match c.query {
            PlanQuery::Legality { skewed } | PlanQuery::TemporalLegality { skewed } => {
                fields.push(("skewed", Json::Bool(skewed)));
            }
            PlanQuery::Locality { geometry } => {
                fields.push(("geometry", Json::str(geometry.name())));
            }
            _ => {}
        }
        Json::obj(fields)
    }
}

/// The shard any cache-key string lands in, out of `shards` (FNV-1a) —
/// also used by `serve` for derived keys like the autotune variants.
pub fn shard_of_key(key: &str, shards: usize) -> usize {
    (fnv1a(key.as_bytes()) % shards.max(1) as u64) as usize
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The temporal section of a plan/advise response.
#[derive(Clone, Debug)]
pub struct TemporalSection {
    /// The iterated kernel.
    pub kernel: TemporalKernel,
    /// Requested time steps.
    pub steps: usize,
    /// Worker threads the tile was sized for.
    pub jobs: usize,
    /// The `(ST, SK)` tile.
    pub plan: TemporalPlan,
    /// `(schedule name, legal)` when the plan was certified (the plan
    /// query); `None` on the advisory path.
    pub certified: Option<(String, bool)>,
    /// Working set of the tile in elements, all buffers included.
    pub working_elements: usize,
}

impl TemporalSection {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kernel", Json::str(self.kernel.name())),
            ("steps", Json::uint(self.steps as u64)),
            ("jobs", Json::uint(self.jobs as u64)),
            ("st", Json::uint(self.plan.st as u64)),
            ("sk", Json::uint(self.plan.sk as u64)),
            (
                "working_planes",
                Json::uint(self.plan.working_planes as u64),
            ),
        ];
        if let Some((_, legal)) = &self.certified {
            fields.push(("legal", Json::Bool(*legal)));
        }
        Json::obj(fields)
    }
}

/// `plan`: the full transform table (+ optional temporal tile).
#[derive(Clone, Debug)]
pub struct PlansResponse {
    /// The planned stencil.
    pub stencil: ReqStencil,
    /// Requested dims.
    pub di: usize,
    /// Requested dims.
    pub dj: usize,
    /// Target cache.
    pub cache: CacheSpec,
    /// One plan per requested transform, in request order.
    pub rows: Vec<TransformPlan>,
    /// The certified temporal tile when `steps > 0`.
    pub temporal: Option<TemporalSection>,
}

/// `advise`: does the stencil at this size still have cache reuse?
#[derive(Clone, Debug)]
pub struct AdviceResponse {
    /// The advised stencil.
    pub stencil: ReqStencil,
    /// Problem size.
    pub n: usize,
    /// Largest extent at which the decisive group reuse survives.
    pub reuse_bound: usize,
    /// The verdict.
    pub verdict: reuse::TilingAdvice,
    /// Reuse distance across `K` in elements (3D stencils only).
    pub reuse_distance: Option<usize>,
    /// The advisory temporal tile when `steps > 0`.
    pub temporal: Option<TemporalSection>,
}

/// `euc3d`: the raw Fig 9 selection.
#[derive(Clone, Debug)]
pub struct Euc3dResponse {
    /// The planned stencil.
    pub stencil: ReqStencil,
    /// Requested dims.
    pub di: usize,
    /// Requested dims.
    pub dj: usize,
    /// Target cache.
    pub cache: CacheSpec,
    /// The winning selection (Fig 9 degenerates to `1x1`, never fails).
    pub selection: TileSelection,
    /// Finite-cost candidates enumerated on the way.
    pub candidates: usize,
}

/// One certified schedule in a legality response.
#[derive(Clone, Debug)]
pub struct LegalityRow {
    /// The transform's resolved plan.
    pub plan: TransformPlan,
    /// The dependence certificate for the schedule the plan executes.
    pub certificate: LegalityCertificate,
}

/// `legality`: dependence certification per transform.
#[derive(Clone, Debug)]
pub struct LegalityResponse {
    /// The certified kernel.
    pub stencil: ReqStencil,
    /// Its sweep discipline.
    pub discipline: SweepDiscipline,
    /// Problem size.
    pub n: usize,
    /// Whether tile origins are skewed.
    pub skewed: bool,
    /// One certified schedule per requested transform.
    pub rows: Vec<LegalityRow>,
}

impl LegalityResponse {
    /// True when every analyzed schedule is legal.
    pub fn all_legal(&self) -> bool {
        self.rows.iter().all(|r| r.certificate.is_legal())
    }
}

/// `temporal-legality`: the time-skewed band schedule certificate.
#[derive(Clone, Debug)]
pub struct TemporalLegalityResponse {
    /// The iterated kernel.
    pub kernel: TemporalKernel,
    /// Whether the band schedule is skewed.
    pub skewed: bool,
    /// The certificate.
    pub certificate: LegalityCertificate,
}

/// One transform's static locality analysis.
#[derive(Clone, Debug)]
pub struct LocalityRow {
    /// The transform's resolved plan (tile possibly overridden by the
    /// kernel model's schedule realisation).
    pub plan: TransformPlan,
    /// The tile the analysed schedule actually runs.
    pub tile: Option<(usize, usize)>,
    /// The symbolic reuse-distance histogram (the FA miss curve).
    pub histogram: ReuseHistogram,
    /// L1 prediction with conflict corrections.
    pub l1: LevelPrediction,
    /// L2 prediction with conflict corrections.
    pub l2: LevelPrediction,
}

/// `locality`: the static locality analyzer's report.
#[derive(Clone, Debug)]
pub struct LocalityResponse {
    /// The analysed kernel.
    pub stencil: ReqStencil,
    /// Problem size.
    pub n: usize,
    /// Third-dimension extent.
    pub nk: usize,
    /// The analysed geometry.
    pub geometry: GeometryPreset,
    /// One row per requested transform.
    pub rows: Vec<LocalityRow>,
}

/// Every answer the planning API can give.
#[derive(Clone, Debug)]
pub enum PlanResponse {
    /// Answer to [`PlanQuery::Plan`].
    Plans(PlansResponse),
    /// Answer to [`PlanQuery::Advise`].
    Advice(AdviceResponse),
    /// Answer to [`PlanQuery::Euc3d`].
    Euc3d(Euc3dResponse),
    /// Answer to [`PlanQuery::Legality`].
    Legality(LegalityResponse),
    /// Answer to [`PlanQuery::TemporalLegality`].
    TemporalLegality(TemporalLegalityResponse),
    /// Answer to [`PlanQuery::Locality`].
    Locality(LocalityResponse),
}

fn tile_json(tile: Option<(usize, usize)>) -> Json {
    match tile {
        None => Json::Null,
        Some((a, b)) => Json::Arr(vec![Json::uint(a as u64), Json::uint(b as u64)]),
    }
}

fn witness_json(w: &tiling3d_loopnest::locality::ConflictWitness) -> Json {
    use tiling3d_loopnest::locality::WitnessKind;
    Json::obj(vec![
        (
            "kind",
            Json::str(match w.kind {
                WitnessKind::ThrashGroup => "thrash-group",
                WitnessKind::BandOverlap => "band-overlap",
            }),
        ),
        (
            "refs",
            Json::Arr(w.refs.iter().map(|r| Json::str(*r)).collect()),
        ),
        (
            "set_window",
            Json::Arr(vec![
                Json::uint(w.set_window.0 as u64),
                Json::uint(w.set_window.1 as u64),
            ]),
        ),
        ("period_iters", Json::uint(w.period_iters)),
        ("lines", Json::uint(w.lines as u64)),
        ("ways", Json::uint(w.ways as u64)),
        ("killed_fraction", Json::Num(w.killed_fraction)),
    ])
}

fn level_json(lp: &LevelPrediction) -> Json {
    Json::obj(vec![
        ("predicted_pct", Json::Num(lp.miss_rate_pct)),
        ("fa_pct", Json::Num(100.0 * lp.fa_misses / lp.accesses)),
        ("predicted_misses", Json::Num(lp.misses)),
        ("bound_misses", Json::Num(lp.bound_misses)),
        ("pathological", Json::Bool(lp.conflicts.pathological)),
        (
            "witnesses",
            Json::Arr(lp.conflicts.witnesses.iter().map(witness_json).collect()),
        ),
    ])
}

impl PlanResponse {
    /// The `ev` tag of this response's payload object.
    pub fn event(&self) -> &'static str {
        match self {
            PlanResponse::Plans(_) => "plan_response",
            PlanResponse::Advice(_) => "advise_response",
            PlanResponse::Euc3d(_) => "euc3d_response",
            PlanResponse::Legality(_) => "legality_response",
            PlanResponse::TemporalLegality(_) => "temporal_legality_response",
            PlanResponse::Locality(_) => "locality_response",
        }
    }

    /// The one serialization shared by the CLI's `--format json` and the
    /// `serve` wire protocol, governed by [`GOLDEN_SCHEMA`].
    pub fn to_json(&self) -> Json {
        match self {
            PlanResponse::Plans(r) => {
                let rows = r
                    .rows
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("transform", Json::str(p.transform.name())),
                            ("tile", tile_json(p.tile)),
                            ("padded_di", Json::uint(p.padded_di as u64)),
                            ("padded_dj", Json::uint(p.padded_dj as u64)),
                            (
                                "cost",
                                if p.cost.is_finite() {
                                    Json::Num(p.cost)
                                } else {
                                    Json::Null
                                },
                            ),
                        ])
                    })
                    .collect();
                let mut fields = vec![
                    ("ev", Json::str(self.event())),
                    ("stencil", Json::str(r.stencil.shape().name())),
                    ("di", Json::uint(r.di as u64)),
                    ("dj", Json::uint(r.dj as u64)),
                    ("cache_elements", Json::uint(r.cache.elements as u64)),
                    ("plans", Json::Arr(rows)),
                ];
                if let Some(t) = &r.temporal {
                    fields.push(("temporal", t.to_json()));
                }
                Json::obj(fields)
            }
            PlanResponse::Advice(r) => {
                let mut fields = vec![
                    ("ev", Json::str(self.event())),
                    ("stencil", Json::str(r.stencil.shape().name())),
                    ("n", Json::uint(r.n as u64)),
                    ("reuse_bound", Json::uint(r.reuse_bound as u64)),
                    ("verdict", Json::str(format!("{:?}", r.verdict))),
                ];
                if let Some(dist) = r.reuse_distance {
                    fields.push(("reuse_distance_elements", Json::uint(dist as u64)));
                }
                if let Some(t) = &r.temporal {
                    fields.push(("temporal", t.to_json()));
                }
                Json::obj(fields)
            }
            PlanResponse::Euc3d(r) => {
                let at = r.selection.array_tile;
                Json::obj(vec![
                    ("ev", Json::str(self.event())),
                    ("stencil", Json::str(r.stencil.shape().name())),
                    ("di", Json::uint(r.di as u64)),
                    ("dj", Json::uint(r.dj as u64)),
                    ("cache_elements", Json::uint(r.cache.elements as u64)),
                    (
                        "tile",
                        tile_json(Some((r.selection.iter_tile.0, r.selection.iter_tile.1))),
                    ),
                    (
                        "array_tile",
                        Json::obj(vec![
                            ("tk", Json::uint(at.tk as u64)),
                            ("tj", Json::uint(at.tj as u64)),
                            ("ti", Json::uint(at.ti as u64)),
                        ]),
                    ),
                    ("cost", Json::Num(r.selection.cost)),
                    ("candidates", Json::uint(r.candidates as u64)),
                ])
            }
            PlanResponse::Legality(r) => {
                let rows = r
                    .rows
                    .iter()
                    .map(|row| {
                        Json::obj(vec![
                            ("transform", Json::str(row.plan.transform.name())),
                            ("tile", tile_json(row.plan.tile)),
                            ("skewed", Json::Bool(r.skewed)),
                            ("legal", Json::Bool(row.certificate.is_legal())),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("ev", Json::str(self.event())),
                    (
                        "kernel",
                        Json::str(r.stencil.kernel_name().unwrap_or("UNKNOWN")),
                    ),
                    ("n", Json::uint(r.n as u64)),
                    (
                        "all_legal",
                        Json::Bool(self::LegalityResponse::all_legal(r)),
                    ),
                    ("schedules", Json::Arr(rows)),
                ])
            }
            PlanResponse::TemporalLegality(r) => Json::obj(vec![
                ("ev", Json::str(self.event())),
                ("kernel", Json::str(r.kernel.name())),
                ("schedule", Json::str(r.certificate.schedule.name.as_str())),
                ("skewed", Json::Bool(r.skewed)),
                ("legal", Json::Bool(r.certificate.is_legal())),
            ]),
            PlanResponse::Locality(r) => {
                let rows = r
                    .rows
                    .iter()
                    .map(|row| {
                        let classes = row
                            .histogram
                            .classes
                            .iter()
                            .map(|c| {
                                Json::obj(vec![
                                    ("label", Json::str(c.label)),
                                    ("kind", Json::str(format!("{:?}", c.kind))),
                                    ("distance", Json::Num(c.distance)),
                                    ("count", Json::Num(c.count)),
                                ])
                            })
                            .collect();
                        Json::obj(vec![
                            ("transform", Json::str(row.plan.transform.name())),
                            ("tile", tile_json(row.tile)),
                            (
                                "padded_dims",
                                Json::Arr(vec![
                                    Json::uint(row.plan.padded_di as u64),
                                    Json::uint(row.plan.padded_dj as u64),
                                ]),
                            ),
                            ("histogram", Json::Arr(classes)),
                            (
                                "knees",
                                Json::Arr(
                                    row.histogram
                                        .knees()
                                        .iter()
                                        .map(|&k| Json::uint(k))
                                        .collect(),
                                ),
                            ),
                            ("l1", level_json(&row.l1)),
                            ("l2", level_json(&row.l2)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("ev", Json::str(self.event())),
                    (
                        "kernel",
                        Json::str(r.stencil.kernel_name().unwrap_or("UNKNOWN")),
                    ),
                    ("n", Json::uint(r.n as u64)),
                    ("nk", Json::uint(r.nk as u64)),
                    ("geometry", Json::str(r.geometry.name())),
                    ("transforms", Json::Arr(rows)),
                ])
            }
        }
    }

    /// Renders the payload as one JSONL wire line (no trailing newline).
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

// ---------------------------------------------------------------------------
// The entry point
// ---------------------------------------------------------------------------

fn temporal_section(
    req: &PlanRequest,
    plane_elements: usize,
    certify: bool,
) -> Result<TemporalSection, String> {
    let tk = req.stencil.temporal_kernel()?;
    let (plan, certified) = if certify {
        let cp = plan_temporal_certified(tk, req.cache, plane_elements, req.steps, req.jobs, true)
            .map_err(|e| e.to_string())?;
        (
            *cp.plan(),
            Some((
                cp.certificate().schedule.name.clone(),
                cp.certificate().is_legal(),
            )),
        )
    } else {
        (
            plan_temporal(tk, req.cache, plane_elements, req.steps, req.jobs),
            None,
        )
    };
    Ok(TemporalSection {
        kernel: tk,
        steps: req.steps,
        jobs: req.jobs,
        working_elements: plan.working_elements(tk, plane_elements),
        plan,
        certified,
    })
}

/// Answers a [`PlanRequest`]. The request is canonicalized first, so any
/// two requests with equal [`PlanRequest::cache_key`]s produce identical
/// responses — the invariant the memoizing `serve` cache relies on.
pub fn respond(req: &PlanRequest) -> Result<PlanResponse, String> {
    let req = req.canonical();
    let shape = req.stencil.shape();
    match req.query {
        PlanQuery::Plan => {
            if req.di == 0 || req.dj == 0 {
                return Err("plan requires positive dims".into());
            }
            let rows: Vec<TransformPlan> = req
                .transforms
                .list()
                .into_iter()
                .map(|t| plan(t, req.cache, req.di, req.dj, &shape))
                .collect();
            let temporal = if req.steps > 0 {
                Some(temporal_section(&req, req.di * req.dj, true)?)
            } else {
                None
            };
            Ok(PlanResponse::Plans(PlansResponse {
                stencil: req.stencil,
                di: req.di,
                dj: req.dj,
                cache: req.cache,
                rows,
                temporal,
            }))
        }
        PlanQuery::Advise => {
            let n = req.di;
            if n == 0 {
                return Err("advise requires a positive problem size".into());
            }
            let temporal = if req.steps > 0 {
                Some(temporal_section(&req, n * n, false)?)
            } else {
                None
            };
            let (reuse_bound, verdict, reuse_distance) = if shape.atd() == 1 {
                (
                    reuse::max_column_extent_2d(req.cache.elements, &shape),
                    reuse::advise_2d(req.cache.elements, &shape, n),
                    None,
                )
            } else {
                (
                    reuse::max_plane_extent(req.cache.elements, &shape),
                    reuse::advise_3d(req.cache.elements, &shape, n),
                    Some(reuse::k_reuse_distance(&shape, n, n)),
                )
            };
            Ok(PlanResponse::Advice(AdviceResponse {
                stencil: req.stencil,
                n,
                reuse_bound,
                verdict,
                reuse_distance,
                temporal,
            }))
        }
        PlanQuery::Euc3d => {
            if req.di == 0 || req.dj == 0 {
                return Err("euc3d requires positive dims".into());
            }
            let sel = crate::euc3d_select(
                req.cache,
                req.di,
                req.dj,
                &shape,
                &crate::Euc3dOptions {
                    depths: None,
                    unit_tile_fallback: true,
                },
            );
            let candidates = sel.candidates.len();
            let selection = sel.best.unwrap_or_else(|| {
                // unit_tile_fallback guarantees Some; keep a defensive
                // degenerate tile rather than a panic in a server path.
                TileSelection {
                    iter_tile: (1, 1),
                    array_tile: crate::ArrayTile {
                        ti: 1,
                        tj: 1,
                        tk: shape.atd(),
                    },
                    cost: f64::INFINITY,
                }
            });
            Ok(PlanResponse::Euc3d(Euc3dResponse {
                stencil: req.stencil,
                di: req.di,
                dj: req.dj,
                cache: req.cache,
                selection,
                candidates,
            }))
        }
        PlanQuery::Legality { skewed } => {
            let n = req.di;
            if n < 3 {
                return Err("analyze requires --n >= 3".into());
            }
            let discipline = req.stencil.discipline()?;
            let rows = req
                .transforms
                .list()
                .into_iter()
                .map(|t| {
                    let p = plan(t, req.cache, n, n, &shape);
                    let certificate = certificate_for(&discipline, p.tile.is_some(), skewed);
                    LegalityRow {
                        plan: p,
                        certificate,
                    }
                })
                .collect();
            Ok(PlanResponse::Legality(LegalityResponse {
                stencil: req.stencil,
                discipline,
                n,
                skewed,
                rows,
            }))
        }
        PlanQuery::TemporalLegality { skewed } => {
            let tk = req.stencil.temporal_kernel().map_err(|_| {
                "temporal mode supports jacobi and redblack only (resid is not iterated)"
                    .to_string()
            })?;
            Ok(PlanResponse::TemporalLegality(TemporalLegalityResponse {
                kernel: tk,
                skewed,
                certificate: temporal_certificate(tk, skewed),
            }))
        }
        PlanQuery::Locality { geometry } => {
            let n = req.di;
            if n < 3 {
                return Err("analyze requires --n >= 3".into());
            }
            let (l1, l2) = geometry.levels();
            let rows = req
                .transforms
                .list()
                .into_iter()
                .map(|t| {
                    let p = plan(t, req.cache, n, n, &shape);
                    // Red-black realises its locality transformation as the
                    // fused schedule, not the skewed tile (DESIGN.md §15).
                    let tile = if req.stencil == ReqStencil::RedBlack {
                        None
                    } else {
                        p.tile
                    };
                    let sched = match tile {
                        Some((ti, tj)) => PlanSchedule::Tiled { ti, tj },
                        None => PlanSchedule::Untiled,
                    };
                    let model = req.stencil.model(t)?;
                    let prob = Problem {
                        n,
                        nk: req.nk,
                        di: p.padded_di,
                        dj: p.padded_dj,
                    };
                    Ok(LocalityRow {
                        plan: p,
                        tile,
                        histogram: histogram(&model, sched, &prob, &l1),
                        l1: predict_level(&model, sched, &prob, &l1),
                        l2: predict_level(&model, sched, &prob, &l2),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(PlanResponse::Locality(LocalityResponse {
                stencil: req.stencil,
                n,
                nk: req.nk,
                geometry,
                rows,
            }))
        }
    }
}

/// Answers a request and wraps the payload in the wire envelope
/// (`{"ev":"response","key":...,"query":...,"result":...}`), returning
/// the rendered JSONL line. The envelope is a pure function of the
/// canonical request, so cold and warm servings of the same key are
/// byte-identical.
pub fn respond_enveloped(req: &PlanRequest) -> Result<String, String> {
    let payload = respond(req)?;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"ev\":\"response\",\"key\":{},\"query\":{},\"result\":{}}}",
        Json::str(req.cache_key()).render(),
        Json::str(req.query.token()).render(),
        payload.to_json().render()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_obs::json;
    use tiling3d_obs::validate::{check_trace_str, parse_schema};

    fn parse_req(s: &str) -> PlanRequest {
        PlanRequest::from_json(&json::parse(s).unwrap()).unwrap()
    }

    #[test]
    fn equivalent_requests_share_key_and_shard() {
        // Default vs explicit nk; reordered fields; explicit default
        // transform; jobs on a spatial-only request.
        let variants = [
            r#"{"query":"plan","stencil":"jacobi3d","di":341,"dj":341}"#,
            r#"{"dj":341,"di":341,"stencil":"jacobi3d","query":"plan"}"#,
            r#"{"query":"plan","stencil":"jacobi3d","di":341,"dj":341,"nk":12}"#,
            r#"{"query":"plan","stencil":"jacobi","n":341,"transform":"all"}"#,
            r#"{"query":"plan","stencil":"jacobi3d","n":341,"jobs":8}"#,
            r#"{"query":"plan","stencil":"jacobi3d","n":341,"cache_kb":16,"steps":0}"#,
        ];
        let key0 = parse_req(variants[0]).cache_key();
        let shard0 = parse_req(variants[0]).shard(16);
        for v in &variants[1..] {
            let r = parse_req(v);
            assert_eq!(r.cache_key(), key0, "{v}");
            assert_eq!(r.shard(16), shard0, "{v}");
        }
        // ...but a request that differs in a live field gets a new key.
        assert_ne!(parse_req(variants[0]).cache_key(), {
            parse_req(r#"{"query":"plan","stencil":"jacobi3d","n":341,"steps":4}"#).cache_key()
        });
        assert_ne!(
            parse_req(r#"{"query":"locality","stencil":"jacobi","n":64}"#).cache_key(),
            parse_req(r#"{"query":"locality","stencil":"jacobi","n":64,"nk":12}"#).cache_key(),
            "locality keeps nk live"
        );
    }

    #[test]
    fn canonical_responses_are_identical_for_equal_keys() {
        let a = parse_req(r#"{"query":"plan","stencil":"jacobi3d","di":200,"dj":200,"jobs":4}"#);
        let b = parse_req(r#"{"query":"plan","stencil":"jacobi","n":200,"nk":99}"#);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(
            respond_enveloped(&a).unwrap(),
            respond_enveloped(&b).unwrap()
        );
    }

    #[test]
    fn request_json_round_trips_canonically() {
        let r = parse_req(r#"{"query":"legality","kernel":"redblack","n":200,"skewed":false}"#);
        let again = PlanRequest::from_json(&r.to_json()).unwrap();
        assert_eq!(again.canonical(), r.canonical());
        assert_eq!(again.cache_key(), r.cache_key());
    }

    #[test]
    fn every_query_payload_matches_the_golden_schema() {
        let golden = parse_schema(GOLDEN_SCHEMA).expect("api schema parses");
        let reqs = [
            r#"{"query":"plan","stencil":"jacobi3d","n":341}"#,
            r#"{"query":"plan","stencil":"jacobi3d","n":341,"steps":8,"jobs":2}"#,
            r#"{"query":"advise","stencil":"jacobi3d","n":300}"#,
            r#"{"query":"advise","stencil":"jacobi2d","n":300}"#,
            r#"{"query":"advise","stencil":"jacobi3d","n":300,"steps":5}"#,
            r#"{"query":"euc3d","stencil":"resid","di":200,"dj":200}"#,
            r#"{"query":"legality","kernel":"redblack","n":200}"#,
            r#"{"query":"legality","kernel":"redblack","n":200,"skewed":false}"#,
            r#"{"query":"temporal-legality","kernel":"jacobi","n":0}"#,
            r#"{"query":"locality","kernel":"jacobi","n":64,"nk":8}"#,
            r#"{"query":"locality","kernel":"redblack","n":64,"nk":8,"geometry":"modern"}"#,
        ];
        let mut trace = String::new();
        for r in reqs {
            let req = parse_req(r);
            trace.push_str(&respond(&req).unwrap().render());
            trace.push('\n');
            trace.push_str(&respond_enveloped(&req).unwrap());
            trace.push('\n');
        }
        let report = check_trace_str(&trace, &golden);
        assert!(report.is_ok(), "{}", report.summary());
        // The envelope embeds the payload: "result" must carry an object.
        assert!(report.events_by_kind["response"] >= 11);
    }

    #[test]
    fn plan_response_shape_matches_the_table2_planner() {
        let req = parse_req(r#"{"query":"plan","stencil":"jacobi3d","n":341}"#);
        let PlanResponse::Plans(p) = respond(&req).unwrap() else {
            panic!("wrong response kind");
        };
        assert_eq!(p.rows.len(), 6);
        for row in &p.rows {
            assert_eq!(
                row.tile.is_some(),
                !matches!(row.transform, Transform::Orig | Transform::GcdPadNT)
            );
        }
    }

    #[test]
    fn temporal_legality_rejects_the_unskewed_band() {
        let req =
            parse_req(r#"{"query":"temporal-legality","kernel":"redblack","n":0,"skewed":false}"#);
        let PlanResponse::TemporalLegality(r) = respond(&req).unwrap() else {
            panic!("wrong response kind");
        };
        assert!(!r.certificate.is_legal());
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        for (req, want) in [
            (
                r#"{"query":"plan","stencil":"nope","n":10}"#,
                "unknown stencil",
            ),
            (r#"{"query":"warp","n":10}"#, "unknown query"),
            (r#"{"query":"plan"}"#, "needs dims"),
            (r#"{"query":"plan","n":"ten"}"#, "non-negative integer"),
            (
                r#"{"query":"legality","kernel":"jacobi2d","n":50}"#,
                "no legality discipline",
            ),
        ] {
            let v = json::parse(req).unwrap();
            let err = PlanRequest::from_json(&v)
                .and_then(|r| respond(&r))
                .map(|_| ())
                .unwrap_err();
            assert!(err.contains(want), "{req}: {err}");
        }
    }
}
