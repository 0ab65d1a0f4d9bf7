//! The three workloads: their seeded inputs, how a deployment of them is
//! provisioned, and the closed loop that drives it.
//!
//! Every tenant is provisioned the way a remote key owner does it: keys
//! and database encryption on the client side, then
//! [`MatchClient::upload_database`]. Clients talk to the server only
//! through the public [`MatchClient`], with no socket options of their
//! own, so the numbers are the ones a user of that client sees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cm_core::{Backend, BitString, MatchError, MatchStats, MatcherConfig};
use cm_server::{
    IfpMatcher, MatchClient, MatchServer, QueryKit, RunningServer, ServerConfig, TenantAccess,
    TenantRegistry, TenantSpec,
};
use cm_workloads::{DnaGenome, KvDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{self, Tracer};

/// Operations generated per client; a run cycles through them.
const OPS_PER_CLIENT: usize = 1024;
/// Bases per DNA read (a 64-bit pattern).
const READ_BASES: usize = 32;
/// Share of DNA reads that carry mismatches (negative controls).
const MISMATCH_SHARE: f64 = 0.25;
/// Mismatched bases in a negative-control read.
const MISMATCHES: usize = 3;
/// Share of tenant-churn operations that re-upload a database.
const UPLOAD_SHARE: f64 = 0.25;
/// CM-SW databases the tenant-churn memory budget holds at once.
const CHURN_HOT_DATABASES: u64 = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DnaScan,
    KvLookup,
    TenantChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::DnaScan, Kind::KvLookup, Kind::TenantChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DnaScan => "dna-scan",
            Kind::KvLookup => "kv-lookup",
            Kind::TenantChurn => "tenant-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop client threads (and connections).
    pub fn clients(self) -> usize {
        match self {
            Kind::DnaScan | Kind::KvLookup => 2,
            Kind::TenantChurn => 1,
        }
    }
}

/// How a tenant is served and queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// CM-SW at paper parameters; the server holds the key material and
    /// the client sends plaintext bits (`search_bits`).
    CmSw,
    /// In-flash CM-IFP on the test parameter set; the client encrypts
    /// each query with a [`QueryKit`] (`search_encoded`).
    Ifp,
}

/// One tenant's plaintext and identity, fixed by the seed.
#[derive(Debug, Clone)]
pub struct TenantInput {
    pub id: String,
    pub key: [u8; 32],
    pub engine: Engine,
    pub spec_seed: u64,
    pub data: BitString,
}

/// One closed-loop operation with its expected answer.
#[derive(Debug, Clone)]
pub enum Op {
    Match {
        tenant: usize,
        pattern: BitString,
        truth: Vec<usize>,
    },
    Upload {
        tenant: usize,
    },
}

/// Everything a run needs, generated from the seed before any server
/// exists.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub kind: Kind,
    pub tenants: Vec<TenantInput>,
    /// One operation list per client.
    pub ops: Vec<Vec<Op>>,
}

fn tenant(rng: &mut StdRng, id: String, engine: Engine, data: BitString) -> TenantInput {
    let mut key = [0u8; 32];
    for byte in &mut key {
        *byte = rng.gen();
    }
    TenantInput {
        id,
        key,
        engine,
        spec_seed: rng.gen(),
        data,
    }
}

/// A DNA read of `genome`, corrupted for a seeded share of reads.
fn read_op(rng: &mut StdRng, tenant: usize, genome: &DnaGenome, data: &BitString) -> Op {
    let mismatches = if rng.gen_bool(MISMATCH_SHARE) {
        MISMATCHES
    } else {
        0
    };
    let (read, _) = genome.sample_read(READ_BASES, mismatches, rng);
    let pattern = BitString::from_dna(&read);
    let truth = data.find_all(&pattern);
    Op::Match {
        tenant,
        pattern,
        truth,
    }
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let clients = kind.clients();
        let mut tenants = Vec::new();
        let mut ops = Vec::new();
        match kind {
            Kind::DnaScan => {
                // ≥ 64 Kbases: 128 Kbit, eight ciphertexts at paper
                // parameters (16 Kbit per polynomial).
                let genome = DnaGenome::random(64 * 1024, &mut rng);
                let data = BitString::from_dna(&genome.to_string_seq());
                tenants.push(tenant(&mut rng, "genome".into(), Engine::CmSw, data));
                for _ in 0..clients {
                    ops.push(
                        (0..OPS_PER_CLIENT)
                            .map(|_| read_op(&mut rng, 0, &genome, &tenants[0].data))
                            .collect(),
                    );
                }
            }
            Kind::KvLookup => {
                // Four 2 KiB stores (64 records × 32 bytes): one
                // ciphertext each.
                let stores: Vec<KvDatabase> = (0..4)
                    .map(|_| KvDatabase::random(64, 4, 28, &mut rng))
                    .collect();
                for (i, store) in stores.iter().enumerate() {
                    let data = BitString::from_ascii(&store.flatten());
                    tenants.push(tenant(&mut rng, format!("kv-{i}"), Engine::CmSw, data));
                }
                for _ in 0..clients {
                    ops.push(
                        (0..OPS_PER_CLIENT)
                            .map(|_| {
                                let t = rng.gen_range(0..stores.len());
                                let key = stores[t].sample_queries(1, &mut rng).remove(0);
                                let pattern = BitString::from_ascii(&key);
                                let truth = tenants[t].data.find_all(&pattern);
                                Op::Match {
                                    tenant: t,
                                    pattern,
                                    truth,
                                }
                            })
                            .collect(),
                    );
                }
            }
            Kind::TenantChurn => {
                let mut genomes = Vec::new();
                for i in 0..8 {
                    let (engine, bases, id) = if i < 6 {
                        (Engine::CmSw, 32 * 1024, format!("cm-{i}"))
                    } else {
                        (Engine::Ifp, 1024, format!("ifp-{}", i - 6))
                    };
                    let genome = DnaGenome::random(bases, &mut rng);
                    let data = BitString::from_dna(&genome.to_string_seq());
                    tenants.push(tenant(&mut rng, id, engine, data));
                    genomes.push(genome);
                }
                for _ in 0..clients {
                    ops.push(
                        (0..OPS_PER_CLIENT)
                            .map(|_| {
                                let t = rng.gen_range(0..tenants.len());
                                if rng.gen_bool(UPLOAD_SHARE) {
                                    Op::Upload { tenant: t }
                                } else {
                                    read_op(&mut rng, t, &genomes[t], &tenants[t].data)
                                }
                            })
                            .collect(),
                    );
                }
            }
        }
        Self { kind, tenants, ops }
    }

    /// Plaintext bytes the tenants hold.
    pub fn user_bytes(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.data.len().div_ceil(8) as u64)
            .sum()
    }
}

/// A tenant as its owner holds it after provisioning.
#[derive(Debug)]
pub struct LiveTenant {
    pub access: TenantAccess,
    /// The AES channel key, as the owner holds it.
    pub key: [u8; 32],
    pub spec: TenantSpec,
    pub exported: Vec<u8>,
    /// Query-encryption material for client-encrypted (IFP) tenants.
    pub kit: Option<QueryKit>,
    next_nonce: AtomicU64,
}

impl LiveTenant {
    fn nonce(&self) -> u64 {
        self.next_nonce.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Client-side provisioning: key generation and database encryption.
fn provision(input: &TenantInput, workers: u32) -> Result<LiveTenant, MatchError> {
    let (spec, exported, kit) = match input.engine {
        Engine::CmSw => {
            let config = MatcherConfig::new(Backend::Ciphermatch).seed(input.spec_seed);
            let mut owner = config.build()?;
            owner.load_database(&input.data)?;
            (
                TenantSpec::from_config(&config, workers),
                owner.export_database()?,
                None,
            )
        }
        Engine::Ifp => {
            let matcher = IfpMatcher::for_spec(input.spec_seed, true)?;
            let kit = matcher.query_kit();
            let mut owner = cm_core::erase(matcher, input.spec_seed);
            owner.load_database(&input.data)?;
            // The server rebuilds an `ifp` matcher from the spec's seed
            // and parameter-set flag alone.
            let config = MatcherConfig::new(Backend::Ifp)
                .seed(input.spec_seed)
                .insecure_test();
            (
                TenantSpec::from_config(&config, workers),
                owner.export_database()?,
                Some(kit),
            )
        }
    };
    Ok(LiveTenant {
        access: TenantAccess::new(&input.id, &input.key),
        key: input.key,
        spec,
        exported,
        kit,
        next_nonce: AtomicU64::new(0),
    })
}

/// A live server with every tenant uploaded and the clients connected.
#[derive(Debug)]
pub struct Deployment {
    pub server: RunningServer,
    pub tenants: Vec<LiveTenant>,
    pub clients: Vec<MatchClient>,
    /// Encrypted bytes of the initial uploads.
    pub uploaded_bytes: u64,
    /// Initial uploads whose reported size disagreed with the export.
    pub wrong_uploads: u64,
}

impl Deployment {
    /// Provisions every tenant, spawns the server, connects the clients
    /// and uploads each database once — the benchmark's set-up.
    pub fn setup(inputs: &Inputs) -> Result<Self, MatchError> {
        let workers = inputs.kind.clients() as u32;
        let tenants = inputs
            .tenants
            .iter()
            .map(|t| provision(t, workers))
            .collect::<Result<Vec<_>, _>>()?;
        let memory_budget = (inputs.kind == Kind::TenantChurn).then(|| {
            let cm_bytes = inputs
                .tenants
                .iter()
                .zip(&tenants)
                .filter(|(input, _)| input.engine == Engine::CmSw)
                .map(|(_, t)| t.exported.len() as u64)
                .max()
                .unwrap_or(0);
            CHURN_HOT_DATABASES * cm_bytes
        });
        let config = ServerConfig {
            memory_budget,
            ..ServerConfig::default()
        };
        let server =
            MatchServer::with_config(TenantRegistry::new(), config)?.spawn("127.0.0.1:0")?;
        let mut clients = (0..inputs.kind.clients())
            .map(|_| MatchClient::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut uploaded_bytes = 0;
        let mut wrong_uploads = 0;
        for t in &tenants {
            let (bytes, _) =
                clients[0].upload_database(&t.access, &t.spec, &t.exported, t.nonce())?;
            if bytes != t.exported.len() as u64 {
                wrong_uploads += 1;
            }
            uploaded_bytes += t.exported.len() as u64;
        }
        Ok(Self {
            server,
            tenants,
            clients,
            uploaded_bytes,
            wrong_uploads,
        })
    }

    /// Re-uploads the tenants' databases in turn, `count` uploads in
    /// all, from the first client — the upload latency sample for
    /// workloads whose loop only reads.
    pub fn probe_uploads(&mut self, count: usize) -> PhaseLog {
        let mut log = PhaseLog::default();
        for t in self.tenants.iter().cycle().take(count) {
            log.attempted += 1;
            let start = Instant::now();
            match self.clients[0].upload_database(&t.access, &t.spec, &t.exported, t.nonce()) {
                Ok((bytes, _)) => {
                    if bytes != t.exported.len() as u64 {
                        log.wrong += 1;
                    }
                    log.upload_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(format!("upload of {}: {e}", t.access.id()));
                }
            }
        }
        log
    }

    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// One answered Match, kept for the traced run's replays.
#[derive(Debug, Clone)]
pub struct Served {
    pub client: usize,
    pub op: usize,
    pub request: u64,
    pub indices: Vec<usize>,
    pub stats: MatchStats,
    /// Client-side query encryption, ms (0 for server-encrypted queries).
    pub encrypt_ms: f64,
}

/// What one timed phase observed.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub match_ms: Vec<f64>,
    pub upload_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with the plaintext.
    pub wrong: u64,
    pub errors: Vec<String>,
    pub served: Vec<Served>,
    /// Bytes uploaded by re-uploads during the phase.
    pub uploaded_bytes: u64,
    pub elapsed_s: f64,
}

impl PhaseLog {
    fn absorb(&mut self, other: PhaseLog) {
        self.match_ms.extend(other.match_ms);
        self.upload_ms.extend(other.upload_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.errors.extend(other.errors);
        self.served.extend(other.served);
        self.uploaded_bytes += other.uploaded_bytes;
    }

    /// Operations completed inside the timed window.
    pub fn completed(&self) -> u64 {
        (self.match_ms.len() + self.upload_ms.len()) as u64
    }
}

/// One client's connection and its place in its operation list.
struct Driver<'a> {
    index: usize,
    client: &'a mut MatchClient,
    tenants: &'a [LiveTenant],
    ops: &'a [Op],
    next: usize,
    rng: StdRng,
    tracer: Option<&'a Tracer>,
}

impl Driver<'_> {
    /// Runs the next operation, checks its answer, and logs it (latency
    /// only when `timed`).
    fn step(&mut self, log: &mut PhaseLog, timed: bool) {
        let op_index = self.next % self.ops.len();
        self.next += 1;
        // Request ids are unique across clients: client in the high bits.
        let request = ((self.index as u64) << 32) | self.next as u64;
        let tracer = self.tracer;
        log.attempted += 1;
        match &self.ops[op_index] {
            Op::Match {
                tenant,
                pattern,
                truth,
            } => {
                let t = &self.tenants[*tenant];
                let start = Instant::now();
                let root = trace::open(tracer, "op.match", None, request);
                let parent = root.as_ref().map(trace::Open::id);
                let mut encrypt_ms = 0.0;
                let encoded = t.kit.as_ref().map(|kit| {
                    let span = trace::open(tracer, "client.encrypt", parent, request);
                    let started = Instant::now();
                    let bytes = kit.encode_query(pattern, &mut self.rng);
                    encrypt_ms = started.elapsed().as_secs_f64() * 1e3;
                    trace::close(tracer, span);
                    bytes
                });
                let span = trace::open(tracer, "client.roundtrip", parent, request);
                let result = match encoded {
                    Some(Ok(bytes)) => self.client.search_encoded(&t.access, &bytes),
                    Some(Err(e)) => Err(e),
                    None => self.client.search_bits(&t.access, pattern),
                };
                trace::close(tracer, span);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                trace::close(tracer, root);
                match result {
                    Ok(reply) => {
                        if reply.indices != *truth {
                            log.wrong += 1;
                        }
                        if timed {
                            log.match_ms.push(ms);
                            log.served.push(Served {
                                client: self.index,
                                op: op_index,
                                request,
                                indices: reply.indices,
                                stats: reply.stats,
                                encrypt_ms,
                            });
                        }
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("match on {}: {e}", t.access.id()));
                    }
                }
            }
            Op::Upload { tenant } => {
                let t = &self.tenants[*tenant];
                let nonce = t.nonce();
                let start = Instant::now();
                let root = trace::open(tracer, "op.upload", None, request);
                let parent = root.as_ref().map(trace::Open::id);
                let span = trace::open(tracer, "client.roundtrip", parent, request);
                let result = self
                    .client
                    .upload_database(&t.access, &t.spec, &t.exported, nonce);
                trace::close(tracer, span);
                trace::close(tracer, root);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok((bytes, _)) => {
                        if bytes != t.exported.len() as u64 {
                            log.wrong += 1;
                        }
                        if timed {
                            log.upload_ms.push(ms);
                            log.uploaded_bytes += t.exported.len() as u64;
                        }
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("upload of {}: {e}", t.access.id()));
                    }
                }
            }
        }
    }
}

/// Operations each client runs, answers checked but untimed, before
/// the timed loop starts (arenas allocated, connections warm).
const WARMUP_OPS: usize = 2;

/// Runs every client's closed loop for `seconds` and merges the logs.
/// Clients warm up, wait for each other, then share one start; each
/// stops sending once `seconds` have passed.
pub fn run_phase(
    deployment: &mut Deployment,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> PhaseLog {
    let tenants = &deployment.tenants;
    let barrier = Barrier::new(deployment.clients.len());
    let runs: Vec<(PhaseLog, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .clients
            .iter_mut()
            .zip(&inputs.ops)
            .enumerate()
            .map(|(index, (client, ops))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut driver = Driver {
                        index,
                        client,
                        tenants,
                        ops,
                        next: 0,
                        rng: StdRng::seed_from_u64(seed ^ (0xC11E_0000 + index as u64)),
                        tracer,
                    };
                    let mut warmup = PhaseLog::default();
                    for _ in 0..WARMUP_OPS {
                        driver.step(&mut warmup, false);
                    }
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut log = PhaseLog::default();
                    while Instant::now() < deadline {
                        driver.step(&mut log, true);
                    }
                    log.absorb(warmup);
                    (log, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = runs.iter().map(|(_, s)| *s).min();
    let mut log = PhaseLog {
        elapsed_s: start.map_or(0.0, |s| s.elapsed().as_secs_f64()),
        ..PhaseLog::default()
    };
    for (l, _) in runs {
        log.absorb(l);
    }
    log
}
