//! The traced run and its per-layer breakdown.
//!
//! The traced run repeats the workload's closed loop with spans around
//! every client call, then measures each layer from outside, by one of
//! three sources:
//!
//! * spans around the benchmark's own calls in the live loop
//!   (`client.encrypt`, `client.roundtrip`);
//! * the server's `MatchClient::metrics()` snapshot, read before and
//!   after the traced phase and differenced (histograms bucket-wise);
//! * replays of each layer's public function on the run's own inputs —
//!   the same parameters, databases and queries — each inside a span.
//!
//! The layers must account for the match latency: client encryption +
//! `wire.gap_ms` + `server.queue_wait_ms` + `server.serve_ms`, where the
//! serve time is the replayed layers plus `serve.unattributed_frac` of
//! it, within [`LAYER_SUM_TOLERANCE`]. Server-side quantiles come from
//! log-bucketed histograms (≤ 6.25% midpoint error), so a layer near
//! zero, such as `wire.gap_ms` on a compute-bound loop, can read
//! slightly negative.

use std::collections::{HashMap, HashSet};

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, KeyGenerator, PublicKey, SecretKey};
use cm_core::{BitString, CiphermatchEngine, EncryptedDatabase, EncryptedQuery, MatchError};
use cm_flash::FlashGeometry;
use cm_server::wire::frame_bytes;
use cm_server::{IfpMatcher, QueryPayload, Request, Response};
use cm_ssd::{CmIfpServer, ColdStore, IfpReport, SecureIndexChannel, TransposeMode};
use cm_telemetry::{metric_names, HistogramSample, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, Metric};
use crate::trace::Tracer;
use crate::workload::{self, Deployment, Engine, Inputs, Kind, LiveTenant, Op, PhaseLog, Served};

/// How far the layers may miss `match_p50_ms`, as a share of it.
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;
/// Matches of the traced phase replayed layer by layer.
const REPLAY_SAMPLES: usize = 32;

/// The traced run's findings.
#[derive(Debug)]
pub struct Report {
    pub phase: PhaseLog,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// False if the phase or a replay disagreed with the plaintext.
    pub correct: bool,
}

/// `after − before` of one histogram, bucket-wise.
fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSample> {
    let mut delta = after.histogram(name, labels)?.clone();
    if let Some(b) = before.histogram(name, labels) {
        let old: HashMap<u32, u64> = b.buckets.iter().copied().collect();
        delta.count -= b.count;
        delta.sum -= b.sum;
        delta.buckets = delta
            .buckets
            .iter()
            .map(|&(i, n)| (i, n - old.get(&i).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect();
    }
    Some(delta)
}

/// Median of a histogram delta, µs → ms; 0 when nothing was recorded.
fn p50_ms(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> f64 {
    histogram_delta(before, after, name, labels)
        .and_then(|h| h.quantile(0.5))
        .map_or(0.0, |us| us as f64 / 1e3)
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let read = |s: &MetricsSnapshot| s.counter(name, &[]).unwrap_or(0);
    read(after).saturating_sub(read(before)) as f64
}

/// Key material derived exactly as the server derives it from a
/// tenant spec's seed (context, then `KeyGenerator` over one seeded
/// stream), so replays decrypt what the live tenant encrypted.
struct Keys {
    ctx: BfvContext,
    sk: SecretKey,
    pk: PublicKey,
}

impl Keys {
    fn derive(params: BfvParams, seed: u64) -> Self {
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let pk = kg.public_key(&mut rng);
        Self { ctx, sk, pk }
    }
}

/// One tenant rebuilt for replay from its uploaded bytes.
struct ReplayTenant {
    keys: Keys,
    engine: CiphermatchEngine,
    db: EncryptedDatabase,
    /// The in-flash device holding the database (IFP tenants).
    ifp: Option<CmIfpServer>,
}

impl ReplayTenant {
    fn build(
        input: &workload::TenantInput,
        live: &LiveTenant,
        tracer: &Tracer,
    ) -> Result<Self, MatchError> {
        let params = match input.engine {
            Engine::CmSw => BfvParams::ciphermatch_1024(),
            Engine::Ifp => BfvParams::insecure_test_pow2(),
        };
        let keys = Keys::derive(params, input.spec_seed);
        let engine = CiphermatchEngine::new(&keys.ctx);
        let (n, q) = (keys.ctx.params().n, keys.ctx.params().q);
        let bits_per_poly = engine.packing().bits_per_poly();
        let (db, _) = tracer.time("replay.db_decode", None, 0, || {
            let db = EncryptedDatabase::decode(&live.exported)?;
            db.validate(n, q, bits_per_poly)?;
            Ok::<_, MatchError>(db)
        });
        let db = db?;
        let ifp = (input.engine == Engine::Ifp).then(|| {
            CmIfpServer::new(
                &keys.ctx,
                FlashGeometry::tiny_test(),
                TransposeMode::Software,
                &db,
            )
        });
        Ok(Self {
            keys,
            engine,
            db,
            ifp,
        })
    }
}

/// Σ Eq. 9 device time of one in-flash search, µs.
fn device_us(server: &CmIfpServer, reports: &[IfpReport]) -> f64 {
    let ssd = server.ssd();
    reports
        .iter()
        .map(|r| r.time_eq9(ssd.geometry(), ssd.timings()))
        .sum::<f64>()
        * 1e6
}

/// Replay timings of one served match, ms (µs where named).
#[derive(Debug, Default)]
struct Replayed {
    decode_us: f64,
    prepare_ms: Option<f64>,
    sweep_ms: Option<f64>,
    ifp_host_ms: Option<f64>,
    ifp_device_us: Option<f64>,
    index_gen_ms: f64,
    decrypts: f64,
    seal_us: f64,
}

impl Replayed {
    /// The serve-side work this replay accounts for, ms.
    fn serve_ms(&self) -> f64 {
        self.decode_us / 1e3
            + self.prepare_ms.unwrap_or(0.0)
            + self.sweep_ms.unwrap_or(0.0)
            + self.ifp_host_ms.unwrap_or(0.0)
            + self.index_gen_ms
            + self.seal_us / 1e3
    }
}

/// Replays one served match layer by layer. Returns `None` (and notes
/// why) if the replayed answer disagrees with the plaintext.
#[allow(clippy::too_many_arguments)]
fn replay_match(
    tracer: &Tracer,
    served: &Served,
    tenant_id: &str,
    live: &LiveTenant,
    replay: &mut ReplayTenant,
    pattern: &BitString,
    truth: &[usize],
    rng: &mut StdRng,
    notes: &mut Vec<String>,
) -> Result<Option<Replayed>, MatchError> {
    let request = served.request;
    let root = tracer.open("replay.match", None, request);
    let parent = Some(root.id());
    let mut out = Replayed::default();
    // The request frame exactly as the client sends it.
    let payload = match &live.kit {
        Some(kit) => QueryPayload::CmWire(kit.encode_query(pattern, rng)?),
        None => QueryPayload::Bits(pattern.clone()),
    };
    let frame = Request::Match {
        tenant: tenant_id.to_string(),
        query: payload.clone(),
    }
    .encode();
    let (n, q) = (replay.keys.ctx.params().n, replay.keys.ctx.params().q);
    let seg_bits = replay.engine.packing().seg_bits();
    let (decoded, ms) = tracer.time("replay.decode", parent, request, || {
        let request = Request::decode(&frame);
        match (&request, &payload) {
            (Ok(_), QueryPayload::CmWire(bytes)) => {
                EncryptedQuery::decode_validated(bytes, n, seg_bits, q).ok()
            }
            _ => None,
        }
    });
    out.decode_us = ms * 1e3;
    let enc = Encryptor::new(&replay.keys.ctx, replay.keys.pk.clone());
    let dec = Decryptor::new(&replay.keys.ctx, replay.keys.sk.clone());
    let result = if let Some(server) = replay.ifp.as_mut() {
        let query = decoded.ok_or(MatchError::Frame("replayed wire query did not decode"))?;
        let ((result, reports), ms) = tracer.time("replay.ifp_search", parent, request, || {
            server.search(&query)
        });
        out.ifp_host_ms = Some(ms);
        out.ifp_device_us = Some(device_us(server, &reports));
        result
    } else {
        let (query, ms) = tracer.time("replay.prepare_query", parent, request, || {
            replay.engine.prepare_query(&enc, pattern, rng)
        });
        out.prepare_ms = Some(ms);
        // A first search sizes the arenas; the timed one reuses them, as
        // a warm serving matcher does.
        let mut result = replay.engine.search(&replay.db, &query);
        let ((), ms) = tracer.time("replay.search_into", parent, request, || {
            replay.engine.search_into(&replay.db, &query, &mut result)
        });
        out.sweep_ms = Some(ms);
        result
    };
    out.decrypts = result.ciphertext_count() as f64;
    let (indices, ms) = tracer.time("replay.generate_indices", parent, request, || {
        replay.engine.generate_indices(&dec, &result)
    });
    out.index_gen_ms = ms;
    let channel = SecureIndexChannel::new(&live.key);
    let (sealed, ms) = tracer.time("replay.seal", parent, request, || {
        channel.seal(&served.indices, request)
    });
    std::hint::black_box(sealed);
    out.seal_us = ms * 1e3;
    tracer.close(root);
    if indices != truth {
        notes.push(format!(
            "replay of request {request} on {tenant_id} disagreed with the plaintext"
        ));
        return Ok(None);
    }
    Ok(Some(out))
}

/// The one paper-parameter IFP query: client-side encryption with the
/// paper kit, then the in-flash search on a paper-geometry device.
/// Returns `(client encrypt ms, host search ms, answer agrees)`.
fn paper_ifp(
    tracer: &Tracer,
    input: &workload::TenantInput,
    pattern: &BitString,
    truth: &[usize],
    rng: &mut StdRng,
) -> Result<(f64, f64, bool), MatchError> {
    let kit = IfpMatcher::for_spec(input.spec_seed, false)?.query_kit();
    let (encoded, encrypt_ms) = tracer.time("client.paper_encrypt", None, 0, || {
        kit.encode_query(pattern, rng)
    });
    let keys = Keys::derive(BfvParams::ciphermatch_ifp_1024(), input.spec_seed);
    let engine = CiphermatchEngine::new(&keys.ctx);
    let enc = Encryptor::new(&keys.ctx, keys.pk.clone());
    let db = engine.encrypt_database(&enc, &input.data, rng);
    let mut server = CmIfpServer::new(
        &keys.ctx,
        FlashGeometry::paper_default(),
        TransposeMode::Software,
        &db,
    );
    let query = EncryptedQuery::decode(&encoded?)?;
    let ((result, _), host_ms) =
        tracer.time("replay.paper_ifp_search", None, 0, || server.search(&query));
    let dec = Decryptor::new(&keys.ctx, keys.sk.clone());
    let agrees = engine.generate_indices(&dec, &result) == truth;
    Ok((encrypt_ms, host_ms, agrees))
}

/// Evenly spaced picks of at most `k` items.
fn spread<T>(items: &[T], k: usize) -> impl Iterator<Item = &T> {
    let step = items.len().div_ceil(k.max(1)).max(1);
    items.iter().step_by(step)
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// Runs the traced phase and measures every layer.
pub fn traced_run(
    deployment: &mut Deployment,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
    untraced: &PhaseLog,
) -> Result<Report, MatchError> {
    let before = deployment.clients[0].metrics()?;
    let phase = workload::run_phase(deployment, inputs, seconds, seed ^ 0x7ACE, Some(tracer));
    let after = deployment.clients[0].metrics()?;
    let mut notes = Vec::new();
    let mut correct = phase.wrong == 0;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E91A7);

    // --- Live spans ---------------------------------------------------
    let spans = tracer.spans();
    let match_roots: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "op.match")
        .map(|s| s.id)
        .collect();
    let roundtrip_ms: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == "client.roundtrip" && s.parent.is_some_and(|p| match_roots.contains(&p))
        })
        .map(|s| s.ms())
        .collect();
    let encrypt_ms = median(&tracer.durations_ms("client.encrypt"));
    // Per match, the client-side encryption it paid (0 when the server
    // encrypted), so the sum below weighs it by its share of matches.
    let encrypt_per_match = median_of(phase.served.iter().map(|s| s.encrypt_ms));

    // --- Server snapshot ----------------------------------------------
    let tag = [("tag", "match")];
    let latency_ms = p50_ms(
        &before,
        &after,
        metric_names::SERVER_REQUEST_LATENCY_US,
        &tag,
    );
    let queue_wait_ms = p50_ms(&before, &after, metric_names::SERVER_QUEUE_WAIT_US, &tag);
    let serve_ms = p50_ms(&before, &after, metric_names::SERVER_SERVE_TIME_US, &tag);
    let exec_wait_ms = p50_ms(
        &before,
        &after,
        metric_names::EXEC_QUEUE_WAIT_US,
        &[("pool", "frames")],
    );
    let gap_ms = median(&roundtrip_ms) - latency_ms;
    let demotions = counter_delta(&before, &after, metric_names::REGISTRY_DEMOTIONS);
    let remats = counter_delta(&before, &after, metric_names::REGISTRY_REMATERIALIZATIONS);
    let cold_hits = counter_delta(&before, &after, metric_names::REGISTRY_COLD_HITS);
    let wear = counter_delta(&before, &after, metric_names::REGISTRY_FLASH_WEAR);
    let upload_mib =
        counter_delta(&before, &after, metric_names::SERVER_UPLOAD_BYTES) / f64::from(1u32 << 20);
    let matches = phase.served.len() as f64;

    // --- Replays on the run's own inputs ------------------------------
    let mut replay_tenants = inputs
        .tenants
        .iter()
        .zip(&deployment.tenants)
        .map(|(input, live)| ReplayTenant::build(input, live, tracer))
        .collect::<Result<Vec<_>, _>>()?;
    let mut replays = Vec::new();
    for served in spread(&phase.served, REPLAY_SAMPLES) {
        let Op::Match {
            tenant,
            pattern,
            truth,
        } = &inputs.ops[served.client][served.op]
        else {
            continue;
        };
        match replay_match(
            tracer,
            served,
            &inputs.tenants[*tenant].id,
            &deployment.tenants[*tenant],
            &mut replay_tenants[*tenant],
            pattern,
            truth,
            &mut rng,
            &mut notes,
        )? {
            Some(r) => replays.push(r),
            None => correct = false,
        }
    }
    let mut cold = ColdStore::with_default_geometry();
    for live in &deployment.tenants {
        let (written, _) = tracer.time("replay.cold_put", None, 0, || cold.put(&live.exported));
        let (read, _) = tracer.time("replay.cold_get", None, 0, || cold.get(&written?.slot));
        if read?.bytes != live.exported {
            notes.push("cold-store replay returned different bytes".into());
            correct = false;
        }
    }
    // One paper-parameter IFP query, on the first IFP tenant's first read.
    let paper_op = inputs.ops.iter().flatten().find_map(|op| match op {
        Op::Match {
            tenant,
            pattern,
            truth,
        } if inputs.tenants[*tenant].engine == Engine::Ifp => Some((*tenant, pattern, truth)),
        _ => None,
    });
    let (paper_encrypt_ms, paper_host_ms) = match paper_op {
        Some((t, pattern, truth)) => {
            let (encrypt, host, agrees) =
                paper_ifp(tracer, &inputs.tenants[t], pattern, truth, &mut rng)?;
            if !agrees {
                notes.push("paper-parameter IFP replay disagreed with the plaintext".into());
                correct = false;
            }
            (encrypt, host)
        }
        None => (0.0, 0.0),
    };

    // --- Wire bytes per operation ---------------------------------------
    // The reactor's socket byte counters over the traced phase, less the
    // two Metrics round trips that bracket it: the first one's reply and
    // the second one's request are counted inside the window.
    let bracket_out = frame_bytes(&Response::Metrics(before.clone()).encode())?.len() as f64;
    let bracket_in = frame_bytes(&Request::Metrics.encode())?.len() as f64;
    let ops = phase.attempted.max(1) as f64;
    let request_bytes =
        (counter_delta(&before, &after, metric_names::REACTOR_BYTES_IN) - bracket_in) / ops;
    let reply_bytes =
        (counter_delta(&before, &after, metric_names::REACTOR_BYTES_OUT) - bracket_out) / ops;

    // --- Assembly -------------------------------------------------------
    let some = |f: fn(&Replayed) -> Option<f64>| median_of(replays.iter().filter_map(f));
    let replayed_serve_ms = median_of(replays.iter().map(Replayed::serve_ms));
    let unattributed = if serve_ms > 0.0 {
        1.0 - replayed_serve_ms / serve_ms
    } else {
        0.0
    };
    let match_p50 = median(&phase.match_ms);
    let untraced_p50 = median(&untraced.match_ms);
    let overhead = if untraced_p50 > 0.0 {
        match_p50 / untraced_p50 - 1.0
    } else {
        0.0
    };
    // The accounting identity. On p50s for single-class loops; on means
    // for tenant-churn, whose matches mix client-encrypted IFP queries
    // with server-encrypted CM-SW ones — medians of a two-class mix do
    // not add, means do.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let hist_mean_ms = |name: &str| {
        histogram_delta(&before, &after, name, &tag)
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.sum as f64 / h.count as f64 / 1e3)
    };
    let (form, end_to_end, layer_sum) = if inputs.kind == Kind::TenantChurn {
        let encrypt = mean(
            &phase
                .served
                .iter()
                .map(|s| s.encrypt_ms)
                .collect::<Vec<_>>(),
        );
        let gap = mean(&roundtrip_ms) - hist_mean_ms(metric_names::SERVER_REQUEST_LATENCY_US);
        let queue = hist_mean_ms(metric_names::SERVER_QUEUE_WAIT_US);
        let serve = hist_mean_ms(metric_names::SERVER_SERVE_TIME_US);
        notes.push(format!(
            "means: encrypt {encrypt:.3} + wire gap {gap:.3} + queue wait {queue:.3} + serve \
             {serve:.3} ms"
        ));
        ("mean", mean(&phase.match_ms), encrypt + gap + queue + serve)
    } else {
        (
            "p50",
            match_p50,
            encrypt_per_match + gap_ms + queue_wait_ms + serve_ms,
        )
    };
    let residual = if end_to_end > 0.0 {
        (end_to_end - layer_sum) / end_to_end
    } else {
        0.0
    };
    let index_gen_ms = median_of(replays.iter().map(|r| r.index_gen_ms));
    let prepare_ms = some(|r| r.prepare_ms);
    let sweep_ms = some(|r| r.sweep_ms);
    let seal_us = median_of(replays.iter().map(|r| r.seal_us));
    let decode_us = median_of(replays.iter().map(|r| r.decode_us));

    notes.push(format!(
        "layer sum ({form}): {layer_sum:.3} ms vs match latency {end_to_end:.3} ms \
         (residual {:+.1}%, tolerance ±{:.0}%): {}",
        residual * 100.0,
        LAYER_SUM_TOLERANCE * 100.0,
        if residual.abs() <= LAYER_SUM_TOLERANCE {
            "within"
        } else {
            "OUTSIDE"
        }
    ));
    notes.push(format!(
        "serve {serve_ms:.3} ms = replayed decode {:.3} + prepare {prepare_ms:.3} + sweep \
         {sweep_ms:.3} + ifp {:.3} + index gen {index_gen_ms:.3} + seal {:.3} \
         (median sum {replayed_serve_ms:.3}) + unattributed {:.1}%",
        decode_us / 1e3,
        some(|r| r.ifp_host_ms),
        seal_us / 1e3,
        unattributed * 100.0
    ));
    notes.push(format!(
        "tracing overhead: match_p50 {match_p50:.3} ms traced vs {untraced_p50:.3} ms \
         untraced ({:+.1}%)",
        overhead * 100.0
    ));
    match inputs.kind {
        Kind::DnaScan => {
            let largest = [decode_us / 1e3, prepare_ms, sweep_ms, seal_us / 1e3]
                .into_iter()
                .fold(0.0, f64::max);
            notes.push(format!(
                "prediction (index generation dominates dna-scan serve): index gen \
                 {index_gen_ms:.3} ms = {:.0}% of serve; {}",
                100.0 * index_gen_ms / serve_ms.max(f64::MIN_POSITIVE),
                if index_gen_ms > largest {
                    "holds"
                } else {
                    "does not hold"
                }
            ));
        }
        Kind::KvLookup => {
            let largest = [encrypt_per_match, queue_wait_ms, serve_ms]
                .into_iter()
                .fold(0.0, f64::max);
            notes.push(format!(
                "prediction (wire gap dominates kv-lookup): wire gap {gap_ms:.3} ms = {:.0}% \
                 of match_p50; {}",
                100.0 * gap_ms / match_p50.max(f64::MIN_POSITIVE),
                if gap_ms > largest {
                    "holds"
                } else {
                    "does not hold"
                }
            ));
        }
        Kind::TenantChurn => {}
    }

    let metrics = vec![
        Metric::new("client.encrypt_ms", encrypt_ms, "ms"),
        Metric::new("wire.gap_ms", gap_ms, "ms"),
        Metric::new("wire.request_bytes", request_bytes, "bytes"),
        Metric::new("wire.reply_bytes", reply_bytes, "bytes"),
        Metric::new("wire.decode_us", decode_us, "us"),
        Metric::new("server.queue_wait_ms", queue_wait_ms, "ms"),
        Metric::new("server.serve_ms", serve_ms, "ms"),
        Metric::new("exec.queue_wait_ms", exec_wait_ms, "ms"),
        Metric::new("query.prepare_ms", prepare_ms, "ms"),
        Metric::new("sweep.ms", sweep_ms, "ms"),
        Metric::new(
            "sweep.hom_adds",
            median_of(phase.served.iter().map(|s| s.stats.hom_adds as f64)),
            "count",
        ),
        Metric::new("index_gen.ms", index_gen_ms, "ms"),
        Metric::new(
            "index_gen.decrypts",
            median_of(replays.iter().map(|r| r.decrypts)),
            "count",
        ),
        Metric::new("seal.us", seal_us, "us"),
        Metric::new("serve.unattributed_frac", unattributed, "ratio"),
        Metric::new("registry.demotions", demotions, "count"),
        Metric::new("registry.rematerializations", remats, "count"),
        Metric::new("registry.cold_hits", cold_hits, "count"),
        Metric::new(
            "registry.rebuilds_per_query",
            remats / matches.max(1.0),
            "ratio",
        ),
        Metric::new(
            "db.decode_ms",
            median(&tracer.durations_ms("replay.db_decode")),
            "ms",
        ),
        Metric::new(
            "cold.put_ms",
            median(&tracer.durations_ms("replay.cold_put")),
            "ms",
        ),
        Metric::new(
            "cold.get_ms",
            median(&tracer.durations_ms("replay.cold_get")),
            "ms",
        ),
        Metric::new(
            "cold.wear_per_mb",
            if upload_mib > 0.0 {
                wear / upload_mib
            } else {
                0.0
            },
            "1/MiB",
        ),
        Metric::new("ifp.host_ms", some(|r| r.ifp_host_ms), "ms"),
        Metric::new("ifp.device_us", some(|r| r.ifp_device_us), "us"),
        Metric::new("ifp.paper_host_ms", paper_host_ms, "ms"),
        Metric::new("client.paper_encrypt_ms", paper_encrypt_ms, "ms"),
        Metric::new("trace.overhead_frac", overhead, "ratio"),
        Metric::new("layers.residual_frac", residual.abs(), "ratio"),
    ];
    Ok(Report {
        phase,
        metrics,
        notes,
        correct,
    })
}
