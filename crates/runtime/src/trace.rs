//! JSONL trace bundles: an optional self-describing header line followed
//! by one JSON object per completed round.
//!
//! Every field in a [`RoundRecord`] is a deterministic function of the
//! runtime's seed and configuration — wall-clock measurements live in
//! [`crate::runtime::RuntimeReport`] instead — so two runs with the same
//! seed produce **byte-identical** trace files. The determinism regression
//! test relies on this, and the counterfactual replay engine
//! ([`crate::replay`]) builds on it: a headered trace carries a
//! [`ReplayManifest`] with everything needed to re-run the recorded rounds
//! side-effect-free under an alternate repair policy.
//!
//! The authoritative schema reference — every field, the header layout,
//! the versioning rules and the determinism contract — is
//! `docs/TRACE_FORMAT.md` at the repository root.
//!
//! ## File layout (format v1)
//!
//! ```text
//! {"mdg_trace":"v1","version":1,"manifest":{...}}   <- header (optional)
//! {"round":0,"t_start_secs":0.0,...}                <- RoundRecord
//! {"round":1,...}
//! ```
//!
//! Headerless files (recorded before format v1 existed) still parse via
//! [`parse_trace`]; only replay requires the header, and rejects legacy
//! files with a clear error instead of guessing at the missing manifest.

use crate::runtime::RuntimeConfig;
use mdg_net::{Deployment, DeploymentConfig, Network};
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Current trace bundle format version. Bump when the header layout or
/// the meaning of an existing [`RoundRecord`] field changes; adding new
/// optional header fields does not require a bump.
pub const TRACE_VERSION: u32 = 1;

/// Value of the header's `mdg_trace` marker field.
pub const TRACE_MAGIC: &str = "v1";

/// Per-round trace record (one JSONL line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round number, starting at 0.
    pub round: u64,
    /// Simulation time at the start of the round, seconds.
    pub t_start_secs: f64,
    /// Round duration, seconds.
    pub duration_secs: f64,
    /// Live sensors at collection time (after this round's fault deaths).
    pub n_alive: usize,
    /// Packets delivered to the collector.
    pub delivered: usize,
    /// Packets expected (one per live, covered sensor).
    pub expected: usize,
    /// Retransmissions performed this round.
    pub retries: u64,
    /// Upload attempts lost to the loss process.
    pub attempt_failures: u64,
    /// Packets abandoned after exhausting retries.
    pub drops: u64,
    /// Live sensors without single-hop coverage this round.
    pub orphans: usize,
    /// Cumulative orphaned live-sensor-seconds so far.
    pub orphan_secs_total: f64,
    /// Whether plan repair changed the plan before this round.
    pub repaired: bool,
    /// Stale stops removed by the repair.
    pub stops_removed: usize,
    /// Replacement stops spliced in by the repair.
    pub stops_added: usize,
    /// Whether the repair escalated to a full re-plan.
    pub full_replan: bool,
    /// Deterministic repair work measure (candidate/edge scans).
    pub repair_ops: u64,
    /// Tour length driven this round, meters.
    pub tour_length_m: f64,
}

/// How to rebuild the recorded run's network topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologyManifest {
    /// Seeded uniform deployment (what `mdg runtime` records): `n`
    /// sensors on a `side` × `side` field, sink at the center, generated
    /// from `seed`. Compact — the deployment is re-derived on load.
    Uniform { n: usize, side: f64, seed: u64 },
    /// Arbitrary deployment, embedded verbatim (library users with
    /// non-generated topologies).
    Explicit { deployment: Deployment },
}

impl TopologyManifest {
    /// Materializes the deployment this manifest describes.
    pub fn deployment(&self) -> Deployment {
        match self {
            TopologyManifest::Uniform { n, side, seed } => {
                DeploymentConfig::uniform(*n, *side).generate(*seed)
            }
            TopologyManifest::Explicit { deployment } => deployment.clone(),
        }
    }

    /// Number of sensors in the described topology.
    pub fn n_sensors(&self) -> usize {
        match self {
            TopologyManifest::Uniform { n, .. } => *n,
            TopologyManifest::Explicit { deployment } => deployment.n(),
        }
    }
}

/// Everything needed to reconstruct the recorded run: topology, radio
/// range, and the full [`RuntimeConfig`] (which embeds the fault seed —
/// the fault schedule is a pure function of `(config.faults, n)`).
///
/// The initial plan is **not** embedded: it is re-derived by running the
/// default SHDG planner over the reconstructed network, which is
/// deterministic. Replay self-check (original-policy replay must
/// reproduce the recorded trace byte-for-byte) catches any mismatch — a
/// trace recorded from a non-default plan fails self-check loudly rather
/// than silently replaying a different run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayManifest {
    /// The recorded run's topology.
    pub topology: TopologyManifest,
    /// Transmission range, meters.
    pub range: f64,
    /// The exact runtime configuration of the recorded run.
    pub config: RuntimeConfig,
}

impl ReplayManifest {
    /// Rebuilds the recorded run's network.
    pub fn network(&self) -> Network {
        Network::build(self.topology.deployment(), self.range)
    }
}

/// The bundle header: first line of a headered trace file.
///
/// The `mdg_trace` field doubles as the format marker — a line missing it
/// is not a header. `manifest` is optional so traces can stay
/// self-describing about their format version even when the recorder has
/// no replayable manifest to attach.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Format marker; always [`TRACE_MAGIC`] when written by this crate.
    pub mdg_trace: String,
    /// Bundle format version ([`TRACE_VERSION`] when written here).
    pub version: u32,
    /// Reconstruction manifest; `None` = trace-only bundle (parseable,
    /// not replayable).
    pub manifest: Option<ReplayManifest>,
}

impl TraceHeader {
    /// A v1 header carrying `manifest`.
    pub fn new(manifest: ReplayManifest) -> Self {
        TraceHeader {
            mdg_trace: TRACE_MAGIC.to_string(),
            version: TRACE_VERSION,
            manifest: Some(manifest),
        }
    }
}

/// A parsed trace file: optional header plus the round records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBundle {
    /// The header, when the file had one (`None` = legacy headerless).
    pub header: Option<TraceHeader>,
    /// The per-round records, in round order.
    pub records: Vec<RoundRecord>,
}

/// Writes [`RoundRecord`]s as JSON Lines, optionally preceded by a
/// [`TraceHeader`] line.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `sink` without a header (legacy layout). Each record becomes
    /// one `\n`-terminated JSON line.
    pub fn new(sink: W) -> Self {
        TraceWriter { sink, records: 0 }
    }

    /// Wraps `sink` and writes `header` as the first line, making the
    /// file a self-describing bundle that [`parse_bundle`] (and replay)
    /// can consume.
    pub fn with_header(mut sink: W, header: &TraceHeader) -> std::io::Result<Self> {
        let line = serde_json::to_string(header)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        sink.write_all(line.as_bytes())?;
        sink.write_all(b"\n")?;
        Ok(TraceWriter { sink, records: 0 })
    }

    /// Appends one record.
    pub fn record(&mut self, rec: &RoundRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(rec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.sink.write_all(line.as_bytes())?;
        self.sink.write_all(b"\n")?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far (the header line not included).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying sink.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Whether `line` is a bundle header line (carries the `mdg_trace`
/// marker field). Deliberately shallow: version/manifest validity is
/// checked by [`parse_bundle`], not here.
fn is_header_line(line: &str) -> bool {
    serde_json::parse_value(line)
        .ok()
        .is_some_and(|v| v.get("mdg_trace").is_some())
}

/// Parses a JSONL trace back into records (inverse of [`TraceWriter`]).
///
/// Accepts both layouts: a leading header line, if present, is skipped —
/// use [`parse_bundle`] to keep it. A header anywhere but the first
/// non-empty line is an error.
pub fn parse_trace(text: &str) -> Result<Vec<RoundRecord>, String> {
    parse_bundle(text).map(|b| b.records)
}

/// Parses a JSONL trace file into a [`TraceBundle`]: the header (when
/// present and of a supported version) plus every round record.
///
/// Errors on: malformed lines, a header that is not the first non-empty
/// line, and a header whose `version` is newer than [`TRACE_VERSION`]
/// (records from a future format cannot be trusted to mean the same
/// thing).
pub fn parse_bundle(text: &str) -> Result<TraceBundle, String> {
    let mut header = None;
    let mut records = Vec::new();
    for (idx, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        if is_header_line(line) {
            if !records.is_empty() || header.is_some() {
                return Err(format!(
                    "line {}: bundle header must be the first line of the trace",
                    idx + 1
                ));
            }
            let h: TraceHeader = serde_json::from_str(line)
                .map_err(|e| format!("line {}: bad trace header: {e}", idx + 1))?;
            if h.version > TRACE_VERSION {
                return Err(format!(
                    "trace format v{} is newer than this binary supports (v{TRACE_VERSION}); \
                     upgrade mdg to read it",
                    h.version
                ));
            }
            header = Some(h);
        } else {
            let rec = serde_json::from_str(line)
                .map_err(|e| format!("line {}: bad trace line: {e}", idx + 1))?;
            records.push(rec);
        }
    }
    Ok(TraceBundle { header, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;

    fn sample(round: u64) -> RoundRecord {
        RoundRecord {
            round,
            t_start_secs: 12.5 * round as f64,
            duration_secs: 12.5,
            n_alive: 40,
            delivered: 39,
            expected: 40,
            retries: 3,
            attempt_failures: 4,
            drops: 1,
            orphans: 0,
            orphan_secs_total: 0.0,
            repaired: round == 1,
            stops_removed: 0,
            stops_added: 0,
            full_replan: false,
            repair_ops: 17,
            tour_length_m: 321.0,
        }
    }

    fn sample_header() -> TraceHeader {
        TraceHeader::new(ReplayManifest {
            topology: TopologyManifest::Uniform {
                n: 40,
                side: 200.0,
                seed: 7,
            },
            range: 30.0,
            config: RuntimeConfig {
                faults: FaultConfig {
                    seed: 7,
                    loss_rate: 0.1,
                    ..FaultConfig::default()
                },
                max_rounds: 5,
                ..RuntimeConfig::default()
            },
        })
    }

    #[test]
    fn round_trips_through_jsonl() {
        let mut w = TraceWriter::new(Vec::new());
        w.record(&sample(0)).unwrap();
        w.record(&sample(1)).unwrap();
        assert_eq!(w.records_written(), 2);
        let bytes = w.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, vec![sample(0), sample(1)]);
    }

    #[test]
    fn identical_records_serialize_identically() {
        let a = serde_json::to_string(&sample(3)).unwrap();
        let b = serde_json::to_string(&sample(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace("{not json}").is_err());
    }

    #[test]
    fn too_deep_lines_are_rejected() {
        // A valid record line followed by a line nested far past the JSON
        // parser's bound: an error naming the line, not a stack overflow.
        let record_line = serde_json::to_string(&sample(0)).unwrap();
        let text = format!("{record_line}\n{}\n", "[".repeat(1 << 20));
        let err = parse_bundle(&text).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("nesting"),
            "got: {err}"
        );
    }

    #[test]
    fn headered_bundle_round_trips() {
        let header = sample_header();
        let mut w = TraceWriter::with_header(Vec::new(), &header).unwrap();
        w.record(&sample(0)).unwrap();
        w.record(&sample(1)).unwrap();
        assert_eq!(w.records_written(), 2, "header line is not a record");
        let text = String::from_utf8(w.into_inner().unwrap()).unwrap();
        assert_eq!(text.lines().count(), 3);

        let bundle = parse_bundle(&text).unwrap();
        assert_eq!(bundle.header.as_ref(), Some(&header));
        assert_eq!(bundle.records, vec![sample(0), sample(1)]);

        // parse_trace on the same file skips the header transparently.
        assert_eq!(parse_trace(&text).unwrap(), bundle.records);
    }

    #[test]
    fn headerless_bundle_has_no_header() {
        let mut w = TraceWriter::new(Vec::new());
        w.record(&sample(0)).unwrap();
        let text = String::from_utf8(w.into_inner().unwrap()).unwrap();
        let bundle = parse_bundle(&text).unwrap();
        assert!(bundle.header.is_none());
        assert_eq!(bundle.records.len(), 1);
    }

    #[test]
    fn future_version_is_rejected() {
        let mut header = sample_header();
        header.version = TRACE_VERSION + 1;
        let w = TraceWriter::with_header(Vec::new(), &header).unwrap();
        let text = String::from_utf8(w.into_inner().unwrap()).unwrap();
        let err = parse_bundle(&text).unwrap_err();
        assert!(err.contains("newer than this binary"), "got: {err}");
    }

    #[test]
    fn misplaced_header_is_rejected() {
        let header_line = serde_json::to_string(&sample_header()).unwrap();
        let record_line = serde_json::to_string(&sample(0)).unwrap();
        let text = format!("{record_line}\n{header_line}\n");
        let err = parse_bundle(&text).unwrap_err();
        assert!(err.contains("first line"), "got: {err}");
    }

    #[test]
    fn uniform_manifest_rebuilds_the_same_network() {
        let m = sample_header().manifest.unwrap();
        let a = m.network();
        let b = m.network();
        assert_eq!(a.deployment.sensors, b.deployment.sensors);
        assert_eq!(a.n_sensors(), 40);
        assert_eq!(a.range, 30.0);
    }

    #[test]
    fn explicit_manifest_embeds_the_deployment() {
        let dep = DeploymentConfig::uniform(12, 100.0).generate(3);
        let m = ReplayManifest {
            topology: TopologyManifest::Explicit {
                deployment: dep.clone(),
            },
            range: 25.0,
            config: RuntimeConfig::default(),
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: ReplayManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.topology.deployment().sensors, dep.sensors);
        assert_eq!(back.topology.n_sensors(), 12);
    }
}
