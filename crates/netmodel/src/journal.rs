//! On-disk record codec for the write-ahead delta journal.
//!
//! A journal is a plain-text file of newline-delimited records. Each line is
//!
//! ```text
//! <crc32> <json>\n
//! ```
//!
//! where `<crc32>` is the IEEE CRC-32 of the JSON bytes as eight lowercase
//! hex digits and `<json>` is one compact (single-line) JSON object carrying
//! a `"kind"` tag. Four record kinds exist:
//!
//! * `preamble` — format version plus the immutable problem context: the
//!   [`Catalog`], the [`ProductSimilarity`] matrix and the [`ConstraintSet`].
//!   Always the first record of a journal.
//! * `snapshot` — the full evolvable state at a revision: the exact
//!   [`Network`] (all revision counters included) and the current
//!   [`Assignment`], if any. Recovery starts from the last snapshot.
//! * `batch` — one committed `apply_batch` call: a sequence number, the
//!   network revision *after* the commit, the applied [`NetworkDelta`]s
//!   and the committed assignment as [`ChangedRows`]: the table's length
//!   and only the rows that differ from the assignment of the record
//!   before it. Recovery replays these after the snapshot. (Format 1 batch
//!   records carried the whole table, an array of rows, as their
//!   `"assignment"`; they still read, as a [`ChangedRows`] that lists
//!   every row.)
//! * `mark` — an application-level annotation (label plus numeric fields),
//!   checksummed like everything else but ignored by engine recovery. The
//!   churn harness uses marks to record per-step MTTC so a replay can diff
//!   trajectories.
//!
//! The JSON codec is hand-rolled (the build environment is offline, so
//! `serde_json` is unavailable): records decode through [`nvd::json`]'s
//! recursive-descent parser into its small [`Value`] tree, and direct
//! string writers encode them. Writers are deterministic — identical state
//! produces identical bytes, which the golden-file test in
//! `tests/tests/journal.rs` pins.
//!
//! Torn and corrupt tails are first-class: [`read_tolerant`] accepts the
//! longest prefix of checksum-valid records and reports where (and why) the
//! first bad byte appeared, so crash recovery can truncate at the last good
//! record instead of failing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use nvd::json::{parse_value, JsonError, Value};

use crate::assignment::Assignment;
use crate::catalog::{Catalog, ProductSimilarity};
use crate::constraints::{Constraint, ConstraintSet, Scope};
use crate::delta::NetworkDelta;
use crate::network::{Host, Network, ServiceInstance};
use crate::{Error, HostId, ProductId, Result, ServiceId};

/// The on-disk format version written into every preamble. Bump on any
/// incompatible codec change; readers accept every version from 1 up to
/// this one and reject the rest.
///
/// Version 2 replaced the batch record's whole-table `"assignment"` with
/// the changed rows alone ([`ChangedRows`]).
pub const FORMAT_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected): the per-record checksum, computed
// slicing-by-8 so the hot append path folds eight bytes per step.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which lets eight table lookups
/// stand in for eight bytewise steps.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The IEEE CRC-32 of `bytes` (the variant used by zip/gzip/Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Folds `bytes` into a running (pre-inverted) CRC-32 state, so a long
/// line can be checksummed in slices.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

// ---------------------------------------------------------------------------
// Record types.
// ---------------------------------------------------------------------------

/// The immutable problem context, written once at the head of a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Preamble {
    /// On-disk format version ([`FORMAT_VERSION`] when written by this code).
    pub format: u64,
    /// The service/product universe.
    pub catalog: Catalog,
    /// The dense product-pair similarity matrix.
    pub similarity: ProductSimilarity,
    /// The constraint set the engine was configured with.
    pub constraints: ConstraintSet,
}

/// Full evolvable state at one revision: recovery's starting point.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// The network revision this snapshot captures.
    pub revision: u64,
    /// The exact network, revision counters included.
    pub network: Network,
    /// The committed assignment at that revision, if the engine had solved.
    pub assignment: Option<Assignment>,
}

/// One committed `apply_batch` call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Monotone per-journal sequence number (survives compaction).
    pub seq: u64,
    /// The network revision *after* this batch committed.
    pub revision: u64,
    /// The deltas the batch applied, in order.
    pub deltas: Vec<NetworkDelta>,
    /// The committed assignment *after* the batch's re-solve, as the rows
    /// that differ from the assignment of the record before it (`None`:
    /// the engine held no assignment). Recorded so recovery restores the
    /// exact committed state instead of re-running the solver (whose local
    /// optimum can depend on incremental cache layout the journal does not
    /// capture).
    pub assignment: Option<ChangedRows>,
}

/// A batch record's committed assignment: the table's length and the rows
/// that differ from the assignment the previous record left.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangedRows {
    /// Host rows in the committed table.
    pub len: usize,
    /// Each changed row, ascending by host, every host below `len`.
    pub rows: Vec<(HostId, Vec<ProductId>)>,
}

impl ChangedRows {
    /// Patches these rows into `assignment`, the assignment the previous
    /// record left: resizes it to `len` rows, then writes each changed row.
    ///
    /// # Panics
    ///
    /// Panics if a row's host is not below `len` (decoded records never
    /// hold one).
    pub fn apply_to(&self, assignment: &mut Assignment) {
        assignment.resize(self.len);
        for (host, row) in &self.rows {
            assignment.set_row(*host, row);
        }
    }
}

/// An application-level annotation; engine recovery skips these.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkRecord {
    /// A short label, e.g. `"churn-step"`.
    pub label: String,
    /// Named numeric fields. Non-finite values are not representable and
    /// are dropped at encode time.
    pub fields: BTreeMap<String, f64>,
}

impl MarkRecord {
    /// Builds a mark from a label and `(name, value)` pairs, dropping
    /// non-finite values (JSON cannot carry them).
    pub fn new(label: &str, fields: &[(&str, f64)]) -> MarkRecord {
        MarkRecord {
            label: label.to_owned(),
            fields: fields
                .iter()
                .filter(|(_, v)| v.is_finite())
                .map(|&(k, v)| (k.to_owned(), v))
                .collect(),
        }
    }

    /// The value of a field, if present.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.get(name).copied()
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Problem context (first record of every journal).
    Preamble(Preamble),
    /// Full state at a revision.
    Snapshot(SnapshotRecord),
    /// One committed delta batch.
    Batch(BatchRecord),
    /// Application annotation, ignored by engine recovery.
    Mark(MarkRecord),
}

impl Record {
    /// Encodes the record as one compact JSON object (no newline).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Record::Preamble(p) => encode_preamble(out, p),
            Record::Snapshot(s) => encode_snapshot(
                out,
                s.revision,
                &s.network,
                s.assignment.as_ref(),
                &mut no_pause,
            ),
            Record::Batch(b) => {
                let rows = b.assignment.as_ref().map(|c| {
                    let rows = c.rows.iter().map(|(host, row)| (*host, row.as_slice()));
                    (c.len, rows)
                });
                encode_batch(out, b.seq, b.revision, &b.deltas, rows)
            }
            Record::Mark(m) => encode_mark(out, m),
        }
    }

    /// Encodes the record as a full journal line: checksum, space, JSON,
    /// newline.
    pub fn to_line(&self) -> String {
        framed(128, &mut no_pause, |out, _| self.encode_into(out))
    }

    /// Decodes one record from its JSON body (checksum already verified).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Journal`] for malformed JSON, unknown record kinds
    /// or out-of-range ids.
    pub fn decode(json: &str) -> Result<Record> {
        let v = parse_value(json)?;
        let obj = v.as_object("record")?;
        let kind = get(obj, "kind", "record")?.as_str("kind")?;
        match kind {
            "preamble" => decode_preamble(obj),
            "snapshot" => decode_snapshot(obj),
            "batch" => decode_batch(obj),
            "mark" => decode_mark(obj),
            other => Err(Error::Journal(format!("unknown record kind {other:?}"))),
        }
    }
}

/// The journal line of a [`BatchRecord`] committing `assignment` after a
/// record that left `base`, encoded from borrowed parts: byte-identical to
/// `Record::Batch(..).to_line()` of the record whose [`ChangedRows`] are
/// `assignment`'s rows that differ from `base` (every non-empty row when
/// there is no `base`), without first copying the deltas and the rows
/// into a record. Finding the rows skips every chunk `assignment` shares
/// with `base` ([`Assignment::changed_rows`]).
pub fn batch_line(
    seq: u64,
    revision: u64,
    deltas: &[NetworkDelta],
    base: Option<&Assignment>,
    assignment: Option<&Assignment>,
) -> String {
    let empty = Assignment::default();
    let base = base.unwrap_or(&empty);
    let rows = assignment.map(|a| (a.host_rows(), a.changed_rows(base)));
    framed(128 + 64 * deltas.len(), &mut no_pause, |out, _| {
        encode_batch(out, seq, revision, deltas, rows)
    })
}

/// The journal line of a [`SnapshotRecord`] of `network` at its revision,
/// encoded from borrowed parts: byte-identical to
/// `Record::Snapshot(..).to_line()` without cloning the network.
pub fn snapshot_line(network: &Network, assignment: Option<&Assignment>) -> String {
    snapshot_line_sliced(network, assignment, no_pause)
}

/// Hosts (or assignment rows) [`snapshot_line_sliced`] encodes between two
/// pauses.
const SLICE_HOSTS: usize = 256;
/// Links [`snapshot_line_sliced`] encodes between two pauses.
const SLICE_LINKS: usize = 2048;
/// Line bytes [`snapshot_line_sliced`] checksums between two pauses.
const SLICE_BYTES: usize = 256 * 1024;

/// [`snapshot_line`] in slices: `pause` runs after every 256 hosts, every
/// 2,048 links, every 256 assignment rows and every 256 KiB checksummed,
/// so a background thread encoding a large snapshot can give up the
/// processor between slices. The line is byte-identical to
/// [`snapshot_line`]'s.
pub fn snapshot_line_sliced(
    network: &Network,
    assignment: Option<&Assignment>,
    mut pause: impl FnMut(),
) -> String {
    let capacity = 256 + 128 * network.host_count() + 16 * network.links().len();
    framed(capacity, &mut pause, |out, pause| {
        encode_snapshot(out, network.revision(), network, assignment, pause)
    })
}

/// The pause of an encoding nobody paces.
fn no_pause() {}

/// Calls `pause` before item `i` of a run when `i` starts a new slice of
/// `per` items.
fn slice_boundary(i: usize, per: usize, pause: &mut impl FnMut()) {
    if i > 0 && i.is_multiple_of(per) {
        pause();
    }
}

/// Encodes one record body with `encode` behind a checksum placeholder,
/// then fills in the checksum and the newline — the JSON is written once,
/// into the line itself. `pause` is handed to `encode` and runs between
/// the checksum's slices.
fn framed<P: FnMut()>(
    capacity: usize,
    pause: &mut P,
    encode: impl FnOnce(&mut String, &mut P),
) -> String {
    let mut line = String::with_capacity(capacity);
    line.push_str("00000000 ");
    encode(&mut line, pause);
    let mut crc = !0;
    for (i, slice) in line.as_bytes()[9..].chunks(SLICE_BYTES).enumerate() {
        if i > 0 {
            pause();
        }
        crc = crc32_update(crc, slice);
    }
    line.replace_range(..8, &format!("{:08x}", !crc));
    line.push('\n');
    line
}

// ---------------------------------------------------------------------------
// Line framing: strict single-record parse and the tolerant prefix reader.
// ---------------------------------------------------------------------------

/// Parses one journal line (without its trailing newline), verifying the
/// checksum before decoding.
///
/// # Errors
///
/// Returns [`Error::Journal`] for framing damage, checksum mismatches and
/// decode failures.
pub fn parse_record_line(line: &[u8]) -> Result<Record> {
    if line.len() < 10 || line[8] != b' ' {
        return Err(Error::Journal(format!(
            "malformed record frame ({} bytes)",
            line.len()
        )));
    }
    let hex = std::str::from_utf8(&line[..8])
        .map_err(|_| Error::Journal("checksum is not hex".into()))?;
    let stored = u32::from_str_radix(hex, 16)
        .map_err(|_| Error::Journal(format!("checksum is not hex: {hex:?}")))?;
    let body = &line[9..];
    let actual = crc32(body);
    if actual != stored {
        return Err(Error::Journal(format!(
            "checksum mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }
    let json =
        std::str::from_utf8(body).map_err(|_| Error::Journal("record body is not UTF-8".into()))?;
    Record::decode(json)
}

/// What the tolerant reader accepted from a journal image.
#[derive(Debug)]
pub struct JournalRead {
    /// The checksum-valid record prefix, in file order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix — truncating the file here drops
    /// exactly the damaged tail.
    pub valid_len: usize,
    /// Why reading stopped before the end of the image, if it did.
    pub corruption: Option<String>,
}

/// Reads the longest valid record prefix of a journal image, stopping at
/// the first framing, checksum or decode failure. A torn final line
/// (missing its newline) is still accepted if it validates — the record was
/// complete; only the terminator was lost.
pub fn read_tolerant(data: &[u8]) -> JournalRead {
    let mut records = Vec::new();
    let mut pos = 0;
    let mut corruption = None;
    while pos < data.len() {
        let (line, next) = match data[pos..].iter().position(|&b| b == b'\n') {
            Some(i) => (&data[pos..pos + i], pos + i + 1),
            None => (&data[pos..], data.len()),
        };
        match parse_record_line(line) {
            Ok(r) => {
                records.push(r);
                pos = next;
            }
            Err(e) => {
                corruption = Some(format!("record {} at byte {pos}: {e}", records.len()));
                break;
            }
        }
    }
    JournalRead {
        records,
        valid_len: pos,
        corruption,
    }
}

/// Reads a journal image, rejecting any damage.
///
/// # Errors
///
/// Returns [`Error::Journal`] describing the first bad record.
pub fn read_strict(data: &[u8]) -> Result<Vec<Record>> {
    let read = read_tolerant(data);
    match read.corruption {
        Some(why) => Err(Error::Journal(why)),
        None => Ok(read.records),
    }
}

// ---------------------------------------------------------------------------
// Encoders: direct, deterministic compact-JSON writers.
// ---------------------------------------------------------------------------

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shortest round-trippable decimal for a finite f64 (`{}` formatting is
/// guaranteed to parse back to the same bits).
fn fmt_f64(n: f64) -> String {
    debug_assert!(n.is_finite());
    format!("{n}")
}

/// Appends `v` in decimal — the bytes `write!(out, "{v}")` produces,
/// without the formatting machinery on the append path.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `prefix` (punctuation and a key) and then `v`.
fn push_field(out: &mut String, prefix: &str, v: impl Into<u64>) {
    out.push_str(prefix);
    push_u64(out, v.into());
}

fn push_u64_array(out: &mut String, items: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, v);
    }
    out.push(']');
}

fn encode_zone(out: &mut String, zone: Option<&str>) {
    match zone {
        Some(z) => push_quoted(out, z),
        None => out.push_str("null"),
    }
}

fn encode_services<'a>(
    out: &mut String,
    services: impl Iterator<Item = (ServiceId, &'a [ProductId])>,
) {
    out.push('[');
    for (i, (s, candidates)) in services.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(out, "[", s.0);
        out.push(',');
        push_u64_array(out, candidates.iter().map(|p| p.0 as u64));
        out.push(']');
    }
    out.push(']');
}

fn encode_catalog(out: &mut String, catalog: &Catalog) {
    out.push_str("{\"services\":[");
    for (i, (_, s)) in catalog.iter_services().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_quoted(out, s.name());
    }
    out.push_str("],\"products\":[");
    for (i, (_, p)) in catalog.iter_products().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_quoted(out, p.name());
        push_field(out, ",", p.service().0);
        out.push(']');
    }
    out.push_str("]}");
}

fn encode_similarity(out: &mut String, sim: &ProductSimilarity) {
    let n = sim.len();
    push_field(out, "{\"n\":", n as u64);
    out.push_str(",\"values\":[");
    let mut first = true;
    for i in 0..n {
        for j in 0..n {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&fmt_f64(sim.get(ProductId(i as u16), ProductId(j as u16))));
        }
    }
    out.push_str("]}");
}

fn encode_scope(out: &mut String, scope: Scope) {
    match scope {
        Scope::Host(h) => push_u64(out, h.0.into()),
        Scope::All => out.push_str("null"),
    }
}

fn encode_constraints(out: &mut String, set: &ConstraintSet) {
    out.push('[');
    for (i, c) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match *c {
            Constraint::Fix {
                host,
                service,
                product,
            } => {
                push_field(out, "{\"t\":\"fix\",\"host\":", host.0);
                push_field(out, ",\"service\":", service.0);
                push_field(out, ",\"product\":", product.0);
                out.push('}');
            }
            Constraint::ForbidCombination {
                scope,
                if_service,
                if_product,
                then_service,
                forbidden: other,
            }
            | Constraint::RequireCombination {
                scope,
                if_service,
                if_product,
                then_service,
                required: other,
            } => {
                out.push_str(if matches!(c, Constraint::ForbidCombination { .. }) {
                    "{\"t\":\"forbid\",\"scope\":"
                } else {
                    "{\"t\":\"require\",\"scope\":"
                });
                encode_scope(out, scope);
                push_field(out, ",\"if_service\":", if_service.0);
                push_field(out, ",\"if_product\":", if_product.0);
                push_field(out, ",\"then_service\":", then_service.0);
                push_field(out, ",\"other\":", other.0);
                out.push('}');
            }
        }
    }
    out.push(']');
}

fn encode_network(out: &mut String, n: &Network, pause: &mut impl FnMut()) {
    out.push_str("{\"hosts\":[");
    for (i, (_, h)) in n.iter_hosts().enumerate() {
        slice_boundary(i, SLICE_HOSTS, pause);
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_quoted(out, h.name());
        out.push_str(",\"zone\":");
        encode_zone(out, h.zone());
        out.push_str(",\"services\":");
        encode_services(
            out,
            h.services().iter().map(|s| (s.service(), s.candidates())),
        );
        out.push_str(if h.is_removed() {
            ",\"removed\":true}"
        } else {
            ",\"removed\":false}"
        });
    }
    out.push_str("],\"links\":[");
    for (i, &(a, b)) in n.links().iter().enumerate() {
        slice_boundary(i, SLICE_LINKS, pause);
        if i > 0 {
            out.push(',');
        }
        push_field(out, "[", a.0);
        push_field(out, ",", b.0);
        out.push(']');
    }
    push_field(out, "],\"revision\":", n.revision());
    out.push_str(",\"host_revisions\":");
    push_u64_array(
        out,
        (0..n.host_count()).map(|i| n.host_revision(HostId(i as u32))),
    );
    push_field(out, ",\"topology_revision\":", n.topology_revision());
    out.push_str(",\"link_revisions\":");
    push_u64_array(
        out,
        (0..n.host_count()).map(|i| n.link_revision(HostId(i as u32))),
    );
    out.push('}');
}

fn encode_assignment(
    out: &mut String,
    a: Option<&Assignment>,
    host_count: usize,
    pause: &mut impl FnMut(),
) {
    match a {
        None => out.push_str("null"),
        Some(a) => {
            out.push('[');
            for host in 0..host_count {
                slice_boundary(host, SLICE_HOSTS, pause);
                if host > 0 {
                    out.push(',');
                }
                push_u64_array(
                    out,
                    a.products_at(HostId(host as u32))
                        .iter()
                        .map(|p| p.0 as u64),
                );
            }
            out.push(']');
        }
    }
}

fn encode_delta(out: &mut String, d: &NetworkDelta) {
    match d {
        NetworkDelta::AddHost {
            name,
            zone,
            services,
            links,
        } => {
            out.push_str("{\"t\":\"add-host\",\"name\":");
            push_quoted(out, name);
            out.push_str(",\"zone\":");
            encode_zone(out, zone.as_deref());
            out.push_str(",\"services\":");
            encode_services(out, services.iter().map(|(s, c)| (*s, c.as_slice())));
            out.push_str(",\"links\":");
            push_u64_array(out, links.iter().map(|h| h.0 as u64));
            out.push('}');
        }
        NetworkDelta::RemoveHost { host } => {
            push_field(out, "{\"t\":\"remove-host\",\"host\":", host.0);
            out.push('}');
        }
        NetworkDelta::AddLink { a, b } => {
            push_field(out, "{\"t\":\"add-link\",\"a\":", a.0);
            push_field(out, ",\"b\":", b.0);
            out.push('}');
        }
        NetworkDelta::RemoveLink { a, b } => {
            push_field(out, "{\"t\":\"remove-link\",\"a\":", a.0);
            push_field(out, ",\"b\":", b.0);
            out.push('}');
        }
        NetworkDelta::FixSlot {
            host,
            service,
            product,
        } => {
            push_field(out, "{\"t\":\"fix-slot\",\"host\":", host.0);
            push_field(out, ",\"service\":", service.0);
            push_field(out, ",\"product\":", product.0);
            out.push('}');
        }
        NetworkDelta::UnfixSlot {
            host,
            service,
            candidates,
        } => {
            push_field(out, "{\"t\":\"unfix-slot\",\"host\":", host.0);
            push_field(out, ",\"service\":", service.0);
            out.push_str(",\"candidates\":");
            push_u64_array(out, candidates.iter().map(|p| p.0 as u64));
            out.push('}');
        }
        NetworkDelta::ExtendCandidates {
            host,
            service,
            products,
        } => {
            push_field(out, "{\"t\":\"extend-candidates\",\"host\":", host.0);
            push_field(out, ",\"service\":", service.0);
            out.push_str(",\"products\":");
            push_u64_array(out, products.iter().map(|p| p.0 as u64));
            out.push('}');
        }
    }
}

fn encode_preamble(out: &mut String, p: &Preamble) {
    push_field(out, "{\"kind\":\"preamble\",\"format\":", p.format);
    out.push_str(",\"catalog\":");
    encode_catalog(out, &p.catalog);
    out.push_str(",\"similarity\":");
    encode_similarity(out, &p.similarity);
    out.push_str(",\"constraints\":");
    encode_constraints(out, &p.constraints);
    out.push('}');
}

fn encode_snapshot(
    out: &mut String,
    revision: u64,
    network: &Network,
    assignment: Option<&Assignment>,
    pause: &mut impl FnMut(),
) {
    push_field(out, "{\"kind\":\"snapshot\",\"revision\":", revision);
    out.push_str(",\"network\":");
    encode_network(out, network, pause);
    out.push_str(",\"assignment\":");
    encode_assignment(out, assignment, network.host_count(), pause);
    out.push('}');
}

/// A batch record; `rows` is the committed table's length and its changed
/// rows, written as `{"len":N,"changed":[[host,[products]],...]}`.
fn encode_batch<'a>(
    out: &mut String,
    seq: u64,
    revision: u64,
    deltas: &[NetworkDelta],
    rows: Option<(usize, impl Iterator<Item = (HostId, &'a [ProductId])>)>,
) {
    push_field(out, "{\"kind\":\"batch\",\"seq\":", seq);
    push_field(out, ",\"revision\":", revision);
    out.push_str(",\"deltas\":[");
    for (i, d) in deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_delta(out, d);
    }
    out.push_str("],\"assignment\":");
    match rows {
        None => out.push_str("null"),
        Some((len, rows)) => {
            push_field(out, "{\"len\":", len as u64);
            out.push_str(",\"changed\":[");
            for (i, (host, row)) in rows.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_field(out, "[", host.0);
                out.push(',');
                push_u64_array(out, row.iter().map(|p| u64::from(p.0)));
                out.push(']');
            }
            out.push_str("]}");
        }
    }
    out.push('}');
}

fn encode_mark(out: &mut String, m: &MarkRecord) {
    out.push_str("{\"kind\":\"mark\",\"label\":");
    push_quoted(out, &m.label);
    out.push_str(",\"fields\":{");
    let mut first = true;
    for (k, v) in &m.fields {
        if !v.is_finite() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        push_quoted(out, k);
        out.push(':');
        out.push_str(&fmt_f64(*v));
    }
    out.push_str("}}");
}

// ---------------------------------------------------------------------------
// Decoders.
// ---------------------------------------------------------------------------

fn get<'a>(obj: &'a BTreeMap<String, Value>, key: &str, what: &str) -> Result<&'a Value> {
    obj.get(key)
        .ok_or_else(|| Error::Journal(format!("{what} missing `{key}`")))
}

fn as_u64(v: &Value, what: &str) -> Result<u64> {
    let n = v.as_number(what)?;
    if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
        return Err(Error::Journal(format!(
            "{what}: {n} is not a valid integer"
        )));
    }
    Ok(n as u64)
}

fn as_host(v: &Value, what: &str) -> Result<HostId> {
    let n = as_u64(v, what)?;
    u32::try_from(n)
        .map(HostId)
        .map_err(|_| Error::Journal(format!("{what}: host id {n} out of range")))
}

fn as_service(v: &Value, what: &str) -> Result<ServiceId> {
    let n = as_u64(v, what)?;
    u16::try_from(n)
        .map(ServiceId)
        .map_err(|_| Error::Journal(format!("{what}: service id {n} out of range")))
}

fn as_product(v: &Value, what: &str) -> Result<ProductId> {
    let n = as_u64(v, what)?;
    u16::try_from(n)
        .map(ProductId)
        .map_err(|_| Error::Journal(format!("{what}: product id {n} out of range")))
}

fn decode_zone(v: &Value) -> Result<Option<String>> {
    match v {
        Value::Null => Ok(None),
        other => Ok(Some(other.as_str("zone")?.to_owned())),
    }
}

fn decode_products(v: &Value, what: &str) -> Result<Vec<ProductId>> {
    v.as_array(what)?
        .iter()
        .map(|p| as_product(p, what))
        .collect()
}

fn decode_services_list(v: &Value, what: &str) -> Result<Vec<(ServiceId, Vec<ProductId>)>> {
    v.as_array(what)?
        .iter()
        .map(|entry| {
            let pair = entry.as_array(what)?;
            if pair.len() != 2 {
                return Err(Error::Journal(format!(
                    "{what}: expected [service, candidates] pair"
                )));
            }
            Ok((
                as_service(&pair[0], what)?,
                decode_products(&pair[1], what)?,
            ))
        })
        .collect()
}

fn decode_catalog(v: &Value) -> Result<Catalog> {
    let obj = v.as_object("catalog")?;
    let mut catalog = Catalog::new();
    for s in get(obj, "services", "catalog")?.as_array("services")? {
        catalog.add_service(s.as_str("service name")?);
    }
    for p in get(obj, "products", "catalog")?.as_array("products")? {
        let pair = p.as_array("product")?;
        if pair.len() != 2 {
            return Err(Error::Journal(
                "product: expected [name, service] pair".into(),
            ));
        }
        let name = pair[0].as_str("product name")?;
        let service = as_service(&pair[1], "product service")?;
        catalog
            .add_product(name, service)
            .map_err(|e| Error::Journal(format!("catalog rebuild: {e}")))?;
    }
    Ok(catalog)
}

fn decode_similarity(v: &Value) -> Result<ProductSimilarity> {
    let obj = v.as_object("similarity")?;
    let n = as_u64(get(obj, "n", "similarity")?, "similarity n")? as usize;
    let values: Vec<f64> = get(obj, "values", "similarity")?
        .as_array("similarity values")?
        .iter()
        .map(|x| x.as_number("similarity value"))
        .collect::<std::result::Result<_, JsonError>>()?;
    if values.len() != n * n {
        return Err(Error::Journal(format!(
            "similarity: expected {} values for n={n}, got {}",
            n * n,
            values.len()
        )));
    }
    Ok(ProductSimilarity::from_dense(n, values))
}

fn decode_scope(v: &Value) -> Result<Scope> {
    match v {
        Value::Null => Ok(Scope::All),
        other => Ok(Scope::Host(as_host(other, "scope")?)),
    }
}

fn decode_constraints(v: &Value) -> Result<ConstraintSet> {
    let mut set = ConstraintSet::new();
    for c in v.as_array("constraints")? {
        let obj = c.as_object("constraint")?;
        let t = get(obj, "t", "constraint")?.as_str("constraint type")?;
        let c = match t {
            "fix" => Constraint::Fix {
                host: as_host(get(obj, "host", "fix")?, "fix host")?,
                service: as_service(get(obj, "service", "fix")?, "fix service")?,
                product: as_product(get(obj, "product", "fix")?, "fix product")?,
            },
            "forbid" | "require" => {
                let scope = decode_scope(get(obj, "scope", t)?)?;
                let if_service = as_service(get(obj, "if_service", t)?, "if_service")?;
                let if_product = as_product(get(obj, "if_product", t)?, "if_product")?;
                let then_service = as_service(get(obj, "then_service", t)?, "then_service")?;
                let other = as_product(get(obj, "other", t)?, "other")?;
                if t == "forbid" {
                    Constraint::ForbidCombination {
                        scope,
                        if_service,
                        if_product,
                        then_service,
                        forbidden: other,
                    }
                } else {
                    Constraint::RequireCombination {
                        scope,
                        if_service,
                        if_product,
                        then_service,
                        required: other,
                    }
                }
            }
            other => return Err(Error::Journal(format!("unknown constraint type {other:?}"))),
        };
        set.push(c);
    }
    Ok(set)
}

fn decode_network(v: &Value) -> Result<Network> {
    let obj = v.as_object("network")?;
    let mut hosts = Vec::new();
    for h in get(obj, "hosts", "network")?.as_array("hosts")? {
        let h = h.as_object("host")?;
        let services = decode_services_list(get(h, "services", "host")?, "host services")?
            .into_iter()
            .map(|(service, candidates)| ServiceInstance {
                service,
                candidates,
            })
            .collect();
        hosts.push(Arc::new(Host {
            name: get(h, "name", "host")?.as_str("host name")?.to_owned(),
            zone: decode_zone(get(h, "zone", "host")?)?,
            services,
            removed: match get(h, "removed", "host")? {
                Value::Bool(b) => *b,
                other => {
                    return Err(Error::Journal(format!(
                        "host removed: expected bool, got {}",
                        other.type_name()
                    )))
                }
            },
        }));
    }
    let n = hosts.len();
    let mut links = Vec::new();
    for l in get(obj, "links", "network")?.as_array("links")? {
        let pair = l.as_array("link")?;
        if pair.len() != 2 {
            return Err(Error::Journal("link: expected [a, b] pair".into()));
        }
        let a = as_host(&pair[0], "link endpoint")?;
        let b = as_host(&pair[1], "link endpoint")?;
        if a.index() >= n || b.index() >= n {
            return Err(Error::Journal(format!(
                "link {a}-{b}: endpoint out of range"
            )));
        }
        // Deltas edit the adjacency by binary search, so links must arrive
        // as the encoder writes them: strictly ascending `a < b` pairs.
        if a >= b || links.last().is_some_and(|&last| last >= (a, b)) {
            return Err(Error::Journal(format!(
                "link {a}-{b}: links must be ascending pairs with a < b"
            )));
        }
        links.push((a, b));
    }
    let host_revisions: Vec<u64> = get(obj, "host_revisions", "network")?
        .as_array("host_revisions")?
        .iter()
        .map(|x| as_u64(x, "host revision"))
        .collect::<Result<_>>()?;
    let link_revisions: Vec<u64> = get(obj, "link_revisions", "network")?
        .as_array("link_revisions")?
        .iter()
        .map(|x| as_u64(x, "link revision"))
        .collect::<Result<_>>()?;
    if host_revisions.len() != n || link_revisions.len() != n {
        return Err(Error::Journal(format!(
            "revision vectors ({}, {}) do not match host count {n}",
            host_revisions.len(),
            link_revisions.len()
        )));
    }
    let mut network = Network {
        hosts,
        links,
        offsets: Vec::new(),
        neighbors: Vec::new(),
        revision: as_u64(get(obj, "revision", "network")?, "network revision")?,
        host_revisions,
        topology_revision: as_u64(
            get(obj, "topology_revision", "network")?,
            "topology revision",
        )?,
        link_revisions,
    };
    network.rebuild_adjacency();
    Ok(network)
}

fn decode_assignment(v: &Value) -> Result<Option<Assignment>> {
    match v {
        Value::Null => Ok(None),
        other => {
            let rows: Vec<Vec<ProductId>> = other
                .as_array("assignment")?
                .iter()
                .map(|row| decode_products(row, "assignment row"))
                .collect::<Result<_>>()?;
            Ok(Some(Assignment::from_slots(rows)))
        }
    }
}

fn decode_delta(v: &Value) -> Result<NetworkDelta> {
    let obj = v.as_object("delta")?;
    let t = get(obj, "t", "delta")?.as_str("delta type")?;
    Ok(match t {
        "add-host" => NetworkDelta::AddHost {
            name: get(obj, "name", t)?.as_str("host name")?.to_owned(),
            zone: decode_zone(get(obj, "zone", t)?)?,
            services: decode_services_list(get(obj, "services", t)?, "delta services")?,
            links: get(obj, "links", t)?
                .as_array("delta links")?
                .iter()
                .map(|h| as_host(h, "delta link"))
                .collect::<Result<_>>()?,
        },
        "remove-host" => NetworkDelta::RemoveHost {
            host: as_host(get(obj, "host", t)?, "delta host")?,
        },
        "add-link" => NetworkDelta::AddLink {
            a: as_host(get(obj, "a", t)?, "delta endpoint")?,
            b: as_host(get(obj, "b", t)?, "delta endpoint")?,
        },
        "remove-link" => NetworkDelta::RemoveLink {
            a: as_host(get(obj, "a", t)?, "delta endpoint")?,
            b: as_host(get(obj, "b", t)?, "delta endpoint")?,
        },
        "fix-slot" => NetworkDelta::FixSlot {
            host: as_host(get(obj, "host", t)?, "delta host")?,
            service: as_service(get(obj, "service", t)?, "delta service")?,
            product: as_product(get(obj, "product", t)?, "delta product")?,
        },
        "unfix-slot" => NetworkDelta::UnfixSlot {
            host: as_host(get(obj, "host", t)?, "delta host")?,
            service: as_service(get(obj, "service", t)?, "delta service")?,
            candidates: decode_products(get(obj, "candidates", t)?, "delta candidates")?,
        },
        "extend-candidates" => NetworkDelta::ExtendCandidates {
            host: as_host(get(obj, "host", t)?, "delta host")?,
            service: as_service(get(obj, "service", t)?, "delta service")?,
            products: decode_products(get(obj, "products", t)?, "delta products")?,
        },
        other => return Err(Error::Journal(format!("unknown delta type {other:?}"))),
    })
}

fn decode_preamble(obj: &BTreeMap<String, Value>) -> Result<Record> {
    let format = as_u64(get(obj, "format", "preamble")?, "format")?;
    if !(1..=FORMAT_VERSION).contains(&format) {
        return Err(Error::Journal(format!(
            "unsupported journal format {format} (this reader knows 1 to {FORMAT_VERSION})"
        )));
    }
    Ok(Record::Preamble(Preamble {
        format,
        catalog: decode_catalog(get(obj, "catalog", "preamble")?)?,
        similarity: decode_similarity(get(obj, "similarity", "preamble")?)?,
        constraints: decode_constraints(get(obj, "constraints", "preamble")?)?,
    }))
}

fn decode_snapshot(obj: &BTreeMap<String, Value>) -> Result<Record> {
    Ok(Record::Snapshot(SnapshotRecord {
        revision: as_u64(get(obj, "revision", "snapshot")?, "snapshot revision")?,
        network: decode_network(get(obj, "network", "snapshot")?)?,
        assignment: decode_assignment(get(obj, "assignment", "snapshot")?)?,
    }))
}

fn decode_batch(obj: &BTreeMap<String, Value>) -> Result<Record> {
    Ok(Record::Batch(BatchRecord {
        seq: as_u64(get(obj, "seq", "batch")?, "batch seq")?,
        revision: as_u64(get(obj, "revision", "batch")?, "batch revision")?,
        deltas: get(obj, "deltas", "batch")?
            .as_array("deltas")?
            .iter()
            .map(decode_delta)
            .collect::<Result<_>>()?,
        assignment: match get(obj, "assignment", "batch")? {
            Value::Null => None,
            // Format 1: the whole committed table, read as every row
            // changed (so patching it in rewrites the whole table).
            full @ Value::Array(_) => decode_assignment(full)?.map(|table| ChangedRows {
                len: table.host_rows(),
                rows: table
                    .rows()
                    .enumerate()
                    .map(|(h, row)| (HostId(h as u32), row.to_vec()))
                    .collect(),
            }),
            changed => Some(decode_changed_rows(changed)?),
        },
    }))
}

/// A format 2 batch record's `"assignment"`: the table length and its
/// changed rows, strictly ascending by host and each below the length.
fn decode_changed_rows(v: &Value) -> Result<ChangedRows> {
    let obj = v.as_object("batch rows")?;
    let len = as_u64(get(obj, "len", "batch rows")?, "batch rows len")?;
    let len = usize::try_from(len)
        .map_err(|_| Error::Journal(format!("batch rows len {len} out of range")))?;
    let mut rows: Vec<(HostId, Vec<ProductId>)> = Vec::new();
    for entry in get(obj, "changed", "batch rows")?.as_array("changed rows")? {
        let pair = entry.as_array("changed row")?;
        let [host, products] = pair else {
            return Err(Error::Journal(
                "changed row: expected [host, products] pair".into(),
            ));
        };
        let host = as_host(host, "changed row host")?;
        if host.index() >= len || rows.last().is_some_and(|(prev, _)| *prev >= host) {
            return Err(Error::Journal(format!(
                "changed row host {} is out of order or past the table's {len} rows",
                host.0
            )));
        }
        rows.push((host, decode_products(products, "changed row")?));
    }
    Ok(ChangedRows { len, rows })
}

fn decode_mark(obj: &BTreeMap<String, Value>) -> Result<Record> {
    let fields = get(obj, "fields", "mark")?
        .as_object("mark fields")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_number("mark field")?)))
        .collect::<Result<_>>()?;
    Ok(Record::Mark(MarkRecord {
        label: get(obj, "label", "mark")?.as_str("mark label")?.to_owned(),
        fields,
    }))
}

/// A malformed journal line's JSON, or a field of the wrong type, is a
/// journal error with the parser's message.
impl From<JsonError> for Error {
    fn from(e: JsonError) -> Error {
        Error::Journal(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;

    #[test]
    fn crc32_check_value() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook one-lookup-per-byte CRC the slicing-by-8 loop replaces.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=64 {
            for _ in 0..8 {
                let buf: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 24) as u8
                    })
                    .collect();
                assert_eq!(crc32(&buf), crc32_bytewise(&buf), "length {len}: {buf:?}");
                // Misaligned views of the same bytes too.
                if len > 3 {
                    assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]));
                }
            }
        }
    }

    #[test]
    fn digit_writer_matches_format() {
        for v in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn borrowed_line_builders_match_the_record_encoding() {
        let (catalog, _, mut network) = small_world();
        let deltas = vec![
            NetworkDelta::fix_slot(HostId(1), ServiceId(0), ProductId(1)),
            NetworkDelta::add_host(
                "n",
                vec![(ServiceId(0), vec![ProductId(0)])],
                vec![HostId(0)],
            ),
        ];
        network.apply_all(&deltas, &catalog).unwrap();
        let base = Assignment::from_slots(vec![vec![ProductId(0)], vec![ProductId(1)]]);
        let assignment = Assignment::from_slots(vec![
            vec![ProductId(0)],
            vec![ProductId(1), ProductId(2)],
            vec![ProductId(0)],
        ]);
        let row = |h: u32, products: &[u16]| {
            (HostId(h), products.iter().map(|&p| ProductId(p)).collect())
        };
        let cases = [
            (None, None, None),
            (
                None,
                Some(&assignment),
                Some(ChangedRows {
                    len: 3,
                    rows: vec![row(0, &[0]), row(1, &[1, 2]), row(2, &[0])],
                }),
            ),
            (
                Some(&base),
                Some(&assignment),
                Some(ChangedRows {
                    len: 3,
                    rows: vec![row(1, &[1, 2]), row(2, &[0])],
                }),
            ),
        ];
        for (base, assignment, rows) in cases {
            let record = Record::Batch(BatchRecord {
                seq: 7,
                revision: network.revision(),
                deltas: deltas.clone(),
                assignment: rows,
            });
            assert_eq!(
                batch_line(7, network.revision(), &deltas, base, assignment),
                record.to_line()
            );
            let record = Record::Snapshot(SnapshotRecord {
                revision: network.revision(),
                network: network.clone(),
                assignment: assignment.cloned(),
            });
            assert_eq!(snapshot_line(&network, assignment), record.to_line());
        }
    }

    #[test]
    fn sliced_snapshot_line_is_byte_identical() {
        use crate::topology::{generate, RandomNetworkConfig, TopologyKind};
        // Large enough for every slice kind: 3,000 hosts, ~12,000 links,
        // a line over 256 KiB.
        let g = generate(
            &RandomNetworkConfig {
                hosts: 3000,
                mean_degree: 8,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            11,
        );
        let network = g.network;
        let rows = network
            .iter_hosts()
            .map(|(_, h)| h.services().iter().map(|s| s.candidates()[0]).collect())
            .collect();
        let assignment = Assignment::from_slots(rows);
        for assignment in [None, Some(&assignment)] {
            let mut pauses = 0;
            let sliced = snapshot_line_sliced(&network, assignment, || pauses += 1);
            assert_eq!(sliced, snapshot_line(&network, assignment));
            let expected = (3000 - 1) / SLICE_HOSTS
                + (network.links().len() - 1) / SLICE_LINKS
                + assignment.map_or(0, |_| (3000 - 1) / SLICE_HOSTS)
                + (sliced.len() - 10 - 1) / SLICE_BYTES;
            assert!(sliced.len() > SLICE_BYTES, "line of {} bytes", sliced.len());
            assert_eq!(pauses, expected);
        }
    }

    fn small_world() -> (Catalog, ProductSimilarity, Network) {
        let mut catalog = Catalog::new();
        let os = catalog.add_service("os");
        let db = catalog.add_service("db");
        let p0 = catalog.add_product("Win7", os).unwrap();
        let p1 = catalog.add_product("Ubuntu", os).unwrap();
        let p2 = catalog.add_product("Pg", db).unwrap();
        let sim = ProductSimilarity::uniform(&catalog, 0.25);
        let mut b = NetworkBuilder::new();
        let a = b.add_host_in_zone("a", "Z");
        let z = b.add_host("ü-host");
        b.add_service(a, os, vec![p0, p1]).unwrap();
        b.add_service(z, os, vec![p0, p1]).unwrap();
        b.add_service(z, db, vec![p2]).unwrap();
        b.add_link(a, z).unwrap();
        let network = b.build(&catalog).unwrap();
        (catalog, sim, network)
    }

    #[test]
    fn preamble_roundtrip() {
        let (catalog, sim, _) = small_world();
        let mut constraints = ConstraintSet::new();
        constraints.push(Constraint::fix(HostId(0), ServiceId(0), ProductId(1)));
        constraints.push(Constraint::forbid_combination(
            Scope::All,
            (ServiceId(0), ProductId(0)),
            (ServiceId(1), ProductId(2)),
        ));
        constraints.push(Constraint::require_combination(
            Scope::Host(HostId(1)),
            (ServiceId(0), ProductId(1)),
            (ServiceId(1), ProductId(2)),
        ));
        let record = Record::Preamble(Preamble {
            format: FORMAT_VERSION,
            catalog,
            similarity: sim,
            constraints,
        });
        let back = parse_record_line(record.to_line().trim_end().as_bytes()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn snapshot_roundtrip_with_tombstone_and_assignment() {
        let (catalog, _, mut network) = small_world();
        network
            .apply_delta(&NetworkDelta::remove_host(HostId(0)), &catalog)
            .unwrap();
        let assignment = Assignment::from_slots(vec![vec![], vec![ProductId(1), ProductId(2)]]);
        let record = Record::Snapshot(SnapshotRecord {
            revision: network.revision(),
            network: network.clone(),
            assignment: Some(assignment),
        });
        match parse_record_line(record.to_line().trim_end().as_bytes()).unwrap() {
            Record::Snapshot(s) => {
                assert_eq!(s.network, network);
                assert_eq!(s.revision, network.revision());
                assert!(s.assignment.is_some());
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_links_must_be_ascending_pairs() {
        let (_, _, network) = small_world();
        let json = Record::Snapshot(SnapshotRecord {
            revision: 0,
            network,
            assignment: None,
        })
        .encode();
        assert!(json.contains("\"links\":[[0,1]]"));
        for bad in ["[[1,0]]", "[[0,1],[0,1]]"] {
            let tampered = json.replace("\"links\":[[0,1]]", &format!("\"links\":{bad}"));
            assert!(
                matches!(Record::decode(&tampered), Err(Error::Journal(_))),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn batch_roundtrip_all_delta_kinds() {
        let deltas = vec![
            NetworkDelta::AddHost {
                name: String::new(),
                zone: Some("zoné \"q\"\n".into()),
                services: vec![(ServiceId(0), vec![ProductId(0), ProductId(1)])],
                links: vec![HostId(0), HostId(7)],
            },
            NetworkDelta::remove_host(HostId(3)),
            NetworkDelta::add_link(HostId(0), HostId(1)),
            NetworkDelta::remove_link(HostId(1), HostId(2)),
            NetworkDelta::fix_slot(HostId(0), ServiceId(1), ProductId(2)),
            NetworkDelta::unfix_slot(HostId(0), ServiceId(1), vec![ProductId(2)]),
            NetworkDelta::extend_candidates(HostId(0), ServiceId(0), vec![ProductId(3)]),
        ];
        let record = Record::Batch(BatchRecord {
            seq: 12,
            revision: 99,
            deltas,
            assignment: Some(ChangedRows {
                len: 4,
                rows: vec![
                    (HostId(0), vec![ProductId(0), ProductId(2)]),
                    (HostId(1), vec![]),
                    (HostId(3), vec![ProductId(1)]),
                ],
            }),
        });
        let back = parse_record_line(record.to_line().trim_end().as_bytes()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn changed_rows_must_ascend_below_the_table_length() {
        let batch = |rows: &str| {
            format!("{{\"kind\":\"batch\",\"seq\":0,\"revision\":1,\"deltas\":[],\"assignment\":{rows}}}")
        };
        assert!(Record::decode(&batch("{\"len\":2,\"changed\":[[0,[1]],[1,[]]]}")).is_ok());
        for bad in [
            "{\"len\":2,\"changed\":[[2,[1]]]}",
            "{\"len\":2,\"changed\":[[1,[1]],[0,[1]]]}",
            "{\"len\":2,\"changed\":[[1,[1]],[1,[2]]]}",
            "{\"len\":2,\"changed\":[[1]]}",
        ] {
            assert!(Record::decode(&batch(bad)).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn format_one_batches_read_as_every_row_changed() {
        let json = "{\"kind\":\"batch\",\"seq\":3,\"revision\":4,\"deltas\":[],\"assignment\":[[1],[],[0,2]]}";
        let Record::Batch(batch) = Record::decode(json).unwrap() else {
            panic!("a batch record");
        };
        let rows = batch.assignment.expect("an assignment");
        assert_eq!(rows.len, 3);
        assert_eq!(
            rows.rows,
            vec![
                (HostId(0), vec![ProductId(1)]),
                (HostId(1), vec![]),
                (HostId(2), vec![ProductId(0), ProductId(2)]),
            ]
        );
        let mut patched = Assignment::from_slots(vec![vec![ProductId(5)]; 5]);
        rows.apply_to(&mut patched);
        assert_eq!(
            patched,
            Assignment::from_slots(vec![
                vec![ProductId(1)],
                vec![],
                vec![ProductId(0), ProductId(2)],
            ])
        );
    }

    #[test]
    fn mark_roundtrip_drops_non_finite() {
        let record = Record::Mark(MarkRecord::new(
            "churn-step",
            &[("step", 3.0), ("mttc", 41.25), ("bad", f64::NAN)],
        ));
        let back = parse_record_line(record.to_line().trim_end().as_bytes()).unwrap();
        match &back {
            Record::Mark(m) => {
                assert_eq!(m.field("step"), Some(3.0));
                assert_eq!(m.field("mttc"), Some(41.25));
                assert_eq!(m.field("bad"), None);
            }
            other => panic!("expected mark, got {other:?}"),
        }
        assert_eq!(back, record);
    }

    #[test]
    fn corrupted_line_is_detected() {
        let record = Record::Mark(MarkRecord::new("m", &[("x", 1.0)]));
        let line = record.to_line();
        let mut bytes = line.trim_end().as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(parse_record_line(&bytes), Err(Error::Journal(_))));
    }

    #[test]
    fn tolerant_reader_truncates_at_damage() {
        let a = Record::Mark(MarkRecord::new("a", &[]));
        let b = Record::Mark(MarkRecord::new("b", &[]));
        let mut data = Vec::new();
        data.extend_from_slice(a.to_line().as_bytes());
        let prefix_len = data.len();
        data.extend_from_slice(b.to_line().as_bytes());
        // Damage the second record.
        data[prefix_len + 12] ^= 0xFF;
        let read = read_tolerant(&data);
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.valid_len, prefix_len);
        assert!(read.corruption.is_some());
        assert!(read_strict(&data).is_err());
        // The undamaged image reads fully, strictly.
        let mut clean = Vec::new();
        clean.extend_from_slice(a.to_line().as_bytes());
        clean.extend_from_slice(b.to_line().as_bytes());
        assert_eq!(read_strict(&clean).unwrap().len(), 2);
    }

    #[test]
    fn torn_final_line_without_newline_is_accepted() {
        let a = Record::Mark(MarkRecord::new("a", &[]));
        let line = a.to_line();
        let torn = &line.as_bytes()[..line.len() - 1];
        let read = read_tolerant(torn);
        assert_eq!(read.records.len(), 1);
        assert!(read.corruption.is_none());
    }

    #[test]
    fn unknown_kind_and_format_are_rejected() {
        let json = "{\"kind\":\"mystery\"}";
        assert!(Record::decode(json).is_err());
        let json = format!(
            "{{\"kind\":\"preamble\",\"format\":{},\"catalog\":{{\"services\":[],\"products\":[]}},\"similarity\":{{\"n\":0,\"values\":[]}},\"constraints\":[]}}",
            FORMAT_VERSION + 1
        );
        assert!(matches!(Record::decode(&json), Err(Error::Journal(_))));
        for format in [1, FORMAT_VERSION] {
            let json = json.replace(
                &format!("\"format\":{}", FORMAT_VERSION + 1),
                &format!("\"format\":{format}"),
            );
            assert!(Record::decode(&json).is_ok(), "format {format} rejected");
        }
    }
}
