//! Product assignments `α : H × S → P` (paper Definition 3) and their
//! diversity statistics.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::catalog::{Catalog, ProductSimilarity};
use crate::network::Network;
use crate::{Error, HostId, ProductId, Result, ServiceId};

/// Host rows per chunk of an [`Assignment`]: the unit a clone shares and a
/// write copies.
const CHUNK_ROWS: usize = 64;

/// Entries at the head of every chunk: `CHUNK_ROWS + 1` row ends, each a
/// `u32` offset into the chunk's products split over two `ProductId`
/// halves (low half first), so the whole chunk is one `[ProductId]`.
const HEADER: usize = 2 * (CHUNK_ROWS + 1);

/// A complete product assignment for a network.
///
/// Stores one product per (host, service-slot), aligned with each host's
/// service declaration order, so lookups are O(#services-per-host) with no
/// hashing.
///
/// The table is a copy-on-write vector of 64-row chunks behind `Arc` — a
/// one-level chunked persistent vector (Bagwell & Rompf, "RRB-Trees:
/// Efficient Immutable Vectors", 2011). Each chunk is one allocation: its
/// row ends, then its rows' products back to back. A clone copies chunk
/// pointers, so clones share every chunk until one side writes;
/// [`Assignment::set_row`] and [`Assignment::resize`] copy at most the one
/// chunk they touch, and only while another table shares it. A chunk's
/// layout is a function of its rows, so equal chunks (and equal tables)
/// hold equal rows, and two tables sharing a chunk pointer hold the same
/// rows there — which [`Assignment::changed_rows`] uses to skip whole
/// chunks.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    /// Host rows, including empty rows for removed hosts.
    len: usize,
    /// `len.div_ceil(CHUNK_ROWS)` chunks of `CHUNK_ROWS` rows each; the
    /// rows of the last chunk past `len` are empty.
    chunks: Vec<Arc<[ProductId]>>,
}

/// Where row `row` of `chunk` ends (and row `row + 1` starts), counted in
/// products after the header.
#[inline]
fn row_end(chunk: &[ProductId], row: usize) -> usize {
    usize::from(chunk[2 * row].0) | usize::from(chunk[2 * row + 1].0) << 16
}

fn put_row_end(chunk: &mut [ProductId], row: usize, end: usize) {
    let end = u32::try_from(end).expect("a chunk holds fewer than 2^32 products");
    chunk[2 * row] = ProductId(end as u16);
    chunk[2 * row + 1] = ProductId((end >> 16) as u16);
}

#[inline]
fn row_of(chunk: &[ProductId], row: usize) -> &[ProductId] {
    // Splitting off the fixed-size header first lets the compiler drop
    // the bounds checks on the row ends (`row < CHUNK_ROWS` at callers).
    let (ends, products) = chunk.split_at(HEADER);
    &products[row_end(ends, row)..row_end(ends, row + 1)]
}

/// A chunk holding `rows` (at most [`CHUNK_ROWS`]) followed by empty rows.
fn build_chunk<'a>(rows: impl IntoIterator<Item = &'a [ProductId]>) -> Arc<[ProductId]> {
    let mut chunk = vec![ProductId(0); HEADER];
    let mut filled = 0;
    for row in rows {
        assert!(filled < CHUNK_ROWS, "a chunk holds {CHUNK_ROWS} rows");
        chunk.extend_from_slice(row);
        filled += 1;
        let end = chunk.len() - HEADER;
        put_row_end(&mut chunk, filled, end);
    }
    let end = chunk.len() - HEADER;
    for row in filled + 1..=CHUNK_ROWS {
        put_row_end(&mut chunk, row, end);
    }
    chunk.into()
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

impl Assignment {
    /// Creates an assignment from a per-host, per-slot product table.
    ///
    /// Prefer [`Assignment::validated`] unless the table is known-correct by
    /// construction (e.g. produced by the optimizer).
    pub fn from_slots(products: Vec<Vec<ProductId>>) -> Assignment {
        Assignment {
            len: products.len(),
            chunks: products
                .chunks(CHUNK_ROWS)
                .map(|rows| build_chunk(rows.iter().map(Vec::as_slice)))
                .collect(),
        }
    }

    /// The number of host rows in the table (including empty rows for
    /// removed hosts) — the bound `products_at` answers non-empty slices
    /// under.
    pub fn host_rows(&self) -> usize {
        self.len
    }

    /// Every host row in host order, empty rows included.
    pub fn rows(&self) -> impl Iterator<Item = &[ProductId]> {
        (0..self.len).map(|h| self.products_at(HostId(h as u32)))
    }

    /// Replaces the products at `host`. Copies the row's chunk if another
    /// table shares it; writing a row's current products changes nothing
    /// and keeps the chunk shared.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not below [`Assignment::host_rows`]
    /// ([`Assignment::resize`] first).
    pub fn set_row(&mut self, host: HostId, row: &[ProductId]) {
        let h = host.index();
        assert!(
            h < self.len,
            "host {h} is past the table's {} rows",
            self.len
        );
        let (chunk, at) = (&mut self.chunks[h / CHUNK_ROWS], h % CHUNK_ROWS);
        let (start, end) = (row_end(chunk, at), row_end(chunk, at + 1));
        if chunk[HEADER + start..HEADER + end] == *row {
            return;
        }
        if end - start == row.len() {
            Arc::make_mut(chunk)[HEADER + start..HEADER + end].copy_from_slice(row);
            return;
        }
        let mut fresh = Vec::with_capacity(chunk.len() - (end - start) + row.len());
        fresh.extend_from_slice(&chunk[..HEADER + start]);
        fresh.extend_from_slice(row);
        fresh.extend_from_slice(&chunk[HEADER + end..]);
        for later in at + 1..=CHUNK_ROWS {
            put_row_end(
                &mut fresh,
                later,
                row_end(chunk, later) - end + start + row.len(),
            );
        }
        *chunk = fresh.into();
    }

    /// Grows the table with empty rows, or truncates it, to `len` rows.
    /// Growing shares one empty chunk among the new chunks; truncating
    /// copies the new last chunk only if it must drop non-empty rows.
    pub fn resize(&mut self, len: usize) {
        let chunks = len.div_ceil(CHUNK_ROWS);
        if len < self.len {
            self.chunks.truncate(chunks);
            if let Some(last) = self.chunks.last_mut() {
                let keep = len - (chunks - 1) * CHUNK_ROWS;
                let end = row_end(last, keep);
                if end != row_end(last, CHUNK_ROWS) {
                    let mut fresh = last[..HEADER + end].to_vec();
                    for row in keep + 1..=CHUNK_ROWS {
                        put_row_end(&mut fresh, row, end);
                    }
                    *last = fresh.into();
                }
            }
        } else if chunks > self.chunks.len() {
            self.chunks.resize(chunks, build_chunk([]));
        }
        self.len = len;
    }

    /// The rows of this table that differ from `base`'s (a row past
    /// `base`'s end reads as empty), ascending by host. A chunk this table
    /// shares with `base` is skipped unread, so diffing a table against an
    /// ancestor it was cloned from costs O(chunks) plus the rows of the
    /// chunks written since.
    pub fn changed_rows<'a>(
        &'a self,
        base: &'a Assignment,
    ) -> impl Iterator<Item = (HostId, &'a [ProductId])> + 'a {
        self.chunks
            .iter()
            .enumerate()
            .filter(|&(c, chunk)| !base.chunks.get(c).is_some_and(|b| Arc::ptr_eq(b, chunk)))
            .flat_map(|(c, _)| c * CHUNK_ROWS..((c + 1) * CHUNK_ROWS).min(self.len))
            .filter_map(|h| {
                let host = HostId(h as u32);
                let row = self.products_at(host);
                (row != base.products_at(host)).then_some((host, row))
            })
    }

    /// Creates an assignment and validates it against the network: every
    /// (host, service) slot must be filled with one of its candidates.
    ///
    /// # Errors
    ///
    /// * [`Error::MissingAssignment`] — a slot row has the wrong arity.
    /// * [`Error::NotACandidate`] — a chosen product is outside the slot's
    ///   candidate set.
    pub fn validated(products: Vec<Vec<ProductId>>, network: &Network) -> Result<Assignment> {
        let a = Assignment::from_slots(products);
        a.validate(network)?;
        Ok(a)
    }

    /// Validates this assignment against `network` (see [`Assignment::validated`]).
    ///
    /// # Errors
    ///
    /// See [`Assignment::validated`].
    pub fn validate(&self, network: &Network) -> Result<()> {
        if self.len != network.host_count() {
            return Err(Error::MissingAssignment {
                host: HostId(self.len as u32),
                service: ServiceId(0),
            });
        }
        for (host_id, host) in network.iter_hosts() {
            let row = self.products_at(host_id);
            if row.len() != host.services().len() {
                return Err(Error::MissingAssignment {
                    host: host_id,
                    service: host
                        .services()
                        .get(row.len())
                        .map(|s| s.service())
                        .unwrap_or(ServiceId(0)),
                });
            }
            for (slot, inst) in host.services().iter().enumerate() {
                let p = row[slot];
                if !inst.candidates().contains(&p) {
                    return Err(Error::NotACandidate {
                        host: host_id,
                        service: inst.service(),
                        product: p,
                    });
                }
            }
        }
        Ok(())
    }

    /// The product assigned to `service` at `host`, or `None` if the host
    /// does not run the service.
    pub fn product_for(
        &self,
        network: &Network,
        host: HostId,
        service: ServiceId,
    ) -> Option<ProductId> {
        let h = network.host(host).ok()?;
        let slot = h.service_slot(service)?;
        self.products_at(host).get(slot).copied()
    }

    /// The products assigned at `host`, in service declaration order.
    /// Inlined across crates: it is the point query of every snapshot
    /// read.
    #[inline]
    pub fn products_at(&self, host: HostId) -> &[ProductId] {
        let h = host.index();
        match self.chunks.get(h / CHUNK_ROWS) {
            Some(chunk) => row_of(chunk, h % CHUNK_ROWS),
            None => &[],
        }
    }

    /// Paper Eq. 3: the total pairwise similarity over all links and shared
    /// services — the quantity the optimizer minimizes (up to the constant
    /// unary term). Lower is more diverse.
    pub fn total_edge_similarity(&self, network: &Network, similarity: &ProductSimilarity) -> f64 {
        let mut total = 0.0;
        for &(a, b) in network.links() {
            total += self.edge_similarity(network, similarity, a, b);
        }
        total
    }

    /// The summed similarity over services shared by one linked host pair.
    pub fn edge_similarity(
        &self,
        network: &Network,
        similarity: &ProductSimilarity,
        a: HostId,
        b: HostId,
    ) -> f64 {
        let host_a = match network.host(a) {
            Ok(h) => h,
            Err(_) => return 0.0,
        };
        let mut total = 0.0;
        for (slot, inst) in host_a.services().iter().enumerate() {
            if let Some(pb) = self.product_for(network, b, inst.service()) {
                let pa = self.products_at(a)[slot];
                total += similarity.get(pa, pb);
            }
        }
        total
    }

    /// Number of links whose endpoints share at least one identical product —
    /// the "mono-culture edges" a worm can cross with certainty.
    pub fn identical_product_links(&self, network: &Network) -> usize {
        network
            .links()
            .iter()
            .filter(|&&(a, b)| {
                let host_a = network.host(a).expect("validated");
                host_a.services().iter().enumerate().any(|(slot, inst)| {
                    self.product_for(network, b, inst.service())
                        .is_some_and(|pb| pb == self.products_at(a)[slot])
                })
            })
            .count()
    }

    /// Frequency of each product across the whole network.
    pub fn product_histogram(&self) -> BTreeMap<ProductId, usize> {
        let mut hist = BTreeMap::new();
        for row in self.rows() {
            for &p in row {
                *hist.entry(p).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Shannon-entropy based *effective diversity* (exp of entropy) of the
    /// product distribution: 1.0 for a mono-culture, up to the number of
    /// distinct products for a perfectly balanced deployment.
    pub fn effective_diversity(&self) -> f64 {
        let hist = self.product_histogram();
        let total: usize = hist.values().sum();
        if total == 0 {
            return 0.0;
        }
        let mut entropy = 0.0;
        for &count in hist.values() {
            let p = count as f64 / total as f64;
            entropy -= p * p.ln();
        }
        entropy.exp()
    }

    /// Renders the assignment with product names, grouped per host — the
    /// form Fig. 4 of the paper presents.
    pub fn render(&self, network: &Network, catalog: &Catalog) -> String {
        let mut out = String::new();
        for (id, host) in network.iter_hosts() {
            let names: Vec<&str> = self
                .products_at(id)
                .iter()
                .map(|&p| catalog.product(p).map(|pr| pr.name()).unwrap_or("?"))
                .collect();
            out.push_str(&format!("{:4} [{}]\n", host.name(), names.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;

    /// Two services, two products each; three hosts in a line.
    fn fixture() -> (Network, Catalog, ProductSimilarity) {
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let wb = c.add_service("wb");
        let win = c.add_product("win", os).unwrap();
        let lin = c.add_product("lin", os).unwrap();
        let ie = c.add_product("ie", wb).unwrap();
        let ch = c.add_product("ch", wb).unwrap();
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        for &h in &[h0, h1, h2] {
            b.add_service(h, os, vec![win, lin]).unwrap();
        }
        // h2 runs no web browser: partial service overlap across the h1-h2 link.
        b.add_service(h0, wb, vec![ie, ch]).unwrap();
        b.add_service(h1, wb, vec![ie, ch]).unwrap();
        b.add_link(h0, h1).unwrap();
        b.add_link(h1, h2).unwrap();
        let net = b.build(&c).unwrap();
        // win-lin: 0.2; ie-ch: 0.5
        let mut values = vec![0.0; 16];
        for i in 0..4 {
            values[i * 4 + i] = 1.0;
        }
        values[win.index() * 4 + lin.index()] = 0.2;
        values[lin.index() * 4 + win.index()] = 0.2;
        values[ie.index() * 4 + ch.index()] = 0.5;
        values[ch.index() * 4 + ie.index()] = 0.5;
        let sim = ProductSimilarity::from_dense(4, values);
        (net, c, sim)
    }

    fn pid(c: &Catalog, name: &str) -> ProductId {
        c.product_by_name(name).unwrap()
    }

    #[test]
    fn validated_accepts_good_assignment() {
        let (net, c, _) = fixture();
        let a = Assignment::validated(
            vec![
                vec![pid(&c, "win"), pid(&c, "ie")],
                vec![pid(&c, "lin"), pid(&c, "ch")],
                vec![pid(&c, "win")],
            ],
            &net,
        );
        assert!(a.is_ok());
    }

    #[test]
    fn validated_rejects_wrong_arity() {
        let (net, c, _) = fixture();
        let err = Assignment::validated(
            vec![
                vec![pid(&c, "win")], // missing wb slot
                vec![pid(&c, "lin"), pid(&c, "ch")],
                vec![pid(&c, "win")],
            ],
            &net,
        )
        .unwrap_err();
        assert!(matches!(err, Error::MissingAssignment { .. }));
    }

    #[test]
    fn validated_rejects_non_candidate() {
        let (net, c, _) = fixture();
        // ie is a browser, not an OS candidate.
        let err = Assignment::validated(
            vec![
                vec![pid(&c, "ie"), pid(&c, "ie")],
                vec![pid(&c, "lin"), pid(&c, "ch")],
                vec![pid(&c, "win")],
            ],
            &net,
        )
        .unwrap_err();
        assert!(matches!(err, Error::NotACandidate { .. }));
    }

    #[test]
    fn product_lookup() {
        let (net, c, _) = fixture();
        let a = Assignment::from_slots(vec![
            vec![pid(&c, "win"), pid(&c, "ie")],
            vec![pid(&c, "lin"), pid(&c, "ch")],
            vec![pid(&c, "win")],
        ]);
        let os = c.service_by_name("os").unwrap();
        let wb = c.service_by_name("wb").unwrap();
        assert_eq!(a.product_for(&net, HostId(0), os), Some(pid(&c, "win")));
        assert_eq!(a.product_for(&net, HostId(2), wb), None); // h2 runs no browser
    }

    #[test]
    fn edge_similarity_sums_shared_services() {
        let (net, c, sim) = fixture();
        // h0: win+ie, h1: win+ch -> os pair sim 1.0 (same), wb pair 0.5
        let a = Assignment::from_slots(vec![
            vec![pid(&c, "win"), pid(&c, "ie")],
            vec![pid(&c, "win"), pid(&c, "ch")],
            vec![pid(&c, "lin")],
        ]);
        let e01 = a.edge_similarity(&net, &sim, HostId(0), HostId(1));
        assert!((e01 - 1.5).abs() < 1e-12);
        // h1-h2 share only the OS service: win vs lin = 0.2.
        let e12 = a.edge_similarity(&net, &sim, HostId(1), HostId(2));
        assert!((e12 - 0.2).abs() < 1e-12);
        assert!((a.total_edge_similarity(&net, &sim) - 1.7).abs() < 1e-12);
    }

    #[test]
    fn edge_similarity_is_symmetric() {
        let (net, c, sim) = fixture();
        let a = Assignment::from_slots(vec![
            vec![pid(&c, "win"), pid(&c, "ie")],
            vec![pid(&c, "lin"), pid(&c, "ch")],
            vec![pid(&c, "win")],
        ]);
        let ab = a.edge_similarity(&net, &sim, HostId(0), HostId(1));
        let ba = a.edge_similarity(&net, &sim, HostId(1), HostId(0));
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn identical_product_links_counts_mono_edges() {
        let (net, c, _) = fixture();
        let mono = Assignment::from_slots(vec![
            vec![pid(&c, "win"), pid(&c, "ie")],
            vec![pid(&c, "win"), pid(&c, "ie")],
            vec![pid(&c, "win")],
        ]);
        assert_eq!(mono.identical_product_links(&net), 2);
        let diverse = Assignment::from_slots(vec![
            vec![pid(&c, "win"), pid(&c, "ie")],
            vec![pid(&c, "lin"), pid(&c, "ch")],
            vec![pid(&c, "win")],
        ]);
        assert_eq!(diverse.identical_product_links(&net), 0);
    }

    #[test]
    fn effective_diversity_bounds() {
        let (_, c, _) = fixture();
        let mono = Assignment::from_slots(vec![vec![pid(&c, "win")]; 10]);
        assert!((mono.effective_diversity() - 1.0).abs() < 1e-9);
        let balanced = Assignment::from_slots(vec![
            vec![pid(&c, "win")],
            vec![pid(&c, "lin")],
            vec![pid(&c, "win")],
            vec![pid(&c, "lin")],
        ]);
        assert!((balanced.effective_diversity() - 2.0).abs() < 1e-9);
        let empty = Assignment::from_slots(vec![]);
        assert_eq!(empty.effective_diversity(), 0.0);
    }

    #[test]
    fn render_contains_host_and_product_names() {
        let (net, c, _) = fixture();
        let a = Assignment::from_slots(vec![
            vec![pid(&c, "win"), pid(&c, "ie")],
            vec![pid(&c, "lin"), pid(&c, "ch")],
            vec![pid(&c, "win")],
        ]);
        let s = a.render(&net, &c);
        assert!(s.contains("h0"));
        assert!(s.contains("win, ie"));
    }
}
