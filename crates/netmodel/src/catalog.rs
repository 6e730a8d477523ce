//! The global universe of services and products, and product-pair similarity.
//!
//! Paper Definition 2 models a set of services `S` and, for each service, a
//! range of diverse products `p(s) ⊆ P`. A [`Catalog`] holds both, and a
//! [`ProductSimilarity`] gives the pairwise vulnerability similarity
//! `sim(p, q)` (paper Definition 1) as a dense matrix over [`ProductId`]s —
//! the representation the optimizer indexes in its hot loop.

use serde::{Deserialize, Serialize};

use nvd::similarity::SimilarityTable;

use crate::{Error, ProductId, Result, ServiceId};

/// A service definition (operating system, web browser, database, ...).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Service {
    name: String,
}

impl Service {
    /// The service name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A product definition: a name and the single service it provides.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Product {
    name: String,
    service: ServiceId,
}

impl Product {
    /// The product name (e.g. `"Win7"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service this product provides.
    pub fn service(&self) -> ServiceId {
        self.service
    }
}

/// The universe of services and products.
///
/// ```
/// use netmodel::catalog::Catalog;
/// # fn main() -> Result<(), netmodel::Error> {
/// let mut catalog = Catalog::new();
/// let os = catalog.add_service("operating_system");
/// let win7 = catalog.add_product("Win7", os)?;
/// let ubuntu = catalog.add_product("Ubuntu14.04", os)?;
/// assert_eq!(catalog.products_of(os), &[win7, ubuntu]);
/// assert_eq!(catalog.product(win7)?.name(), "Win7");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    services: Vec<Service>,
    products: Vec<Product>,
    by_service: Vec<Vec<ProductId>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a service and returns its id.
    pub fn add_service(&mut self, name: &str) -> ServiceId {
        let id = ServiceId(self.services.len() as u16);
        self.services.push(Service {
            name: name.to_owned(),
        });
        self.by_service.push(Vec::new());
        id
    }

    /// Registers a product providing `service` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownService`] if `service` is not registered and
    /// [`Error::DuplicateProduct`] if the name is already taken (product
    /// names key into similarity tables, so they must be unique).
    pub fn add_product(&mut self, name: &str, service: ServiceId) -> Result<ProductId> {
        if service.index() >= self.services.len() {
            return Err(Error::UnknownService(service));
        }
        if self.products.iter().any(|p| p.name == name) {
            return Err(Error::DuplicateProduct(name.to_owned()));
        }
        let id = ProductId(self.products.len() as u16);
        self.products.push(Product {
            name: name.to_owned(),
            service,
        });
        self.by_service[service.index()].push(id);
        Ok(id)
    }

    /// Number of registered services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Number of registered products.
    pub fn product_count(&self) -> usize {
        self.products.len()
    }

    /// Looks up a service definition.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownService`] for out-of-range ids.
    pub fn service(&self, id: ServiceId) -> Result<&Service> {
        self.services
            .get(id.index())
            .ok_or(Error::UnknownService(id))
    }

    /// Looks up a product definition.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProduct`] for out-of-range ids.
    pub fn product(&self, id: ProductId) -> Result<&Product> {
        self.products
            .get(id.index())
            .ok_or(Error::UnknownProduct(id))
    }

    /// All products providing `service`, in registration order. Empty for
    /// unknown services.
    pub fn products_of(&self, service: ServiceId) -> &[ProductId] {
        self.by_service
            .get(service.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Finds a service id by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServiceId(i as u16))
    }

    /// Finds a product id by name.
    pub fn product_by_name(&self, name: &str) -> Option<ProductId> {
        self.products
            .iter()
            .position(|p| p.name == name)
            .map(|i| ProductId(i as u16))
    }

    /// Iterates over `(id, product)` pairs.
    pub fn iter_products(&self) -> impl Iterator<Item = (ProductId, &Product)> {
        self.products
            .iter()
            .enumerate()
            .map(|(i, p)| (ProductId(i as u16), p))
    }

    /// Iterates over `(id, service)` pairs.
    pub fn iter_services(&self) -> impl Iterator<Item = (ServiceId, &Service)> {
        self.services
            .iter()
            .enumerate()
            .map(|(i, s)| (ServiceId(i as u16), s))
    }
}

/// Dense pairwise product similarity `sim : P × P → [0, 1]`.
///
/// Cross-service product pairs always have similarity 0 — an exploit for an
/// operating system does not apply to a database server; the paper's pairwise
/// cost (Eq. 3) only ever compares products of the same service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductSimilarity {
    n: usize,
    values: Vec<f64>,
}

impl ProductSimilarity {
    /// Builds the similarity matrix for `catalog` by looking every product
    /// name up in `table`. Same-service pairs take the table value;
    /// cross-service pairs are forced to 0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MissingSimilarity`] if a catalog product is absent
    /// from the table.
    pub fn from_table(catalog: &Catalog, table: &SimilarityTable) -> Result<ProductSimilarity> {
        let n = catalog.product_count();
        let idx: Vec<usize> = catalog
            .iter_products()
            .map(|(_, p)| {
                table
                    .index_of(p.name())
                    .ok_or_else(|| Error::MissingSimilarity(p.name().to_owned()))
            })
            .collect::<Result<_>>()?;
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            values[i * n + i] = 1.0;
            let si = catalog.products[i].service;
            for j in (i + 1)..n {
                if si == catalog.products[j].service {
                    let s = table.get(idx[i], idx[j]);
                    values[i * n + j] = s;
                    values[j * n + i] = s;
                }
            }
        }
        Ok(ProductSimilarity { n, values })
    }

    /// Builds a matrix where every same-service pair has the given constant
    /// similarity — the "without similarity" world of prior work, where only
    /// identical products (similarity 1 on the diagonal) propagate exploits
    /// when `uniform = 0`.
    pub fn uniform(catalog: &Catalog, uniform: f64) -> ProductSimilarity {
        let n = catalog.product_count();
        let s = uniform.clamp(0.0, 1.0);
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            values[i * n + i] = 1.0;
            let si = catalog.products[i].service;
            for j in (i + 1)..n {
                if si == catalog.products[j].service {
                    values[i * n + j] = s;
                    values[j * n + i] = s;
                }
            }
        }
        ProductSimilarity { n, values }
    }

    /// Wraps a precomputed dense matrix (row-major, `n*n`). Intended for the
    /// synthetic similarity structures built by [`crate::topology`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n * n`.
    pub fn from_dense(n: usize, values: Vec<f64>) -> ProductSimilarity {
        assert_eq!(values.len(), n * n, "dense similarity must be n*n");
        ProductSimilarity { n, values }
    }

    /// Number of products covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The similarity of two products.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn get(&self, a: ProductId, b: ProductId) -> f64 {
        let (i, j) = (a.index(), b.index());
        assert!(i < self.n && j < self.n, "product id out of range");
        self.values[i * self.n + j]
    }

    /// Sets the symmetric similarity of two products, clamped into `[0, 1]`.
    /// Setting a diagonal entry is a no-op (self-similarity is 1 by
    /// definition).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn set(&mut self, a: ProductId, b: ProductId, similarity: f64) {
        let (i, j) = (a.index(), b.index());
        assert!(i < self.n && j < self.n, "product id out of range");
        if i == j {
            return;
        }
        let s = similarity.clamp(0.0, 1.0);
        self.values[i * self.n + j] = s;
        self.values[j * self.n + i] = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_catalog() -> (Catalog, ServiceId, ServiceId) {
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let wb = c.add_service("wb");
        c.add_product("Win7", os).unwrap();
        c.add_product("Ubuntu", os).unwrap();
        c.add_product("IE10", wb).unwrap();
        c.add_product("Chrome", wb).unwrap();
        (c, os, wb)
    }

    #[test]
    fn add_and_lookup() {
        let (c, os, wb) = demo_catalog();
        assert_eq!(c.service_count(), 2);
        assert_eq!(c.product_count(), 4);
        assert_eq!(c.products_of(os).len(), 2);
        assert_eq!(c.products_of(wb).len(), 2);
        assert_eq!(c.service_by_name("os"), Some(os));
        let win7 = c.product_by_name("Win7").unwrap();
        assert_eq!(c.product(win7).unwrap().service(), os);
        assert_eq!(c.service(os).unwrap().name(), "os");
    }

    #[test]
    fn duplicate_product_name_rejected() {
        let (mut c, os, _) = demo_catalog();
        assert!(matches!(
            c.add_product("Win7", os),
            Err(Error::DuplicateProduct(_))
        ));
    }

    #[test]
    fn unknown_service_rejected() {
        let mut c = Catalog::new();
        assert!(matches!(
            c.add_product("X", ServiceId(3)),
            Err(Error::UnknownService(_))
        ));
        assert!(c.service(ServiceId(0)).is_err());
        assert!(c.product(ProductId(0)).is_err());
    }

    #[test]
    fn similarity_from_table() {
        let (c, _, _) = demo_catalog();
        let mut table = SimilarityTable::with_names(&["Win7", "Ubuntu", "IE10", "Chrome"]);
        table.set_by_name("Win7", "Ubuntu", 0.2);
        table.set_by_name("IE10", "Chrome", 0.1);
        // A nonsense cross-service value: must be dropped by the import.
        table.set_by_name("Win7", "IE10", 0.9);
        let sim = ProductSimilarity::from_table(&c, &table).unwrap();
        let pid = |n: &str| c.product_by_name(n).unwrap();
        assert_eq!(sim.get(pid("Win7"), pid("Ubuntu")), 0.2);
        assert_eq!(sim.get(pid("Ubuntu"), pid("Win7")), 0.2);
        assert_eq!(sim.get(pid("Win7"), pid("Win7")), 1.0);
        // Cross-service is zero despite the table's 0.9.
        assert_eq!(sim.get(pid("Win7"), pid("IE10")), 0.0);
    }

    #[test]
    fn similarity_missing_product_is_error() {
        let (c, _, _) = demo_catalog();
        let table = SimilarityTable::with_names(&["Win7"]);
        assert!(matches!(
            ProductSimilarity::from_table(&c, &table),
            Err(Error::MissingSimilarity(_))
        ));
    }

    #[test]
    fn uniform_similarity() {
        let (c, _, _) = demo_catalog();
        let sim = ProductSimilarity::uniform(&c, 0.4);
        let pid = |n: &str| c.product_by_name(n).unwrap();
        assert_eq!(sim.get(pid("Win7"), pid("Ubuntu")), 0.4);
        assert_eq!(sim.get(pid("Win7"), pid("Win7")), 1.0);
        assert_eq!(sim.get(pid("Win7"), pid("Chrome")), 0.0);
    }

    #[test]
    fn from_dense_validates_shape() {
        let sim = ProductSimilarity::from_dense(2, vec![1.0, 0.3, 0.3, 1.0]);
        assert_eq!(sim.get(ProductId(0), ProductId(1)), 0.3);
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn from_dense_rejects_bad_shape() {
        ProductSimilarity::from_dense(2, vec![1.0; 3]);
    }
}
