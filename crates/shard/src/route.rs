//! Tenant routing.
//!
//! The router is an *immutable* per-shard summary (tenant min/max per
//! shard) built once at partitioning time and shared behind `Arc` — no
//! lock on the serving path, so routing is lock-free by construction
//! (the L6/L9 lint pass covers this crate; an immutable map cannot
//! deadlock or race).
//!
//! Routing is conservative: a tenant-equality query may be answered by
//! a single shard only when that shard is the *only* one whose tenant
//! range could contain the tenant. With a sorted tenant column that is
//! the common case; a tenant straddling a shard boundary yields two
//! shards and the query scatters over both.

/// Inclusive tenant bounds of one shard (`None` = shard holds no rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRange {
    pub min: i64,
    pub max: i64,
}

/// Immutable tenant → shards routing summary.
#[derive(Debug, Clone)]
pub struct TenantRouter {
    ranges: Vec<Option<TenantRange>>,
}

impl TenantRouter {
    /// Builds the router from each shard's tenant-column values (an
    /// empty shard gets no range and never routes).
    pub fn from_shard_tenants<'a>(shards: impl IntoIterator<Item = &'a [i64]>) -> TenantRouter {
        let ranges = shards
            .into_iter()
            .map(|tenants| {
                let min = *tenants.iter().min()?;
                let max = *tenants.iter().max()?;
                Some(TenantRange { min, max })
            })
            .collect();
        TenantRouter { ranges }
    }

    /// Builds the router from per-shard inclusive bounds.
    pub fn from_ranges(ranges: Vec<Option<TenantRange>>) -> TenantRouter {
        TenantRouter { ranges }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// The shards whose tenant range could contain `tenant`, ascending.
    pub fn shards_for_tenant(&self, tenant: i64) -> Vec<usize> {
        self.ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some_and(|r| r.min <= tenant && tenant <= r.max))
            .map(|(s, _)| s)
            .collect()
    }

    /// The single shard holding `tenant`, when routing is unambiguous.
    pub fn unique_shard_for_tenant(&self, tenant: i64) -> Option<usize> {
        let shards = self.shards_for_tenant(tenant);
        match shards.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> TenantRouter {
        TenantRouter::from_ranges(vec![
            Some(TenantRange { min: 0, max: 9 }),
            Some(TenantRange { min: 9, max: 20 }),
            None,
            Some(TenantRange { min: 21, max: 30 }),
        ])
    }

    #[test]
    fn unique_and_overlapping_routes() {
        let r = router();
        assert_eq!(r.unique_shard_for_tenant(5), Some(0));
        assert_eq!(r.unique_shard_for_tenant(25), Some(3));
        // Tenant 9 straddles shards 0 and 1: no unique shard.
        assert_eq!(r.shards_for_tenant(9), vec![0, 1]);
        assert_eq!(r.unique_shard_for_tenant(9), None);
        // Unknown tenant: nowhere (a scan would find nothing anyway).
        assert_eq!(r.shards_for_tenant(99), Vec::<usize>::new());
    }

    #[test]
    fn empty_shards_never_route() {
        assert!(!router().shards_for_tenant(15).contains(&2));
    }
}
