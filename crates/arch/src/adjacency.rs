//! CSR adjacency: precomputed in-bounds neighbor lists per
//! `(Lattice, Neighborhood)` pair.
//!
//! Every hot loop of the routing core used to enumerate lattice
//! neighbors geometrically — `hood.around(site)` offset arithmetic plus
//! a `Lattice::contains` bounds check and a `Lattice::index` dense-index
//! computation *per visited neighbor, per visit*. On the paper's
//! near-full 15×15 arrays (and beyond) that geometry math dominates BFS
//! and the routers' adjacency scans. [`NeighborTable`] resolves the
//! whole product once into one dense `offsets`/`neighbors` CSR pair:
//! the neighbors of dense site `i` are the slice
//! `neighbors[offsets[i]..offsets[i + 1]]`, already bounds-filtered and
//! already in dense-index form.
//!
//! The per-site neighbor order is exactly the order
//! `hood.around(site).filter(|s| lattice.contains(*s))` yields — the
//! disc's nearest-first `(d², dy, dx)` order — so consumers that switch
//! from the iterator to the table enumerate candidates in the identical
//! sequence (a load-bearing property for the routers' deterministic
//! tie-breaking).
//!
//! # Example
//!
//! ```
//! use na_arch::{Lattice, NeighborTable, Neighborhood, Site};
//! let lattice = Lattice::new(15);
//! let table = NeighborTable::build(&lattice, &Neighborhood::new(2.0));
//! // Interior sites see the full 12-site disc of Fig. 1a ...
//! let center = lattice.index(Site::new(7, 7));
//! assert_eq!(table.neighbors(center).len(), 12);
//! // ... corner sites only its in-bounds quarter.
//! let corner = lattice.index(Site::new(0, 0));
//! assert_eq!(table.neighbors(corner).len(), 5);
//! ```

use serde::{Deserialize, Serialize};

use crate::geometry::Neighborhood;
use crate::lattice::Lattice;

/// Precomputed CSR neighbor table of a lattice under a Euclidean
/// interaction radius: one `offsets`/`neighbors` pair over dense site
/// indices, replacing per-visit `Neighborhood::around` geometry math in
/// BFS, the routers' adjacency scans and the verifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborTable {
    lattice: Lattice,
    radius: f64,
    /// `offsets[i]..offsets[i + 1]` delimits site `i`'s neighbor slice.
    offsets: Vec<u32>,
    /// Dense site indices, per site in the disc's nearest-first order.
    neighbors: Vec<u32>,
    /// Coarse R×R clustering of this table's lattice (see
    /// [`RegionGrid`]), so every consumer of the table gets the region
    /// partition for free.
    regions: RegionGrid,
}

impl NeighborTable {
    /// Resolves the `(lattice, hood)` product into a CSR table.
    ///
    /// Cost is `O(num_sites × hood.len())` — run once per compiler
    /// construction (or mapper call), never per routing round.
    pub fn build(lattice: &Lattice, hood: &Neighborhood) -> Self {
        let n = lattice.num_sites();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(n * hood.len());
        offsets.push(0u32);
        for idx in 0..n {
            let center = lattice.site(idx);
            for s in hood.around(center) {
                if lattice.contains(s) {
                    neighbors.push(lattice.index(s) as u32);
                }
            }
            offsets.push(neighbors.len() as u32);
        }
        let regions = RegionGrid::from_lattice(lattice, RegionGrid::DEFAULT_SIDE);
        NeighborTable {
            lattice: *lattice,
            radius: hood.radius(),
            offsets,
            neighbors,
            regions,
        }
    }

    /// [`NeighborTable::build`] constructing the disc internally.
    pub fn for_radius(lattice: &Lattice, r: f64) -> Self {
        NeighborTable::build(lattice, &Neighborhood::new(r))
    }

    /// The lattice this table was built over.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The Euclidean radius this table was built for.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of sites covered (rows of the CSR matrix).
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The in-bounds neighbors of dense site index `idx`, nearest
    /// first — dense indices, already bounds-checked at build time.
    #[inline]
    pub fn neighbors(&self, idx: usize) -> &[u32] {
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Returns `true` when this table describes exactly the given
    /// `(lattice, radius)` pair — the staleness check for consumers that
    /// cache a table across calls.
    #[inline]
    pub fn matches(&self, lattice: &Lattice, r: f64) -> bool {
        self.lattice == *lattice && self.radius == r
    }

    /// The coarse R×R region clustering of this table — per-region site
    /// slices, used by the routing core for ring-ordered scans.
    #[inline]
    pub fn regions(&self) -> &RegionGrid {
        &self.regions
    }
}

/// Coarse R×R clustering of a [`NeighborTable`]'s lattice: the lattice
/// bounding box is tiled into square regions of `side × side` geometric
/// cells, each holding a slice of dense site indices.
///
/// **Ring ordering** makes the grid useful to the routing core: sites
/// of a region at Chebyshev region distance `K ≥ 1` from a reference
/// region are at least `(K - 1)·side + 1` cells away, so nearest-site
/// scans can walk outward ring by ring and stop as soon as the best hit
/// beats the next ring's lower bound.
///
/// The grid is a deterministic pure function of the lattice, so it
/// participates in [`TargetSpec`] equality without breaking the
/// re-spec round-trip.
///
/// [`TargetSpec`]: crate::target::TargetSpec
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionGrid {
    /// Region edge length in lattice cells.
    side: u32,
    /// Regions per geometric row of the bounding box.
    regions_x: u32,
    /// Region rows covering the bounding box (zoned lattices count
    /// lane rows in the box; lane-only regions simply hold no sites).
    regions_y: u32,
    /// Dense site index → region id (`ry * regions_x + rx`).
    region_of: Vec<u32>,
    /// CSR offsets into `sites`, one slice per region.
    site_offsets: Vec<u32>,
    /// Dense site indices grouped by region, ascending within each.
    sites: Vec<u32>,
}

impl RegionGrid {
    /// Default region edge length in lattice cells: small enough that a
    /// 100×100 lattice still resolves into a 13×13 region grid.
    pub const DEFAULT_SIDE: u32 = 8;

    /// The region partition of a lattice at the given region side:
    /// `(regions_x, regions_y, region_of)` where
    /// `region_of[dense site index] = ry * regions_x + rx`. This is the
    /// single source of truth for the site→region mapping — the routing
    /// core's occupancy buckets use it so they can never drift from the
    /// grid resolved into the target spec.
    pub fn partition(lattice: &Lattice, side: u32) -> (u32, u32, Vec<u32>) {
        let side = side.max(1);
        let (mut max_x, mut max_y) = (0u32, 0u32);
        for s in lattice.iter() {
            max_x = max_x.max(s.x as u32);
            max_y = max_y.max(s.y as u32);
        }
        let regions_x = max_x / side + 1;
        let regions_y = max_y / side + 1;
        let region_of = (0..lattice.num_sites())
            .map(|idx| {
                let s = lattice.site(idx);
                (s.y as u32 / side) * regions_x + s.x as u32 / side
            })
            .collect();
        (regions_x, regions_y, region_of)
    }

    /// Clusters a lattice into regions of the given side length.
    pub(crate) fn from_lattice(lattice: &Lattice, side: u32) -> Self {
        let (regions_x, regions_y, region_of) = Self::partition(lattice, side.max(1));
        let num_regions = (regions_x * regions_y) as usize;
        let n = lattice.num_sites();

        // Per-region site slices: counting sort over dense indices, so
        // each slice is ascending.
        let mut site_offsets = vec![0u32; num_regions + 1];
        for &r in &region_of {
            site_offsets[r as usize + 1] += 1;
        }
        for r in 0..num_regions {
            site_offsets[r + 1] += site_offsets[r];
        }
        let mut cursor: Vec<u32> = site_offsets[..num_regions].to_vec();
        let mut sites = vec![0u32; n];
        for (idx, &r) in region_of.iter().enumerate() {
            sites[cursor[r as usize] as usize] = idx as u32;
            cursor[r as usize] += 1;
        }

        RegionGrid {
            side: side.max(1),
            regions_x,
            regions_y,
            region_of,
            site_offsets,
            sites,
        }
    }

    /// Region edge length in lattice cells.
    #[inline]
    pub fn side(&self) -> u32 {
        self.side
    }

    /// `(regions_x, regions_y)` — the region grid dimensions.
    #[inline]
    pub fn dims(&self) -> (u32, u32) {
        (self.regions_x, self.regions_y)
    }

    /// Total number of regions (including empty lane-only regions on
    /// zoned lattices).
    #[inline]
    pub fn num_regions(&self) -> usize {
        (self.regions_x * self.regions_y) as usize
    }

    /// The region id of a dense site index.
    #[inline]
    pub fn region_of(&self, site_idx: usize) -> u32 {
        self.region_of[site_idx]
    }

    /// The dense site indices inside a region, ascending.
    #[inline]
    pub fn sites_in(&self, region: u32) -> &[u32] {
        let lo = self.site_offsets[region as usize] as usize;
        let hi = self.site_offsets[region as usize + 1] as usize;
        &self.sites[lo..hi]
    }

    /// Visits every region of a `regions_x × regions_y` grid whose
    /// Chebyshev distance from `(cx, cy)` is exactly `k`, clipped to
    /// the grid, in row-major order. `k = 0` visits only `(cx, cy)`.
    ///
    /// An associated function (no grid instance required) so occupancy
    /// buckets built from [`RegionGrid::partition`] alone walk the
    /// exact same ring geometry as consumers holding a full grid.
    pub fn for_each_ring_region(
        regions_x: u32,
        regions_y: u32,
        cx: u32,
        cy: u32,
        k: u32,
        visit: &mut impl FnMut(u32, u32),
    ) {
        let x_lo = cx.saturating_sub(k);
        let x_hi = (cx + k).min(regions_x - 1);
        let y_lo = cy.saturating_sub(k);
        let y_hi = (cy + k).min(regions_y - 1);
        for ry in y_lo..=y_hi {
            if cy.abs_diff(ry) == k {
                // Top/bottom edge of the ring: the full row segment.
                for rx in x_lo..=x_hi {
                    visit(rx, ry);
                }
            } else {
                // Interior row: only the two vertical edges.
                if cx >= k {
                    visit(cx - k, ry);
                }
                if k > 0 && cx + k < regions_x {
                    visit(cx + k, ry);
                }
            }
        }
    }

    /// Lower bound, in lattice cells, on the Euclidean (and Chebyshev)
    /// distance from any point inside a region to any site of a region
    /// at Chebyshev region distance `k`: `0` for `k = 0`, else
    /// `(k − 1)·side + 1` (the rings share no cells, so at least one
    /// full region of separation minus the reference point's own
    /// region). Lets ring walks stop as soon as the best hit found so
    /// far beats everything a farther ring could hold.
    #[inline]
    pub fn ring_min_cells(side: u32, k: u32) -> u32 {
        if k == 0 {
            0
        } else {
            (k - 1) * side + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Site;
    use proptest::prelude::*;

    fn reference_neighbors(lattice: &Lattice, hood: &Neighborhood, center: Site) -> Vec<u32> {
        hood.around(center)
            .filter(|s| lattice.contains(*s))
            .map(|s| lattice.index(s) as u32)
            .collect()
    }

    #[test]
    fn matches_reports_staleness() {
        let lat = Lattice::new(6);
        let table = NeighborTable::for_radius(&lat, 2.0);
        assert!(table.matches(&lat, 2.0));
        assert!(!table.matches(&lat, 2.5));
        assert!(!table.matches(&Lattice::new(7), 2.0));
        assert_eq!(table.num_sites(), 36);
    }

    #[test]
    fn interior_degree_matches_disc_size() {
        let lat = Lattice::new(9);
        for r in [1.0, std::f64::consts::SQRT_2, 2.0, 2.5] {
            let hood = Neighborhood::new(r);
            let table = NeighborTable::build(&lat, &hood);
            let center = lat.index(Site::new(4, 4));
            assert_eq!(table.neighbors(center).len(), hood.len(), "r = {r}");
        }
    }

    #[test]
    fn zoned_tables_skip_lane_rows() {
        let lat = Lattice::zoned(9, 2, 1).unwrap();
        let table = NeighborTable::for_radius(&lat, 2.0);
        for idx in 0..table.num_sites() {
            for &n in table.neighbors(idx) {
                let site = lat.site(n as usize);
                assert!(lat.is_trap_row(site.y), "lane site {site} in table");
            }
        }
    }

    #[test]
    fn region_partition_covers_every_site_once() {
        for lat in [Lattice::new(10), Lattice::zoned(9, 2, 1).unwrap()] {
            let table = NeighborTable::for_radius(&lat, 2.0);
            let grid = table.regions();
            let mut seen = vec![false; lat.num_sites()];
            for region in 0..grid.num_regions() as u32 {
                for &s in grid.sites_in(region) {
                    assert_eq!(grid.region_of(s as usize), region);
                    assert!(!seen[s as usize], "site {s} in two regions");
                    seen[s as usize] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every site bucketed");
        }
    }

    #[test]
    fn small_lattices_collapse_to_one_region() {
        let lat = Lattice::new(6);
        let table = NeighborTable::for_radius(&lat, 2.5);
        let grid = table.regions();
        assert_eq!(grid.dims(), (1, 1));
        assert_eq!(grid.sites_in(0).len(), 36);
    }

    #[test]
    fn mega_lattice_resolves_to_a_coarse_graph() {
        let lat = Lattice::new(100);
        let table = NeighborTable::for_radius(&lat, 2.5);
        let grid = table.regions();
        assert_eq!(grid.dims(), (13, 13));
    }

    #[test]
    fn ring_walk_partitions_the_grid_by_chebyshev_distance() {
        let (rx, ry) = (5u32, 4u32);
        for (cx, cy) in [(0, 0), (2, 1), (4, 3), (1, 3)] {
            let mut seen = vec![0u32; (rx * ry) as usize];
            let max_k = cx.max(rx - 1 - cx).max(cy.max(ry - 1 - cy));
            for k in 0..=max_k {
                RegionGrid::for_each_ring_region(rx, ry, cx, cy, k, &mut |x, y| {
                    assert_eq!(
                        x.abs_diff(cx).max(y.abs_diff(cy)),
                        k,
                        "ring {k} visited ({x},{y}) from ({cx},{cy})"
                    );
                    seen[(y * rx + x) as usize] += 1;
                });
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "rings must cover every region exactly once: {seen:?}"
            );
        }
    }

    #[test]
    fn ring_min_cells_lower_bounds_site_distance() {
        // Any site in a ring-k region is at least ring_min_cells away
        // (Chebyshev, hence Euclidean) from any point of the center
        // region.
        assert_eq!(RegionGrid::ring_min_cells(8, 0), 0);
        assert_eq!(RegionGrid::ring_min_cells(8, 1), 1);
        assert_eq!(RegionGrid::ring_min_cells(8, 2), 9);
        assert_eq!(RegionGrid::ring_min_cells(8, 3), 17);
    }

    proptest! {
        /// CSR slices equal the geometric enumeration — same sites, same
        /// nearest-first order — on square lattices.
        #[test]
        fn csr_equals_hood_around_square(side in 2u32..12, r in 0.5f64..4.0) {
            let lat = Lattice::new(side);
            let hood = Neighborhood::new(r);
            let table = NeighborTable::build(&lat, &hood);
            prop_assert_eq!(table.num_sites(), lat.num_sites());
            for idx in 0..lat.num_sites() {
                let expect = reference_neighbors(&lat, &hood, lat.site(idx));
                prop_assert_eq!(table.neighbors(idx), expect.as_slice());
            }
        }

        /// Same equivalence over zoned (banded) lattices, where the
        /// geometric path additionally filters lane rows.
        #[test]
        fn csr_equals_hood_around_zoned(side in 3u32..12, zone in 1u32..4,
                                        gap in 1u32..3, r in 0.5f64..4.0) {
            let lat = Lattice::zoned(side, zone, gap).unwrap();
            let hood = Neighborhood::new(r);
            let table = NeighborTable::build(&lat, &hood);
            prop_assert_eq!(table.num_sites(), lat.num_sites());
            for idx in 0..lat.num_sites() {
                let expect = reference_neighbors(&lat, &hood, lat.site(idx));
                prop_assert_eq!(table.neighbors(idx), expect.as_slice());
            }
        }

        /// Every listed edge really lies within the radius, and edges
        /// are symmetric (the interaction graph is undirected).
        #[test]
        fn csr_edges_within_radius_and_symmetric(side in 2u32..10, r in 0.5f64..3.5) {
            let lat = Lattice::new(side);
            let table = NeighborTable::for_radius(&lat, r);
            for idx in 0..lat.num_sites() {
                let here = lat.site(idx);
                for &n in table.neighbors(idx) {
                    prop_assert!(here.within(lat.site(n as usize), r));
                    prop_assert!(table.neighbors(n as usize).contains(&(idx as u32)));
                }
            }
        }
    }
}
