//! The Fig. 10 deployment: 12 tags and one reader on the SUV BiW.
//!
//! The vehicle measures ≈ 4.8 m × 1.9 m. Tags 1–3 sit near the front row
//! (dashboard / front floor), Tags 4–8 in the second row around the
//! centrally placed reader (above the battery pack), and Tags 9–12 in the
//! cargo area. Each site carries a *structural path descriptor* — the path
//! length through the metal and the number of seam and perpendicular
//! junctions the vibration crosses — because in a real BiW the wave follows
//! panels and beams, not the line of sight.
//!
//! Two sites the paper singles out are modelled explicitly:
//!
//! * **Tag 4** sits "at a turning face of the BiW structure": its path
//!   crosses a perpendicular junction, which costs it most of its energy
//!   despite a modest distance (4.74 V at 16×);
//! * **Tag 11** is deep in the cargo area "due to the long propagation
//!   distance through multiple structural elements" (2.70 V at 16×).

use crate::propagation::PathSpec;

/// Vehicle length in metres (ONVO L60, Sec. 6.1).
pub const VEHICLE_LENGTH_M: f64 = 4.8;
/// Vehicle width in metres.
pub const VEHICLE_WIDTH_M: f64 = 1.9;

/// Deployment zone of a tag (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Zone {
    /// Front row: dashboard and front floor (Tags 1–3).
    FrontRow,
    /// Second row: middle floor around the reader (Tags 4–8).
    SecondRow,
    /// Cargo area: rear floor (Tags 9–12).
    Cargo,
}

/// A tag's placement on the BiW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagSite {
    /// Tag ID (1–12 in the paper's numbering).
    pub id: u8,
    /// Deployment zone.
    pub zone: Zone,
    /// Position (x along length from the front, y across width), metres —
    /// used for visualization and sanity checks.
    pub position: (f64, f64),
    /// Structural path from the reader to this tag.
    pub path: PathSpec,
}

/// The full deployment: reader position plus tag sites.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Reader position (x, y) in metres.
    pub reader_position: (f64, f64),
    /// Tag sites, ordered by ID.
    pub sites: Vec<TagSite>,
}

impl Deployment {
    /// The paper's 12-tag deployment (Fig. 10), with path descriptors
    /// calibrated so the harvested-voltage ladder reproduces Fig. 11.
    pub fn paper() -> Self {
        // Reader: second row, centre, above the battery pack.
        let reader = (2.45, 0.95);
        let site = |id, zone, x: f64, y: f64, len, seams, perps| TagSite {
            id,
            zone,
            position: (x, y),
            path: PathSpec {
                length_m: len,
                seam_junctions: seams,
                perp_junctions: perps,
            },
        };
        // Structural path lengths exceed line-of-sight because waves route
        // along floor panels and beams around the battery pack.
        Self {
            reader_position: reader,
            sites: vec![
                // Front row: seams at the dashboard bulkhead / floor joint.
                site(1, Zone::FrontRow, 1.10, 0.35, 2.43, 1, 0),
                site(2, Zone::FrontRow, 1.00, 0.95, 1.52, 2, 0),
                site(3, Zone::FrontRow, 1.10, 1.55, 1.61, 2, 0),
                // Second row. Tag 4 is on a turning face: short path but a
                // perpendicular junction. Tags 5/6 sit past a floor seam;
                // the resulting harvested-voltage spread is what scatters
                // Fig. 11(b)'s charge times between 4 and 55 seconds.
                site(4, Zone::SecondRow, 2.30, 0.10, 1.00, 0, 1),
                site(5, Zone::SecondRow, 2.30, 1.50, 2.30, 1, 0),
                site(6, Zone::SecondRow, 2.70, 0.40, 2.10, 1, 0),
                site(7, Zone::SecondRow, 2.80, 0.95, 1.90, 0, 0),
                site(8, Zone::SecondRow, 2.60, 1.20, 1.10, 0, 0),
                // Cargo: two seams into the rear floor; Tag 11 runs the
                // longest path.
                site(9, Zone::Cargo, 3.90, 0.30, 1.70, 2, 0),
                site(10, Zone::Cargo, 3.90, 1.60, 1.78, 2, 0),
                site(11, Zone::Cargo, 4.55, 0.95, 2.55, 2, 0),
                site(12, Zone::Cargo, 4.20, 0.95, 1.86, 2, 0),
            ],
        }
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when there are no tags.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Site of tag `id`, if present.
    pub fn site(&self, id: u8) -> Option<&TagSite> {
        self.sites.iter().find(|s| s.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_deployment_has_12_tags() {
        let d = Deployment::paper();
        assert_eq!(d.len(), 12);
        for (i, s) in d.sites.iter().enumerate() {
            assert_eq!(s.id as usize, i + 1, "IDs must be 1..=12 in order");
        }
    }

    #[test]
    fn zones_match_figure_10() {
        let d = Deployment::paper();
        for s in &d.sites {
            let expected = match s.id {
                1..=3 => Zone::FrontRow,
                4..=8 => Zone::SecondRow,
                _ => Zone::Cargo,
            };
            assert_eq!(s.zone, expected, "tag {}", s.id);
        }
    }

    #[test]
    fn positions_are_on_the_vehicle() {
        let d = Deployment::paper();
        for s in &d.sites {
            assert!(
                s.position.0 >= 0.0 && s.position.0 <= VEHICLE_LENGTH_M,
                "tag {}",
                s.id
            );
            assert!(
                s.position.1 >= 0.0 && s.position.1 <= VEHICLE_WIDTH_M,
                "tag {}",
                s.id
            );
        }
        assert!(d.reader_position.0 <= VEHICLE_LENGTH_M);
        assert!(d.reader_position.1 <= VEHICLE_WIDTH_M);
    }

    #[test]
    fn structural_paths_are_at_least_line_of_sight() {
        let d = Deployment::paper();
        for s in &d.sites {
            let dx = s.position.0 - d.reader_position.0;
            let dy = s.position.1 - d.reader_position.1;
            let los = (dx * dx + dy * dy).sqrt();
            assert!(
                s.path.length_m >= los * 0.95,
                "tag {}: structural path {} shorter than LoS {los}",
                s.id,
                s.path.length_m
            );
        }
    }

    #[test]
    fn tag4_has_perpendicular_junction() {
        let d = Deployment::paper();
        assert_eq!(d.site(4).unwrap().path.perp_junctions, 1);
    }

    #[test]
    fn tag11_has_longest_path() {
        let d = Deployment::paper();
        let t11 = d.site(11).unwrap().path.length_m;
        for s in &d.sites {
            assert!(s.path.length_m <= t11, "tag {} path exceeds tag 11", s.id);
        }
        assert_eq!(d.site(11).unwrap().path.seam_junctions, 2);
    }

    #[test]
    fn tag8_has_strongest_path() {
        // Tag 4's path is shorter in metres, but its perpendicular junction
        // makes Tag 8 the strongest link — exactly the paper's observation.
        let d = Deployment::paper();
        let g8 = d.site(8).unwrap().path.gain();
        for s in &d.sites {
            assert!(
                s.path.gain() <= g8 + 1e-12,
                "tag {} stronger than tag 8",
                s.id
            );
        }
    }

    #[test]
    fn site_lookup() {
        let d = Deployment::paper();
        assert!(d.site(7).is_some());
        assert!(d.site(13).is_none());
        assert!(d.site(0).is_none());
    }
}
