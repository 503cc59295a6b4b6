//! Dataset specifications: `NAME=SOURCE` bindings for query relation
//! positions, where a source is a CSV path or an inline generator spec.
//!
//! ```text
//! --data R1=roads.csv
//! --data R2=synthetic:n=10000,seed=7,lmax=250,extent=20000
//! --data R3=california:n=20000,seed=1
//! ```
//!
//! Both the CLI (`mwsj run`, `mwsj query`) and the service's wire
//! protocol use these specs, so a query sent over the network names its
//! datasets exactly as the command line does.

use std::collections::BTreeMap;

use mwsj_datagen::{io, CaliforniaConfig, SyntheticConfig};
use mwsj_geom::Rect;

/// The most rectangles a generator spec (`synthetic:n=`, `california:n=`)
/// may ask for: twice the paper's largest relation (5 M rectangles), which
/// bounds what one spec allocates — on a server worker, from a line any
/// client may send — at 10 M × 32 B = 320 MB.
const MAX_GENERATED_RECTS: usize = 10_000_000;

/// Loads a data source: `synthetic:...`, `california:...`, `store:...`
/// or a CSV path, as rectangles in input order. A `store:` source is
/// materialized, for a caller that rebuilds it on a grid of its own (the
/// CLI, when stores are bound beside other sources). The server opens a
/// `store:` binding itself and materializes one on another grid from that
/// same open.
///
/// # Errors
/// Describes the bad parameter — unparsable, or outside what the
/// generators accept (they sample `0..extent` and `0..lmax`, and an empty
/// or non-finite range panics there; `n` sizes their buffer, so it is
/// bounded at 10 M rectangles, 320 MB) — or the unreadable file.
pub fn load_source(source: &str) -> Result<Vec<Rect>, String> {
    if let Some(path) = source.strip_prefix("store:") {
        let stored = mwsj_core::store::StoredDataset::open(std::path::Path::new(path))
            .map_err(|e| format!("opening store `{path}`: {e}"))?;
        Ok(stored.materialize())
    } else if let Some(params) = source.strip_prefix("synthetic:") {
        let p = parse_params(params)?;
        let n = bounded_n(param_parsed(&p, "n", 10_000usize)?)?;
        let seed = param_parsed(&p, "seed", 42u64)?;
        let extent = param_parsed(&p, "extent", 100_000.0f64)?;
        let lmax = param_parsed(&p, "lmax", 100.0f64)?;
        let bmax = param_parsed(&p, "bmax", lmax)?;
        if !(extent.is_finite() && extent > 0.0) {
            return Err(format!(
                "extent={extent} invalid: must be finite and positive"
            ));
        }
        for (key, side) in [("lmax", lmax), ("bmax", bmax)] {
            if !(side.is_finite() && side >= 0.0) {
                return Err(format!(
                    "{key}={side} invalid: must be finite and non-negative"
                ));
            }
        }
        let mut cfg = SyntheticConfig::paper_default(n, seed).with_max_sides(lmax, bmax);
        cfg.x_range = (0.0, extent);
        cfg.y_range = (0.0, extent);
        Ok(cfg.generate())
    } else if let Some(params) = source.strip_prefix("california:") {
        let p = parse_params(params)?;
        let n = bounded_n(param_parsed(&p, "n", 20_000usize)?)?;
        let seed = param_parsed(&p, "seed", 2013u64)?;
        if n == 0 {
            return Err("n=0 invalid: a road dataset needs at least one rectangle".to_string());
        }
        let scaled = !p.contains_key("full");
        let cfg = if scaled {
            CaliforniaConfig::scaled_to(n, seed)
        } else {
            CaliforniaConfig::new(n, seed)
        };
        Ok(cfg.generate())
    } else {
        io::load_rects(source).map_err(|e| format!("reading `{source}`: {e}"))
    }
}

fn bounded_n(n: usize) -> Result<usize, String> {
    if n > MAX_GENERATED_RECTS {
        return Err(format!(
            "n={n} invalid: a generated dataset holds at most {MAX_GENERATED_RECTS} rectangles"
        ));
    }
    Ok(n)
}

fn parse_params(s: &str) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    if s.is_empty() {
        return Ok(map);
    }
    for part in s.split(',') {
        match part.split_once('=') {
            Some((k, v)) => {
                map.insert(k.trim().to_string(), v.trim().to_string());
            }
            None => {
                map.insert(part.trim().to_string(), String::new());
            }
        }
    }
    Ok(map)
}

fn param_parsed<T: std::str::FromStr>(
    p: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match p.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{key}=`{v}` invalid: {e}")),
    }
}

/// The tight bounding extent of a set of datasets, padded for safety, as
/// `(x_range, y_range)` for the cluster space.
#[must_use]
pub fn bounding_space(datasets: &[&[Rect]]) -> ((f64, f64), (f64, f64)) {
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for r in datasets.iter().flat_map(|d| d.iter()) {
        min_x = min_x.min(r.min_x());
        max_x = max_x.max(r.max_x());
        min_y = min_y.min(r.min_y());
        max_y = max_y.max(r.max_y());
    }
    if !min_x.is_finite() {
        return ((0.0, 1.0), (0.0, 1.0));
    }
    let pad_x = ((max_x - min_x) * 0.001).max(1e-9);
    let pad_y = ((max_y - min_y) * 0.001).max(1e-9);
    ((min_x, max_x + pad_x), (min_y, max_y + pad_y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_spec() {
        let d = load_source("synthetic:n=100,seed=1,extent=1000,lmax=50").unwrap();
        assert_eq!(d.len(), 100);
        assert!(d.iter().all(|r| r.max_x() <= 1000.0 && r.l() <= 50.0));
    }

    #[test]
    fn california_spec() {
        let d = load_source("california:n=500,seed=3").unwrap();
        assert_eq!(d.len(), 500);
    }

    #[test]
    fn bad_param_reports() {
        assert!(load_source("synthetic:n=abc").is_err());
        for spec in [
            "synthetic:n=10,extent=-5",
            "synthetic:n=10,extent=0",
            "synthetic:n=10,extent=nan",
            "synthetic:n=10,extent=inf",
            "synthetic:n=10,lmax=-1",
            "synthetic:n=10,bmax=nan",
            "california:n=0",
            "synthetic:n=100000000000",
            "california:n=100000000000",
        ] {
            assert!(load_source(spec).is_err(), "{spec}");
        }
        assert_eq!(load_source("synthetic:n=10,lmax=0").unwrap().len(), 10);
    }

    #[test]
    fn store_spec_materializes() {
        use mwsj_core::partition::Grid;
        use mwsj_core::store::StoreBuilder;

        let rects = load_source("synthetic:n=50,seed=9,extent=1000").unwrap();
        let path = std::env::temp_dir().join("mwsj-source-test.store");
        let grid = Grid::square((0.0, 1000.0), (0.0, 1000.0), 4);
        StoreBuilder::new(&grid).write(&rects, &path).unwrap();
        let spec = format!("store:{}", path.display());
        let loaded = load_source(&spec).unwrap();
        assert_eq!(loaded, rects);
        std::fs::remove_file(&path).ok();
        assert!(load_source("store:/no/such/file.store").is_err());
    }

    #[test]
    fn bounding_space_covers_everything() {
        let a = vec![Rect::new(5.0, 20.0, 3.0, 4.0)];
        let b = vec![Rect::new(100.0, 80.0, 10.0, 10.0)];
        let ((x0, x1), (y0, y1)) = bounding_space(&[&a, &b]);
        assert!(x0 <= 5.0 && x1 >= 110.0);
        assert!(y0 <= 16.0 && y1 >= 80.0);
    }

    #[test]
    fn bounding_space_admits_the_rectangles_on_its_low_edge() {
        use mwsj_core::{reference, Cluster, ClusterConfig, JoinRun};
        // What `mwsj run` does with default-extent sources: the space
        // starts at the smallest coordinate present, not at 0. For these
        // seeds an extent re-derived as `yn - (yn - y0)` rounded above
        // the rectangle that defines `y0`, and the run was rejected.
        let query = mwsj_core::query::Query::parse("A ov B").unwrap();
        for seed in [3, 6, 7, 8, 9] {
            let a = load_source(&format!("synthetic:n=500,seed={seed}")).unwrap();
            let b = load_source(&format!("synthetic:n=500,seed={}", seed + 100)).unwrap();
            let relations: [&[Rect]; 2] = [&a, &b];
            let (x_range, y_range) = bounding_space(&relations);
            let cluster = Cluster::new(ClusterConfig::for_space(x_range, y_range, 8));
            let counted = cluster
                .submit(&JoinRun::new(&query, &relations).counting())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let expected = reference::in_memory_join(&query, &relations);
            assert_eq!(counted.tuple_count, expected.len() as u64, "seed {seed}");
        }
    }
}
