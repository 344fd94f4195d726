//! `perf_ledger compare <a> <b>`: applies the bounds of `BENCHMARK.json`
//! to two sets of runs. Each file is the captured standard output of one
//! or more runs; only the lines that start `{"ledger":1` are read.

use crate::stats::median;
use rabitq_serve::Json;
use std::collections::BTreeMap;
use std::io;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs spread wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One declared end-to-end metric.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One metric of one run: its value, and min/max over its repetitions.
#[derive(Clone, Copy)]
struct Reading {
    value: f64,
    range: Option<(f64, f64)>,
}

/// workload -> metric -> one reading per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<Reading>>>;

pub fn bounds_from(benchmark_json: &str) -> io::Result<Vec<Bound>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let json = Json::parse(benchmark_json).map_err(|e| bad(&e.to_string()))?;
    json.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("BENCHMARK.json lacks end_to_end"))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("an end_to_end entry lacks name, better or bound"))
}

fn parse_runs(text: &str) -> Runs {
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| l.starts_with("{\"ledger\":1")) {
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        let (Some(workload), Some(Json::Obj(metrics))) = (
            json.get("workload").and_then(Json::as_str),
            json.get("metrics"),
        ) else {
            continue;
        };
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let range = m
                .get("min")
                .and_then(Json::as_f64)
                .zip(m.get("max").and_then(Json::as_f64));
            per_metric
                .entry(name.clone())
                .or_default()
                .push(Reading { value, range });
        }
    }
    runs
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default, exclusive, method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        let pos = (n as f64 + 1.0) * p;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Spread of one side as a share of its median: across runs when there
/// are at least four, else across the repetitions inside the runs.
fn spread(readings: &[Reading]) -> f64 {
    let values: Vec<f64> = readings.iter().map(|r| r.value).collect();
    let mid = median(&values).abs().max(f64::MIN_POSITIVE);
    if values.len() >= 4 {
        let (q1, q3) = quartiles(&values);
        (q3 - q1) / mid
    } else {
        readings
            .iter()
            .filter_map(|r| r.range)
            .map(|(lo, hi)| (hi - lo) / mid)
            .fold(0.0, f64::max)
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s, and
/// the verdict under `bound`.
fn judge(a: &[Reading], b: &[Reading], bound: &Bound) -> (Verdict, f64, f64) {
    let mid = |r: &[Reading]| median(&r.iter().map(|x| x.value).collect::<Vec<_>>());
    let (ma, mb) = (mid(a), mid(b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    let worse = if bound.lower_is_better {
        (mb - ma) / base
    } else {
        (ma - mb) / base
    };
    let spread = spread(a).max(spread(b));
    let verdict = if worse > bound.bound {
        Verdict::Regressed
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

/// Prints one row per workload and the detail of every pairing that is
/// not `ok`. Returns the number of regressed pairings.
pub fn compare(a_text: &str, b_text: &str, bounds: &[Bound]) -> usize {
    let (a, b) = (parse_runs(a_text), parse_runs(b_text));
    let mut regressed = 0;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload}: unresolved (absent from the second file)");
            continue;
        };
        let mut worst = Verdict::Ok;
        let mut cells = Vec::new();
        let mut details = Vec::new();
        for bound in bounds {
            let (Some(ra), Some(rb)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name))
            else {
                cells.push(format!("{}=absent", bound.name));
                worst = Verdict::Unresolved;
                continue;
            };
            let (verdict, worse, spread) = judge(ra, rb, bound);
            let word = verdict.word();
            cells.push(format!("{}={word}", bound.name));
            if verdict != Verdict::Ok {
                details.push(format!(
                    "  {workload} {}: {word}; worse by {:+.2}% (bound {:.2}%), spread {:.2}%, \
                     runs {} vs {}",
                    bound.name,
                    100.0 * worse,
                    100.0 * bound.bound,
                    100.0 * spread,
                    ra.len(),
                    rb.len()
                ));
            }
            match verdict {
                Verdict::Regressed => {
                    regressed += 1;
                    worst = Verdict::Regressed;
                }
                Verdict::Unresolved if worst == Verdict::Ok => worst = Verdict::Unresolved,
                _ => {}
            }
        }
        println!("{workload}: {} | {}", worst.word(), cells.join(" "));
        for d in details {
            println!("{d}");
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, qps: f64, lo: f64, hi: f64) -> String {
        format!(
            "noise\n{{\"ledger\":1,\"workload\":\"{workload}\",\"metrics\":{{\"qps\":\
             {{\"value\":{qps},\"unit\":\"1/s\",\"min\":{lo},\"max\":{hi}}}}}}}\n"
        )
    }

    fn qps_bound() -> Vec<Bound> {
        bounds_from(
            "{\"end_to_end\":[{\"name\":\"qps\",\"unit\":\"1/s\",\"better\":\"higher\",\"bound\":0.1}]}",
        )
        .unwrap()
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), (12.5, 70.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let bounds = qps_bound();
        let a = line("w", 1000.0, 990.0, 1010.0);
        assert_eq!(compare(&a, &line("w", 950.0, 940.0, 960.0), &bounds), 0);
        assert_eq!(compare(&a, &line("w", 880.0, 870.0, 890.0), &bounds), 1);
        // Wide repetitions: unresolved, not regressed and not ok.
        let wide = parse_runs(&line("w", 1000.0, 800.0, 1200.0));
        let steady = parse_runs(&a);
        let (verdict, _, _) = judge(&wide["w"]["qps"], &steady["w"]["qps"], &bounds[0]);
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn many_runs_use_the_interquartile_range() {
        let bounds = qps_bound();
        let runs: String = [1000.0, 1005.0, 995.0, 1002.0, 998.0, 700.0]
            .iter()
            .map(|&q| line("w", q, q, q))
            .collect();
        let parsed = parse_runs(&runs);
        // One outlier in six does not move the quartiles past the bound.
        let (verdict, worse, _) = judge(&parsed["w"]["qps"], &parsed["w"]["qps"], &bounds[0]);
        assert_eq!(verdict, Verdict::Ok);
        assert_eq!(worse, 0.0);
    }
}
