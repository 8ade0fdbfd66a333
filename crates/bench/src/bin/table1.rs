//! Reproduces **Table 1** of the paper: smooth, residual and elastic
//! sensitivity — values and running times — for the four Figure-2 pattern
//! queries on the five (synthetic stand-in) collaboration networks, at
//! `β = 0.1` (ε = 1).
//!
//! ```text
//! cargo run -p dpcq-bench --release --bin table1 -- [--scale 8] [--beta 0.1]
//!     [--datasets CondMat,GrQc] [--queries q_triangle,q_rectangle]
//!     [--full] [--ratios] [--csv out.csv]
//! ```
//!
//! `--full` runs at the paper's dataset sizes (slow); the default
//! `--scale 8` shrinks each dataset 8× for a laptop-scale run. Absolute
//! values depend on the synthetic graphs; the comparisons to check against
//! the paper are the *ratios* (RS/SS ≈ 1, ES/RS huge except q3∗, time
//! SS ≫ RS).

use dpcq::graph::{datasets::DatasetProfile, queries, smooth_closed_form, Graph};
use dpcq::prelude::*;
use dpcq::sensitivity::{
    elastic_sensitivity_report, residual_sensitivity_report, rs_optimality_certificate, RsParams,
};
use dpcq_bench::{fmt_count, fmt_secs, time, Args, Table};
use std::time::Duration;

struct Cell {
    result: u128,
    ss: Option<(f64, Duration)>,
    rs: (f64, Duration),
    es: (f64, Duration),
    ratio_cert: Option<f64>,
}

fn main() {
    let args = Args::parse(&["full", "ratios"]);
    let scale = if args.has("full") {
        1.0
    } else {
        args.get_f64("scale", 8.0)
    };
    let beta = args.get_f64("beta", 0.1);
    let epsilon = beta * 10.0;
    let want_ratios = args.has("ratios");

    let dataset_filter: Option<Vec<String>> = args
        .get("datasets")
        .map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect());
    let query_filter: Option<Vec<String>> = args
        .get("queries")
        .map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect());

    let profiles: Vec<DatasetProfile> = DatasetProfile::all()
        .into_iter()
        .filter(|p| {
            dataset_filter
                .as_ref()
                .is_none_or(|f| f.contains(&p.name.to_lowercase()))
        })
        .map(|p| p.scaled(scale.max(1.0)))
        .collect();
    let query_list: Vec<(&'static str, _)> = queries::all()
        .into_iter()
        .filter(|(n, _)| {
            query_filter
                .as_ref()
                .is_none_or(|f| f.contains(&n.to_lowercase()))
        })
        .collect();

    println!("Table 1 reproduction — scale 1/{scale}, beta = {beta} (epsilon = {epsilon})\n");

    let graphs: Vec<(String, Graph)> = profiles
        .iter()
        .map(|p| {
            let (g, t) = time(|| p.generate());
            println!(
                "generated {:>8}: {} vertices, {} edges, max degree {} ({})",
                p.name,
                g.num_vertices(),
                g.num_edges(),
                g.max_degree(),
                fmt_secs(t)
            );
            (p.name.to_string(), g)
        })
        .collect();
    println!();

    let policy = Policy::all_private();
    let mut csv = Table::new(&[
        "query",
        "dataset",
        "result",
        "ss",
        "ss_secs",
        "rs",
        "rs_secs",
        "es",
        "es_secs",
        "rs_over_ss",
        "es_over_rs",
        "opt_ratio",
    ]);

    for (qname, q) in &query_list {
        let mut cells: Vec<(String, Cell)> = Vec::new();
        for (dname, g) in &graphs {
            let db = g.to_database();
            let engine = PrivateEngine::new(db.clone(), policy.clone(), epsilon);
            let result = engine.true_count(q).expect("count");
            let ss = match *qname {
                "q_triangle" => {
                    let (s, t) = time(|| smooth_closed_form::triangle_ss(g, beta));
                    Some((s.value, t))
                }
                "q_3star" => {
                    let (s, t) = time(|| smooth_closed_form::three_star_ss(g, beta));
                    Some((s.value, t))
                }
                // As in the paper: no polynomial-time SS is known for the
                // rectangle and 2-triangle queries.
                _ => None,
            };
            let (rs_report, rs_t) = time(|| {
                residual_sensitivity_report(q, &db, &policy, &RsParams::new(beta))
                    .expect("residual sensitivity")
            });
            let (es_report, es_t) = time(|| {
                elastic_sensitivity_report(q, &db, &policy, beta).expect("elastic sensitivity")
            });
            let ratio_cert = want_ratios.then(|| {
                rs_optimality_certificate(q, &db, &policy, epsilon)
                    .expect("certificate")
                    .ratio
            });
            cells.push((
                dname.clone(),
                Cell {
                    result,
                    ss,
                    rs: (rs_report.value, rs_t),
                    es: (es_report.value, es_t),
                    ratio_cert,
                },
            ));
        }

        // Paper-style block: rows = measures, columns = datasets.
        let mut headers: Vec<&str> = vec![qname];
        for (d, _) in &cells {
            headers.push(d);
        }
        let mut t = Table::new(&headers);
        let datum = |f: &dyn Fn(&Cell) -> String| -> Vec<String> {
            cells.iter().map(|(_, c)| f(c)).collect()
        };
        let mut push_row = |label: &str, vals: Vec<String>| {
            let mut row = vec![label.to_string()];
            row.extend(vals);
            t.row(row);
        };
        push_row("Query result", datum(&|c| fmt_count(c.result as f64)));
        push_row(
            "Smooth sensitivity (SS)",
            datum(&|c| c.ss.map_or_else(|| "-".into(), |(v, _)| fmt_count(v))),
        );
        push_row(
            "  SS time",
            datum(&|c| c.ss.map_or_else(|| "-".into(), |(_, d)| fmt_secs(d))),
        );
        push_row("Residual sensitivity (RS)", datum(&|c| fmt_count(c.rs.0)));
        push_row("  RS time", datum(&|c| fmt_secs(c.rs.1)));
        push_row("Elastic sensitivity (ES)", datum(&|c| fmt_count(c.es.0)));
        push_row("  ES time", datum(&|c| fmt_secs(c.es.1)));
        push_row(
            "RS/SS",
            datum(&|c| {
                c.ss.map_or_else(
                    || "-".into(),
                    |(v, _)| format!("{:.2}x", c.rs.0 / v.max(1e-12)),
                )
            }),
        );
        push_row(
            "SS/RS time",
            datum(&|c| {
                c.ss.map_or_else(
                    || "-".into(),
                    |(_, d)| format!("{:.1}x", d.as_secs_f64() / c.rs.1.as_secs_f64().max(1e-9)),
                )
            }),
        );
        push_row(
            "ES/RS",
            datum(&|c| format!("{:.3e}", c.es.0 / c.rs.0.max(1e-12))),
        );
        push_row(
            "RS/ES time",
            datum(&|c| {
                format!(
                    "{:.1}x",
                    c.rs.1.as_secs_f64() / c.es.1.as_secs_f64().max(1e-9)
                )
            }),
        );
        if want_ratios {
            push_row(
                "Empirical optimality ratio",
                datum(&|c| {
                    c.ratio_cert
                        .map_or_else(|| "-".into(), |r| format!("{r:.1}"))
                }),
            );
        }
        println!("{}", t.render());

        for (d, c) in &cells {
            csv.row(vec![
                qname.to_string(),
                d.clone(),
                c.result.to_string(),
                c.ss.map_or(String::new(), |(v, _)| v.to_string()),
                c.ss.map_or(String::new(), |(_, t)| t.as_secs_f64().to_string()),
                c.rs.0.to_string(),
                c.rs.1.as_secs_f64().to_string(),
                c.es.0.to_string(),
                c.es.1.as_secs_f64().to_string(),
                c.ss.map_or(String::new(), |(v, _)| (c.rs.0 / v.max(1e-12)).to_string()),
                (c.es.0 / c.rs.0.max(1e-12)).to_string(),
                c.ratio_cert.map_or(String::new(), |r| r.to_string()),
            ]);
        }
    }

    if let Some(path) = args.get("csv") {
        std::fs::write(path, csv.to_csv()).expect("write csv");
        println!("wrote {path}");
    }
}
