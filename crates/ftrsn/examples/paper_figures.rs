//! Reproduces the data behind the paper's running example figures:
//!
//! * **Fig. 2** — the example RSN with segments A, B, C, D and the active
//!   path A, B, D in the initial state (printed as Graphviz DOT).
//! * **Fig. 4** — the dataflow graph's original edges `E`, potential edges
//!   `E_P` with their costs, and the augmenting edge set `E_A` that
//!   synthesis integrates, with the exact ILP's optimum as the certificate
//!   that it is minimal.
//! * **Fig. 5** — the synthesized select equations of that same network.
//!
//! ```text
//! cargo run --example paper_figures
//! ```

use ftrsn::budget::Budget;
use ftrsn::core::examples::fig2;
use ftrsn::synth::select::{derive_selects, select_equation};
use ftrsn::synth::{augment_ilp_under, synthesize, Dataflow, SynthesisOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rsn = fig2();

    println!("==== Fig. 2: the example RSN ====");
    println!("{}", rsn.to_dot(Some(&rsn.reset_config())));
    let path = rsn.active_path(&rsn.reset_config())?;
    let names: Vec<&str> = path.segments(&rsn).map(|s| rsn.node(s).name()).collect();
    println!("active path in the initial state: {}\n", names.join(" -> "));

    println!("==== Fig. 4: potential edges and the minimal augmenting set ====");
    let df = Dataflow::extract(&rsn);
    println!("vertices (level):");
    for v in 0..df.len() {
        println!("  {} (level {})", df.name(&rsn, v), df.levels[v]);
    }
    println!("original edges E:");
    for (u, v) in df.graph.edges() {
        println!("  {} -> {}", df.name(&rsn, u), df.name(&rsn, v));
    }
    // Both figures describe fig2's synthesis without secondary ports: 13
    // nodes, so its selects are materialized.
    let mut synth_opts = SynthesisOptions::new();
    synth_opts.secondary_ports = false;
    let opts = &synth_opts.augment;
    println!(
        "potential edges E_P \\ E (cost = 1 + α·Δlevel, α = {}):",
        opts.alpha
    );
    for i in 0..df.len() {
        for j in 0..df.len() {
            if i == j || j == df.root || i == df.sink || df.levels[j] < df.levels[i] {
                continue;
            }
            if df.graph.has_edge(i, j) {
                continue;
            }
            let cost = ftrsn::synth::augment::edge_cost(&df.levels, opts.alpha, i, j);
            println!(
                "  {} -> {}  (cost {:.2})",
                df.name(&rsn, i),
                df.name(&rsn, j),
                cost
            );
        }
    }
    let result = synthesize(&rsn, &synth_opts)?;
    let aug = &result.augmentation;
    let optimum = augment_ilp_under(&df, opts, &Budget::unlimited())?;
    println!(
        "augmenting edge set E_A \\ E of the synthesis (cost {:.2}; \
         exact ILP optimum {:.2} after {} cut rounds):",
        aug.cost, optimum.cost, optimum.cut_rounds
    );
    for &(i, j) in &aug.added {
        println!("  {} -> {}", df.name(&rsn, i), df.name(&rsn, j));
    }
    assert!(
        (aug.cost - optimum.cost).abs() < 1e-9,
        "the ILP optimum certifies a minimal edge set"
    );
    println!();

    println!("==== Fig. 5: synthesized select equations ====");
    let ft = &result.rsn;
    let selects = derive_selects(ft);
    for name in ["A", "B", "C", "D"] {
        let seg = ft.find(name).expect("original segment preserved");
        println!("  {}", select_equation(ft, &selects, seg));
    }
    Ok(())
}
