//! Quickstart: compile the paper's Relaxation module, look at every
//! artifact the compiler produces, and run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ps_core::{
    compile, execute, programs, CodegenOptions, CompileOptions, Inputs, OwnedArray, Program,
    RuntimeOptions, Sequential,
};

fn main() {
    // 1. Compile the nonprocedural source. The `define` section is a set of
    //    unordered equations; the compiler derives the execution order.
    let comp = compile(programs::RELAXATION_V1, CompileOptions::default())
        .expect("the Figure-1 module compiles");

    println!("=== PS source (Figure 1) ===\n{}", programs::RELAXATION_V1);

    // 2. The dependency graph (Figure 3).
    println!("=== Dependency graph (Figure 3) ===");
    println!("{}", ps_depgraph::stats::stats(&comp.depgraph));

    // 3. The component table (Figure 5).
    println!("\n=== Components (Figure 5) ===");
    print!(
        "{}",
        ps_scheduler::render::render_component_table(&comp.module, &comp.depgraph, &comp.schedule)
    );

    // 4. The scheduled flowchart (Figure 6) with DO/DOALL annotations.
    println!("\n=== Flowchart (Figure 6) ===");
    print!(
        "{}",
        ps_scheduler::render::render_flowchart(&comp.module, &comp.schedule.flowchart)
    );

    // 5. Memory plan: dimension K of A is a window of 2 planes.
    println!("\n=== Virtual dimensions (Section 3.4) ===");
    print!(
        "{}",
        ps_scheduler::render::render_memory_plan(&comp.module, &comp.schedule)
    );

    // 6. Execute: relax a 8x8 grid with a hot spot for 20 sweeps.
    let m = 8i64;
    let side = (m + 2) as usize;
    let mut init = vec![0.0f64; side * side];
    init[(side / 2) * side + side / 2] = 100.0;
    let inputs = Inputs::new().set_int("M", m).set_int("maxK", 20).set_array(
        "InitialA",
        OwnedArray::real(vec![(0, m + 1), (0, m + 1)], init),
    );
    let out = execute(&comp, &inputs, &Sequential, RuntimeOptions::default())
        .expect("execution succeeds");

    println!("\n=== Result grid after 20 sweeps (centre rows) ===");
    let new_a = out.array("newA");
    for i in (side / 2 - 2)..(side / 2 + 2) {
        let row: Vec<String> = (0..side)
            .map(|j| format!("{:6.2}", new_a.get(&[i as i64, j as i64]).as_real()))
            .collect();
        println!("  {}", row.join(" "));
    }

    // 7. Compile once, run many: a `Program` lowers the tapes a single
    //    time; each `run` only binds parameters and executes against
    //    pooled storage — the shape a service answering many small
    //    solves needs. (`&Program` is Send + Sync, so worker threads can
    //    share one artifact.)
    let prog = Program::compile(&comp, RuntimeOptions::default());
    println!("\n=== Compile-once / run-many (grid sizes 4, 6, 8) ===");
    for m in [4i64, 6, 8] {
        let side = (m + 2) as usize;
        let mut init = vec![0.0f64; side * side];
        init[(side / 2) * side + side / 2] = 100.0;
        let out = prog
            .run(
                &Inputs::new().set_int("M", m).set_int("maxK", 10).set_array(
                    "InitialA",
                    OwnedArray::real(vec![(0, m + 1), (0, m + 1)], init),
                ),
                &Sequential,
            )
            .expect("pooled run succeeds");
        let total: f64 = out.array("newA").as_real_slice().iter().sum();
        println!("  M = {m}: interior mass after 10 sweeps = {total:.3}");
    }
    println!(
        "  ({} parameter layouts specialized, tapes lowered once)",
        prog.specialization_count()
    );

    // 8. C is generated on demand, not by `compile` (see the emit_c example).
    println!(
        "\nGenerated C: {} lines (run the emit_c example to see it).",
        comp.emit_c(CodegenOptions::default()).lines().count()
    );
}
