//! Regenerate every table and figure of EXPERIMENTS.md.
//!
//! Usage: `report [all|exp-a|exp-b|exp-c|exp-p|exp-t|tab-1|tab-2|tab-3|tab-4|fig-t|exp-e|abl-1|fig1]`

use xse_bench::experiments as x;
use xse_bench::pct;

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = what == "all";
    if all || what == "fig1" {
        fig1();
    }
    if all || what == "exp-a" {
        exp_a();
    }
    if all || what == "exp-b" {
        exp_b();
    }
    if all || what == "exp-c" {
        exp_c();
    }
    if all || what == "exp-p" {
        exp_p();
    }
    if all || what == "exp-t" {
        exp_t();
    }
    if all || what == "tab-1" {
        tab1();
    }
    if all || what == "tab-2" {
        tab2();
    }
    if all || what == "tab-3" {
        tab3();
    }
    if all || what == "tab-4" {
        tab4();
    }
    if all || what == "fig-t" {
        fig_t();
    }
    if all || what == "exp-e" {
        exp_e();
    }
    if all || what == "abl-1" {
        abl1();
    }
}

fn fig1() {
    println!("## FIG-1: the paper's Figure 1 / Example 4.2 embedding\n");
    let (s0, s) = xse_bench::fixtures::fig1_pair();
    let e = xse_bench::fixtures::fig1_embedding(&s0, &s);
    println!("{}", e.describe());
}

fn exp_a() {
    println!("## EXP-A: success rate vs. att ambiguity (structural noise 0.3, accuracy 0.9)\n");
    println!("| ambiguity | Random found | Random λ-correct | QualityOrdered found | QO λ-correct | IndepSet found | IS λ-correct |");
    println!("|---|---|---|---|---|---|---|");
    for r in x::exp_a(6) {
        println!(
            "| {:.0} | {:.0}% | {:.0}% | {:.0}% | {:.0}% | {:.0}% | {:.0}% |",
            r.x, r.found[0], r.correct[0], r.found[1], r.correct[1], r.found[2], r.correct[2]
        );
    }
    println!();
}

fn exp_b() {
    println!("## EXP-B: success rate vs. structural noise level (ambiguity 2, accuracy 1.0)\n");
    println!("| noise | Random found | Random λ-correct | QualityOrdered found | QO λ-correct | IndepSet found | IS λ-correct |");
    println!("|---|---|---|---|---|---|---|");
    for r in x::exp_b(6) {
        println!(
            "| {:.1} | {:.0}% | {:.0}% | {:.0}% | {:.0}% | {:.0}% | {:.0}% |",
            r.x, r.found[0], r.correct[0], r.found[1], r.correct[1], r.found[2], r.correct[2]
        );
    }
    println!();
}

fn exp_c() {
    println!("## EXP-C: discovery runtime vs. schema size (noised copy, exact att)\n");
    println!("| |S1| types | Random ms | QualityOrdered ms | IndepSet ms | all found |");
    println!("|---|---|---|---|---|");
    for r in x::exp_c(&[10, 25, 50, 100, 200, 400]) {
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {} |",
            r.size,
            r.millis[0],
            r.millis[1],
            r.millis[2],
            r.found.iter().all(|&b| b)
        );
    }
    println!();
}

fn exp_p() {
    println!(
        "## EXP-P: parallel restart engine (random schemas, noise 0.3, ambiguity 4, 48 restarts)\n"
    );
    let threads = xse_bench::experiments::thread_sweep();
    println!("| |S1| types | threads | ms | found | attempts | speedup vs 1 |");
    println!("|---|---|---|---|---|---|");
    for r in x::exp_p(&[50, 100, 200, 400], &threads) {
        println!(
            "| {} | {} | {:.1} | {} | {} | {:.2}× |",
            r.size, r.threads, r.millis, r.found, r.attempts, r.speedup
        );
    }
    println!();
}

fn exp_t() {
    println!("## EXP-T: sequential vs. two-worker discovery by pair (24 restarts, best of 200)\n");
    println!("| pair | found | t1 attempts | t1 ms | t2 ms | t1/t2 |");
    println!("|---|---|---|---|---|---|");
    for r in x::exp_t(200) {
        println!(
            "| {} | {} | {} | {:.3} | {:.3} | {:.2}× |",
            r.label,
            r.found,
            r.attempts,
            r.t1_millis,
            r.t2_millis,
            r.t1_millis / r.t2_millis
        );
    }
    println!();
}

fn tab1() {
    println!("## TAB-1: corpus discovery (structural noise 0.4, exact att, Random strategy)\n");
    println!("| schema | types | edges | recursive | found | λ-correct | |σ| | ms | attempts |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in x::tab1() {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {} |",
            r.name,
            r.types,
            r.edges,
            r.recursive,
            r.found,
            r.lambda_correct,
            r.sigma_size,
            r.millis,
            r.attempts
        );
    }
    println!();
}

fn tab2() {
    println!("## TAB-2: query translation (Theorem 4.3b bound |Q|·|σ|·|S1|)\n");
    let rows = x::tab2(8);
    println!("| |Q| | |Tr(Q)| | bound | within | µs |");
    println!("|---|---|---|---|---|");
    let mut within = 0;
    for r in &rows {
        println!(
            "| {} | {} | {} | {} | {:.0} |",
            r.q_size,
            r.tr_size,
            r.bound,
            r.tr_size <= r.bound,
            r.micros
        );
        within += usize::from(r.tr_size <= r.bound);
    }
    println!("\nwithin bound: {}\n", pct(within, rows.len()));
}

fn tab3() {
    println!("## TAB-3: information preservation (randomized instances × queries)\n");
    println!("| embedding | instances | type-safe | injective | roundtrip | q-checks | q-preserving | bound ok |");
    println!("|---|---|---|---|---|---|---|---|");
    for r in x::tab3(10, 12) {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            r.name,
            r.instances,
            pct(r.type_safe, r.instances),
            pct(r.injective, r.instances),
            pct(r.roundtrip, r.instances),
            r.queries,
            pct(r.query_preserving, r.queries),
            pct(r.bound_ok, r.queries),
        );
    }
    println!();
}

fn tab4() {
    println!("## TAB-4: XSLT coding of σd / σd⁻¹ vs. direct algorithms\n");
    let r = x::tab4(20);
    println!("| embedding | fwd rules | inv rules | trials | σd ≡ XSLT | XSLT roundtrip |");
    println!("|---|---|---|---|---|---|");
    println!(
        "| {} | {} | {} | {} | {} | {} |",
        r.name,
        r.rules_fwd,
        r.rules_inv,
        r.trials,
        pct(r.fwd_equal, r.trials),
        pct(r.roundtrip_equal, r.trials)
    );
    println!();
}

fn fig_t() {
    println!("## FIG-T: instance mapping scaling (Figure 1 embedding)\n");
    println!("| |T| nodes | |σd(T)| nodes | apply ms | invert ms | XSLT fwd ms |");
    println!("|---|---|---|---|---|");
    for r in x::fig_t(&[500, 2_000, 8_000, 32_000]) {
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2} |",
            r.src_nodes, r.tgt_nodes, r.apply_ms, r.invert_ms, r.xslt_fwd_ms
        );
    }
    println!();
}

fn exp_e() {
    println!("## EXP-E: Theorem 5.1 reduction (3SAT ⤳ Schema-Embedding)\n");
    println!("| formula | satisfiable | embedding found | agree |");
    println!("|---|---|---|---|");
    for r in x::exp_e() {
        println!(
            "| {} | {} | {} | {} |",
            r.formula,
            r.satisfiable,
            r.embedding_found,
            r.satisfiable == r.embedding_found
        );
    }
    println!();
}

fn abl1() {
    println!("## ABL-1: prefix-free search ablations (corpus, noise 0.4, exact att)\n");
    println!("| configuration | solved | total | ms |");
    println!("|---|---|---|---|");
    for r in x::abl1() {
        println!(
            "| {} | {} | {} | {:.0} |",
            r.config, r.solved, r.total, r.millis
        );
    }
    println!();
}
