//! E9–E11: the parity splinter of Example 6, the HPF block-cyclic
//! distribution, and the §5.2 elimination modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use presburger_apps::BlockCyclic;
use presburger_counting::{try_count_solutions, CountOptions};
use presburger_omega::eliminate::{eliminate, Shadow};
use presburger_omega::{Affine, Conjunct, Formula, Space};
use std::hint::black_box;

fn bench_example6(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_example6");
    group.sample_size(10);
    group.bench_function("parity_splinter_count", |b| {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        let f = Formula::and(vec![
            Formula::le(Affine::constant(1), Affine::var(i)),
            Formula::le(Affine::constant(1), Affine::var(j)),
            Formula::le(Affine::var(j), Affine::var(n)),
            Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
        ]);
        b.iter(|| {
            black_box(try_count_solutions(&s, &f, &[i, j], &CountOptions::default()).unwrap())
        });
    });
    group.finish();
}

fn bench_hpf(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_hpf");
    group.sample_size(10);
    // Projecting the cycle index builds B splinters (residue-stepped
    // §5.2 offsets), not the ~(B·P)²/2 candidates a unit-stepped loop
    // would, so the period can grow well past the paper's P=8, B=4.
    for (procs, block) in [(4i64, 2i64), (8, 4), (16, 8)] {
        group.bench_with_input(
            BenchmarkId::new("ownership_count", format!("p{procs}_b{block}")),
            &(procs, block),
            |b, &(procs, block)| {
                let d = BlockCyclic::new(procs, block);
                let mut s = Space::new();
                let p = s.var("p");
                b.iter(|| {
                    black_box(d.elements_on_processor(
                        &s,
                        Affine::constant(0),
                        Affine::constant(1024),
                        p,
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_elimination_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_elimination");
    let build = || {
        let mut s = Space::new();
        let alpha = s.var("alpha");
        let beta = s.var("beta");
        let mut con = Conjunct::new();
        con.add_geq(Affine::from_terms(&[(beta, 3), (alpha, -1)], 0));
        con.add_geq(Affine::from_terms(&[(beta, -3), (alpha, 1)], 7));
        con.add_geq(Affine::from_terms(&[(alpha, 1), (beta, -2)], -1));
        con.add_geq(Affine::from_terms(&[(alpha, -1), (beta, 2)], 5));
        (s, con, beta)
    };
    for (name, mode) in [
        ("real_shadow", Shadow::Real),
        ("dark_shadow", Shadow::Dark),
        ("exact_overlapping", Shadow::ExactOverlapping),
        ("exact_disjoint", Shadow::ExactDisjoint),
    ] {
        group.bench_function(name, |b| {
            let (s, con, beta) = build();
            b.iter(|| {
                let mut s2 = s.clone();
                black_box(eliminate(&con, beta, &mut s2, mode))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_example6, bench_hpf, bench_elimination_modes);
criterion_main!(benches);
