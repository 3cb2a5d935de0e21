//! Seeded workload inputs.
//!
//! Every input is generated here, by the benchmark's own SplitMix64, so
//! one seed gives the same inputs at every commit of the program under
//! test. The seed varies what does not change a query's cost class
//! (names, offsets, loop bounds, order); the mix of cost classes in each
//! workload is fixed, so runs at different seeds measure the same work.

/// SplitMix64: small, seedable, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut r = Rng(seed ^ 0x6a09_e667_f3bc_c909);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    /// A float uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One counting query plus what the correctness oracle needs to check
/// its answer by brute force.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Counted variables, in listed order.
    pub vars: Vec<String>,
    /// Formula text in the `parse_formula` syntax.
    pub formula: String,
    /// Free symbols of the formula.
    pub symbols: Vec<String>,
    /// Symbol values (in `symbols` order) at which the answer is checked.
    pub points: Vec<Vec<i64>>,
    /// Brute-force box: every counted variable ranges over it.
    pub range: (i64, i64),
    /// The instance this one renames (same constants, other names); its
    /// own index when fresh. Brute force runs once per base.
    pub base: usize,
}

impl Instance {
    /// `{vars : formula}`, the body of a `count` request.
    pub fn body(&self) -> String {
        format!("{{{} : {}}}", self.vars.join(","), self.formula)
    }

    /// A full text-protocol request line.
    pub fn line(&self, id: &str) -> String {
        format!("count {id} {}", self.body())
    }
}

/// The query families: the paper's worked examples (§1 table, §2.6,
/// §5.2, §6 Examples 1–4 and 6, §3.3) and the repo's A3/S1 stress
/// shapes.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// §1: Σ over a constant interval.
    SumConst,
    /// §1: Σ over `a ≤ i ≤ n`.
    SumN,
    /// §1: the square.
    Square,
    /// §1: the strict triangle.
    Triangle,
    /// §1: the introduction's two-symbol triangle.
    Intro,
    /// §2.6: the dependence formula with negated existentials.
    Dep26,
    /// §6 Example 1.
    Ex1,
    /// §6 Example 2.
    Ex2,
    /// §6 Example 3.
    Ex3,
    /// §6 Example 6: the parity splinter.
    Ex6,
    /// §5.2: disjoint splintering of an existential.
    Split52,
    /// A3: the union of `k` shifted intervals.
    Union(usize),
    /// S1: the Example 6 region split into `k` residue classes.
    Residue(usize),
    /// §3.3: block-cyclic ownership with `P` processors and blocks of `B`.
    Hpf { procs: i64, block: i64 },
    /// §6 Example 4: a coupled subscript, coefficients `(a, b)`.
    Coupled { a: i64, b: i64 },
}

const SYMBOLS: [&str; 10] = ["n", "m", "N", "M", "len", "size", "hi", "ub", "lim", "top"];
const PROC_SYMBOLS: [&str; 4] = ["p", "proc", "me", "rank"];
const VARS1: [&str; 4] = ["i", "x", "u", "t"];
const VARS2: [[&str; 2]; 4] = [["i", "j"], ["x", "y"], ["u", "v"], ["a", "b"]];
const VARS3: [[&str; 3]; 4] = [
    ["i", "j", "k"],
    ["x", "y", "z"],
    ["u", "v", "w"],
    ["a", "b", "c"],
];

/// A family with its seeded constants; [`Draw::render`] names it.
#[derive(Clone, Debug)]
pub struct Draw {
    pub family: Family,
    k: Vec<i64>,
}

impl Draw {
    pub fn new(family: Family, rng: &mut Rng) -> Draw {
        let k = match family {
            Family::SumConst => {
                let a = rng.range(1, 5);
                vec![a, a + rng.range(3, 40)]
            }
            Family::SumN => vec![rng.range(0, 3)],
            Family::Ex2 => {
                let a = rng.range(2, 4);
                vec![a, a + rng.range(2, 3)]
            }
            Family::Split52 => vec![rng.range(6, 9), rng.range(4, 7)],
            Family::Union(_) => vec![rng.range(0, 5)],
            // The splinter count depends on P·B, not on the template's
            // extent; a short template keeps the brute-force check cheap.
            Family::Hpf { .. } => vec![rng.range(0, 8), rng.range(200, 300)],
            Family::Coupled { .. } => vec![rng.range(-20, 20)],
            _ => Vec::new(),
        };
        Draw { family, k }
    }

    /// The paper's own §3.3 instance: `T(0:1024)`, 8 processors, blocks
    /// of 4.
    pub fn paper_hpf() -> Draw {
        Draw {
            family: Family::Hpf { procs: 8, block: 4 },
            k: vec![0, 1024],
        }
    }

    /// How many counted variables and free symbols the family has.
    pub fn arity(&self) -> (usize, usize) {
        match self.family {
            Family::SumConst | Family::Split52 | Family::Coupled { .. } => (1, 0),
            Family::SumN | Family::Union(_) | Family::Hpf { .. } => (1, 1),
            Family::Square | Family::Triangle | Family::Dep26 => (2, 1),
            Family::Ex3 | Family::Ex6 | Family::Residue(_) => (2, 1),
            Family::Intro => (2, 2),
            Family::Ex1 => (3, 2),
            Family::Ex2 => (3, 1),
        }
    }

    /// The counted variables under spelling `spelling`.
    pub fn vars(&self, spelling: usize) -> Vec<String> {
        match self.arity().0 {
            1 => vec![VARS1[spelling % VARS1.len()].to_string()],
            2 => VARS2[spelling % VARS2.len()].map(String::from).to_vec(),
            _ => VARS3[spelling % VARS3.len()].map(String::from).to_vec(),
        }
    }

    /// Distinct seeded names for the free symbols.
    pub fn symbols(&self, rng: &mut Rng) -> Vec<String> {
        let pool: &[&str] = if matches!(self.family, Family::Hpf { .. }) {
            &PROC_SYMBOLS
        } else {
            &SYMBOLS
        };
        let mut syms: Vec<String> = Vec::new();
        while syms.len() < self.arity().1 {
            let s = rng.pick(pool).to_string();
            if !syms.contains(&s) {
                syms.push(s);
            }
        }
        syms
    }

    /// The instance under the given names (`base` filled in by the
    /// caller).
    pub fn render(&self, vars: &[String], syms: &[String]) -> Instance {
        let v = |i: usize| vars[i].as_str();
        let s = |i: usize| syms[i].as_str();
        let k = &self.k;
        let (formula, points, range): (String, Vec<Vec<i64>>, (i64, i64)) = match self.family {
            Family::SumConst => (
                format!("{} <= {} <= {}", k[0], v(0), k[1]),
                vec![vec![]],
                (k[0] - 2, k[1] + 2),
            ),
            Family::SumN => (
                format!("{} <= {} <= {}", k[0], v(0), s(0)),
                vec![vec![2], vec![7]],
                (k[0] - 2, 9),
            ),
            Family::Square => (
                format!(
                    "1 <= {i} <= {n} && 1 <= {j} <= {n}",
                    i = v(0),
                    j = v(1),
                    n = s(0)
                ),
                vec![vec![3], vec![5]],
                (-1, 6),
            ),
            Family::Triangle => (
                format!("1 <= {} < {} <= {}", v(0), v(1), s(0)),
                vec![vec![3], vec![6]],
                (-1, 7),
            ),
            Family::Intro => (
                format!(
                    "1 <= {i} <= {n} && {i} <= {j} <= {m}",
                    i = v(0),
                    j = v(1),
                    n = s(0),
                    m = s(1)
                ),
                vec![vec![5, 2], vec![3, 6]],
                (-1, 7),
            ),
            Family::Dep26 => {
                let inner = |parity: &str| {
                    format!(
                        "!(exists e1, e2 : 1 <= e1 <= 2{n} && 1 <= e2 <= {n} - 1 && {i} < e1 \
                         && e1 = {ip} && 2e2{parity} = e1)",
                        i = v(0),
                        ip = v(1),
                        n = s(0)
                    )
                };
                (
                    format!(
                        "1 <= {i} <= 2{n} && 1 <= {ip} <= 2{n} && {i} = {ip} && {} && {}",
                        inner(""),
                        inner(" + 1"),
                        i = v(0),
                        ip = v(1),
                        n = s(0)
                    ),
                    vec![vec![2], vec![4]],
                    (-1, 9),
                )
            }
            Family::Ex1 => (
                format!(
                    "1 <= {i} <= {n} && 1 <= {j} <= {i} && {j} <= {k} <= {m}",
                    i = v(0),
                    j = v(1),
                    k = v(2),
                    n = s(0),
                    m = s(1)
                ),
                vec![vec![3, 4], vec![4, 2]],
                (0, 5),
            ),
            Family::Ex2 => (
                format!(
                    "1 <= {i} <= {n} && {a} <= {j} <= {i} && {j} <= {k} <= {b}",
                    i = v(0),
                    j = v(1),
                    k = v(2),
                    n = s(0),
                    a = k[0],
                    b = k[1]
                ),
                vec![vec![4], vec![7]],
                (0, 8),
            ),
            Family::Ex3 => (
                format!(
                    "1 <= {i} <= 2{n} && 1 <= {j} <= {i} && {i} + {j} <= 2{n}",
                    i = v(0),
                    j = v(1),
                    n = s(0)
                ),
                vec![vec![3], vec![5]],
                (0, 11),
            ),
            Family::Ex6 => (
                format!(
                    "1 <= {i} && 1 <= {j} <= {n} && 2{i} <= 3{j}",
                    i = v(0),
                    j = v(1),
                    n = s(0)
                ),
                vec![vec![4], vec![7]],
                (0, 12),
            ),
            Family::Split52 => (
                format!(
                    "exists e1 : 0 <= 3e1 - {x} <= {} && 1 <= {x} - 2e1 <= {}",
                    k[0],
                    k[1],
                    x = v(0)
                ),
                vec![vec![]],
                (-1, 41),
            ),
            Family::Union(parts) => {
                let a = k[0];
                let clauses: Vec<String> = (0..parts as i64)
                    .map(|o| format!("{} <= {} <= {}", a + o, v(0), plus(s(0), a + o - 1)))
                    .collect();
                (
                    clauses.join(" || "),
                    vec![vec![3], vec![6]],
                    (a - 2, a + 7 + parts as i64),
                )
            }
            Family::Residue(parts) => {
                let clauses: Vec<String> = (0..parts as i64)
                    .map(|c| {
                        format!(
                            "(1 <= {i} && 1 <= {j} <= {n} && 2{i} <= 3{j} && {parts} | {})",
                            plus(v(0), -c),
                            i = v(0),
                            j = v(1),
                            n = s(0)
                        )
                    })
                    .collect();
                (clauses.join(" || "), vec![vec![4], vec![7]], (0, 12))
            }
            Family::Hpf { procs, block } => (
                format!(
                    "{lo} <= {t} <= {hi} && exists e1, e2 : {t} = e2 + {block}{p} + {pb}e1 \
                     && 0 <= e2 <= {} && 0 <= {p} <= {} && 0 <= e1",
                    block - 1,
                    procs - 1,
                    lo = k[0],
                    hi = k[1],
                    t = v(0),
                    p = s(0),
                    pb = procs * block
                ),
                vec![vec![0], vec![procs - 1]],
                (k[0] - 1, k[1] + 1),
            ),
            Family::Coupled { a, b } => (
                format!(
                    "exists e1, e2 : 1 <= e1 <= 8 && 1 <= e2 <= 5 && {} = {a}e1 + {}",
                    v(0),
                    plus(&format!("{b}e2"), k[0])
                ),
                vec![vec![]],
                (a + b + k[0] - 1, 8 * a + 5 * b + k[0] + 1),
            ),
        };
        Instance {
            vars: vars.to_vec(),
            formula,
            symbols: syms.to_vec(),
            points,
            range,
            base: 0,
        }
    }
}

/// `term + c` in the formula syntax, dropping a zero constant.
fn plus(term: &str, c: i64) -> String {
    match c {
        0 => term.to_string(),
        c if c > 0 => format!("{term} + {c}"),
        c => format!("{term} - {}", -c),
    }
}

/// Draws, names and renders one fresh instance at position `index`.
fn fresh(family: Family, rng: &mut Rng, index: usize) -> Instance {
    let draw = Draw::new(family, rng);
    let vars = draw.vars(rng.below(4));
    Instance {
        base: index,
        ..draw.render(&vars, &draw.symbols(rng))
    }
}

/// `paper-cold`: one pass over the §1–§6 worked examples plus the A3 and
/// S1 stress shapes; the pool holds `PAPER_PASSES` independently drawn
/// passes.
pub const PAPER_MIX: [Family; 17] = [
    Family::SumConst,
    Family::SumN,
    Family::Square,
    Family::Triangle,
    Family::Intro,
    Family::Dep26,
    Family::Ex1,
    Family::Ex2,
    Family::Ex3,
    Family::Ex6,
    Family::Split52,
    Family::Union(2),
    Family::Union(3),
    Family::Union(4),
    Family::Union(5),
    Family::Residue(2),
    Family::Residue(3),
];
const PAPER_PASSES: usize = 4;

pub fn paper_cold(seed: u64, smoke: bool) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let passes = if smoke { 1 } else { PAPER_PASSES };
    let mut out = Vec::new();
    for _ in 0..passes {
        for family in PAPER_MIX {
            let index = out.len();
            out.push(fresh(family, &mut rng, index));
        }
    }
    out
}

/// `splinter-cold`'s fixed block-cyclic `(P, B)` slots: P·B from 8 to 24,
/// the splinter count growing roughly as (P·B)^4.
const HPF_SLOTS: [(i64, i64); 8] = [
    (4, 2),
    (2, 4),
    (3, 4),
    (4, 3),
    (4, 4),
    (8, 2),
    (4, 5),
    (6, 4),
];
/// Coupled-subscript coefficient pairs that splinter alike (4109
/// splinters each); the seed picks one per slot.
const COUPLED: [(i64, i64); 2] = [(6, 9), (9, 6)];
const COUPLED_SLOTS: usize = 7;

/// `splinter-cold`: one round is the paper's P=8, B=4 instance, the eight
/// `HPF_SLOTS` and seven coupled subscripts. `smoke` keeps only the
/// slots below P·B = 16 and three coupled subscripts.
pub fn splinter_cold(seed: u64, smoke: bool) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    if !smoke {
        let draw = Draw::paper_hpf();
        let vars = draw.vars(rng.below(4));
        out.push(draw.render(&vars, &draw.symbols(&mut rng)));
    }
    for &(procs, block) in &HPF_SLOTS {
        if smoke && procs * block >= 16 {
            continue;
        }
        let index = out.len();
        out.push(fresh(Family::Hpf { procs, block }, &mut rng, index));
    }
    for _ in 0..if smoke { 3 } else { COUPLED_SLOTS } {
        let (a, b) = *rng.pick(&COUPLED);
        let index = out.len();
        out.push(fresh(Family::Coupled { a, b }, &mut rng, index));
    }
    out
}

/// `serve-hot`'s 32 formulas: rank `r` always gets family
/// `HOT_MIX[r % 16]`, so the Zipf head has the same shape at every seed.
const HOT_MIX: [Family; 16] = [
    Family::SumN,
    Family::Square,
    Family::Triangle,
    Family::Intro,
    Family::Ex3,
    Family::Ex6,
    Family::Ex1,
    Family::Ex2,
    Family::Union(2),
    Family::Union(3),
    Family::Residue(2),
    Family::Dep26,
    Family::Split52,
    Family::SumConst,
    Family::Union(4),
    Family::Coupled { a: 6, b: 9 },
];
pub const HOT_FORMULAS: usize = 32;
pub const HOT_SPELLINGS: usize = 3;

/// `serve-hot`: instance `rank * HOT_SPELLINGS + s` is formula `rank`
/// under counted-variable spelling `s` (same symbols, same cache key).
pub fn serve_hot(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for rank in 0..HOT_FORMULAS {
        let draw = Draw::new(HOT_MIX[rank % HOT_MIX.len()], &mut rng);
        let first = rng.below(4);
        let syms = draw.symbols(&mut rng);
        let base = out.len();
        for s in 0..HOT_SPELLINGS {
            out.push(Instance {
                base,
                ..draw.render(&draw.vars(first + s), &syms)
            });
        }
    }
    out
}

/// Zipf(1.0) over `n` ranks: rank `r` is drawn with weight `1/(r+1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / (r as f64 + 1.0);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// `serve-cold`'s fresh families: all carry symbols, so a renaming is a
/// new cache key but the same memo keys. None takes more than ~6 ms:
/// replies on one connection leave in request order, so one slow query
/// holds back every reply behind it, and a 13 ms family (P·B = 12) made
/// the median latency jump between runs.
const COLD_MIX: [Family; 8] = [
    Family::Hpf { procs: 4, block: 2 },
    Family::Residue(4),
    Family::Union(5),
    Family::Ex1,
    Family::Hpf { procs: 2, block: 4 },
    Family::Union(8),
    Family::Residue(3),
    Family::Dep26,
];
/// A renaming reuses one of the last this-many fresh requests.
const RENAME_WINDOW: usize = 64;

/// `serve-cold`: `n` requests, every text unique. Even positions are
/// fresh draws (new constants); odd positions rename the symbols of a
/// recent fresh request, so the sub-problem memo can hit while the
/// result cache cannot.
pub fn serve_cold(seed: u64, n: usize) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let mut draws: Vec<(usize, Draw)> = Vec::new();
    let mut out: Vec<Instance> = Vec::with_capacity(n);
    for index in 0..n {
        let (base, draw) = if index % 2 == 0 || draws.is_empty() {
            let family = COLD_MIX[(index / 2) % COLD_MIX.len()];
            draws.push((index, Draw::new(family, &mut rng)));
            draws.last().cloned().expect("just pushed")
        } else {
            let window = draws.len().min(RENAME_WINDOW);
            draws[draws.len() - 1 - rng.below(window)].clone()
        };
        let vars = draw.vars(rng.below(4));
        let syms: Vec<String> = draw
            .symbols(&mut rng)
            .iter()
            .map(|s| format!("{s}_{index}"))
            .collect();
        out.push(Instance {
            base,
            ..draw.render(&vars, &syms)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<String> = paper_cold(7, false).iter().map(Instance::body).collect();
        let b: Vec<String> = paper_cold(7, false).iter().map(Instance::body).collect();
        let c: Vec<String> = paper_cold(8, false).iter().map(Instance::body).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn serve_cold_texts_are_unique() {
        let texts: std::collections::HashSet<String> =
            serve_cold(3, 500).iter().map(Instance::body).collect();
        assert_eq!(texts.len(), 500);
    }

    #[test]
    fn zipf_head_is_heaviest() {
        let z = Zipf::new(32);
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 32];
        for _ in 0..20_000 {
            hits[z.draw(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[31] > 0);
    }
}
