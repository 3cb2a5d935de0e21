//! A small text syntax for Presburger formulas, in the spirit of the
//! Omega project's calculator (the library this paper grew into
//! shipped with one).
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! formula  :=  or
//! or       :=  and ( '||' and )*
//! and      :=  unary ( '&&' unary )*
//! unary    :=  '!' unary
//!           |  ('exists'|'forall') name (',' name)* ':' formula
//!           |  '(' formula ')'
//!           |  atom
//! atom     :=  expr ( relop expr )+           chained: 1 <= x <= n
//!           |  expr '|' expr                  stride: 3 | x + 1
//!           |  'true' | 'false'
//! relop    :=  '<=' | '<' | '=' | '>' | '>='
//! expr     :=  term ( ('+'|'-') term )*
//! term     :=  INT | name | INT name | INT '*' name | '-' term
//! ```
//!
//! Variable names are interned into the provided [`Space`] on sight.
//!
//! ```
//! use presburger_omega::{parse_formula, Space};
//!
//! let mut s = Space::new();
//! let f = parse_formula("exists j : 1 <= j <= i && 2j = i", &mut s).unwrap();
//! let i = s.lookup("i").unwrap();
//! # let _ = (f, i);
//! ```

use crate::affine::Affine;
use crate::formula::Formula;
use crate::space::{Space, VarId};
use presburger_arith::Int;
use std::fmt;

/// Error produced when parsing a formula fails.
///
/// Carries the byte offset *and* the 1-based line/column of the error,
/// plus the offending source line so callers can render a caret
/// snippet ([`ParseFormulaError::caret`]). Parsing is total: every
/// malformed input — including deeply nested or non-UTF-8-boundary
/// garbage — produces one of these rather than a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormulaError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the error in the input.
    pub position: usize,
    /// 1-based line number of the error.
    pub line: usize,
    /// 1-based column (in bytes) of the error within its line.
    pub column: usize,
    /// The full source line the error points into.
    pub snippet: String,
}

/// Short alias — the serving layer and the calculator refer to parse
/// failures by this name.
pub type ParseError = ParseFormulaError;

impl ParseFormulaError {
    /// Locates `position` inside `input` and fills in line, column and
    /// the snippet line.
    fn locate(message: String, position: usize, input: &[u8]) -> ParseFormulaError {
        let upto = &input[..position.min(input.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let line_start = upto.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let line_end = input[line_start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(input.len(), |i| line_start + i);
        ParseFormulaError {
            message,
            position,
            line,
            column: 1 + position.saturating_sub(line_start),
            snippet: String::from_utf8_lossy(&input[line_start..line_end]).into_owned(),
        }
    }

    /// The offending line with a `^` caret under the error column:
    ///
    /// ```text
    /// 1 <= x <=
    ///          ^
    /// ```
    pub fn caret(&self) -> String {
        let pad = " ".repeat(self.column.saturating_sub(1));
        format!("{}\n{pad}^", self.snippet)
    }
}

impl fmt::Display for ParseFormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}
impl std::error::Error for ParseFormulaError {}

/// Parses a formula from text, interning variable names in `space`.
///
/// # Errors
///
/// Returns a [`ParseFormulaError`] describing the first syntax error.
pub fn parse_formula(input: &str, space: &mut Space) -> Result<Formula, ParseFormulaError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
        space,
    };
    let f = p.or_formula()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("trailing input"));
    }
    Ok(f)
}

/// Parses an affine expression from text (same `expr` grammar).
///
/// # Errors
///
/// Returns a [`ParseFormulaError`] describing the first syntax error.
pub fn parse_affine(input: &str, space: &mut Space) -> Result<Affine, ParseFormulaError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
        space,
    };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("trailing input"));
    }
    Ok(e)
}

/// Hard cap on grammar recursion depth. The grammar recurses through
/// `unary` (negation, quantifiers, parentheses) and `term` (unary
/// minus, parenthesized expressions); without a cap, adversarial input
/// like `((((…` or `-----…x` overflows the stack instead of returning
/// an error. 96 levels is far beyond any legitimate formula while
/// keeping worst-case stack use well under the default 2 MiB of a
/// spawned thread — each grammar level holds several `Formula` /
/// `Affine` temporaries, which carry their terms inline (~120 bytes
/// each) since the `arith::Row` small-row representation.
const MAX_DEPTH: usize = 96;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
    space: &'a mut Space,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseFormulaError {
        ParseFormulaError::locate(message.to_string(), self.pos, self.input)
    }

    /// Charges one level of grammar recursion against [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), ParseFormulaError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("formula nested too deeply"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token.as_bytes()) {
            // keywords must not run into identifier characters
            let end = self.pos + token.len();
            if token.bytes().all(|b| b.is_ascii_alphabetic()) {
                if let Some(&next) = self.input.get(end) {
                    if next.is_ascii_alphanumeric() || next == b'_' {
                        return false;
                    }
                }
            }
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn or_formula(&mut self) -> Result<Formula, ParseFormulaError> {
        let mut parts = vec![self.and_formula()?];
        while self.eat("||") {
            parts.push(self.and_formula()?);
        }
        Ok(Formula::or(parts))
    }

    fn and_formula(&mut self) -> Result<Formula, ParseFormulaError> {
        let mut parts = vec![self.unary()?];
        while self.eat("&&") {
            parts.push(self.unary()?);
        }
        Ok(Formula::and(parts))
    }

    fn unary(&mut self) -> Result<Formula, ParseFormulaError> {
        self.descend()?;
        let r = self.unary_inner();
        self.depth -= 1;
        r
    }

    fn unary_inner(&mut self) -> Result<Formula, ParseFormulaError> {
        if self.eat("!") {
            return Ok(Formula::not(self.unary()?));
        }
        for (kw, is_exists) in [("exists", true), ("forall", false)] {
            if self.eat(kw) {
                let mut vars = vec![self.name()?];
                while self.eat(",") {
                    vars.push(self.name()?);
                }
                if !self.eat(":") {
                    return Err(self.error("expected ':' after quantified variables"));
                }
                // quantifiers bind to the end of the formula
                let body = self.or_formula()?;
                return Ok(if is_exists {
                    Formula::exists(vars, body)
                } else {
                    Formula::forall(vars, body)
                });
            }
        }
        if self.eat("true") {
            return Ok(Formula::True);
        }
        if self.eat("false") {
            return Ok(Formula::False);
        }
        // '(' could open a parenthesized formula or an expression like
        // (x + 1) < y; try formula first, backtracking on failure.
        if self.peek() == Some(b'(') {
            let save = self.pos;
            self.pos += 1;
            if let Ok(f) = self.or_formula() {
                if self.eat(")") {
                    // must not be followed by a relational operator —
                    // otherwise it was an expression after all
                    let after = self.pos;
                    self.skip_ws();
                    let next2 = &self.input[self.pos.min(self.input.len())..];
                    let is_rel = next2.starts_with(b"<")
                        || next2.starts_with(b">")
                        || next2.starts_with(b"=")
                        || next2.starts_with(b"|") && !next2.starts_with(b"||");
                    self.pos = after;
                    if !is_rel {
                        return Ok(f);
                    }
                }
            }
            self.pos = save;
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Formula, ParseFormulaError> {
        let first = self.expr()?;
        // stride: INT '|' expr (but not '||')
        self.skip_ws();
        if self.input[self.pos..].starts_with(b"|") && !self.input[self.pos..].starts_with(b"||") {
            self.pos += 1;
            let e = self.expr()?;
            let m = first.clone().constant_term().clone();
            if !first.is_constant() || !m.is_positive() {
                return Err(self.error("stride modulus must be a positive integer"));
            }
            return Ok(Formula::stride(m, e));
        }
        // chained comparisons
        let mut parts = Vec::new();
        let mut lhs = first;
        loop {
            let op = if self.eat("<=") {
                "<="
            } else if self.eat(">=") {
                ">="
            } else if self.eat("<") {
                "<"
            } else if self.eat(">") {
                ">"
            } else if self.eat("=") {
                "="
            } else {
                break;
            };
            let rhs = self.expr()?;
            parts.push(match op {
                "<=" => Formula::le(lhs.clone(), rhs.clone()),
                "<" => Formula::lt(lhs.clone(), rhs.clone()),
                ">=" => Formula::le(rhs.clone(), lhs.clone()),
                ">" => Formula::lt(rhs.clone(), lhs.clone()),
                _ => Formula::eq(lhs.clone(), rhs.clone()),
            });
            lhs = rhs;
        }
        if parts.is_empty() {
            return Err(self.error("expected a relational operator"));
        }
        Ok(Formula::and(parts))
    }

    fn expr(&mut self) -> Result<Affine, ParseFormulaError> {
        let mut acc = self.term()?;
        loop {
            if self.eat("+") {
                acc = acc + self.term()?;
            } else if self.peek() == Some(b'-') {
                // careful: don't eat the '-' of '->' style tokens (none
                // in this grammar) — always subtraction here
                self.pos += 1;
                acc = acc - self.term()?;
            } else {
                break;
            }
        }
        Ok(acc)
    }

    fn term(&mut self) -> Result<Affine, ParseFormulaError> {
        self.descend()?;
        let r = self.term_inner();
        self.depth -= 1;
        r
    }

    fn term_inner(&mut self) -> Result<Affine, ParseFormulaError> {
        self.skip_ws();
        if self.eat("-") {
            return Ok(-self.term()?);
        }
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let e = self.expr()?;
            if !self.eat(")") {
                return Err(self.error("expected ')'"));
            }
            return Ok(e);
        }
        match self.peek() {
            Some(b) if b.is_ascii_digit() => {
                let k = self.integer()?;
                // multiplication: explicit 2*n / 2*(x+1), or implicit 2n
                // (implicit requires adjacency — "1 garbage" is not 1·garbage)
                let adjacent = self
                    .input
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_');
                let explicit = self.eat("*");
                match self.peek() {
                    Some(c) if (explicit || adjacent) && (c.is_ascii_alphabetic() || c == b'_') => {
                        let v = self.name()?;
                        Ok(Affine::zero().add_scaled(&Affine::var(v), &k))
                    }
                    Some(b'(') if explicit => {
                        self.pos += 1;
                        let e = self.expr()?;
                        if !self.eat(")") {
                            return Err(self.error("expected ')'"));
                        }
                        Ok(Affine::zero().add_scaled(&e, &k))
                    }
                    _ if explicit => Err(self.error("expected a variable after '*'")),
                    _ => Ok(Affine::constant(k)),
                }
            }
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                let v = self.name()?;
                Ok(Affine::var(v))
            }
            _ => Err(self.error("expected a term")),
        }
    }

    fn integer(&mut self) -> Result<Int, ParseFormulaError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected an integer"));
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .expect("invariant: a run of ASCII digits is valid UTF-8");
        text.parse::<Int>()
            .map_err(|_| self.error("invalid integer"))
    }

    fn name(&mut self) -> Result<VarId, ParseFormulaError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len()
            && (self.input[self.pos].is_ascii_alphanumeric() || self.input[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos || self.input[start].is_ascii_digit() {
            return Err(self.error("expected a variable name"));
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .expect("invariant: a run of ASCII alphanumerics/underscores is valid UTF-8");
        if ["exists", "forall", "true", "false"].contains(&text) {
            self.pos = start;
            return Err(self.error("keyword used as a variable name"));
        }
        Ok(self.space.var(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(f: &Formula, assign: &[(&str, i64)], space: &Space) -> bool {
        f.eval_quantifier_free(&|v| {
            let name = space.name(v);
            let (_, val) = assign
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no binding for {name}"));
            Int::from(*val)
        })
    }

    #[test]
    fn chained_comparison() {
        let mut s = Space::new();
        let f = parse_formula("1 <= x <= n", &mut s).unwrap();
        assert!(sat(&f, &[("x", 3), ("n", 5)], &s));
        assert!(!sat(&f, &[("x", 0), ("n", 5)], &s));
        assert!(!sat(&f, &[("x", 6), ("n", 5)], &s));
    }

    #[test]
    fn implicit_multiplication() {
        let mut s = Space::new();
        let f = parse_formula("2x + 3y = 12", &mut s).unwrap();
        assert!(sat(&f, &[("x", 3), ("y", 2)], &s));
        assert!(!sat(&f, &[("x", 1), ("y", 3)], &s));
        let g = parse_formula("2*x - 3 >= 0", &mut s).unwrap();
        assert!(sat(&g, &[("x", 2)], &s));
        assert!(!sat(&g, &[("x", 1)], &s));
    }

    #[test]
    fn strides_and_negation() {
        let mut s = Space::new();
        let f = parse_formula("3 | x + 1 && !(x = 5)", &mut s).unwrap();
        assert!(sat(&f, &[("x", 2)], &s));
        assert!(!sat(&f, &[("x", 5)], &s)); // 3 | 6 but excluded
        assert!(!sat(&f, &[("x", 3)], &s));
    }

    #[test]
    fn connectives_and_parens() {
        let mut s = Space::new();
        let f = parse_formula("(x >= 0 && x <= 4) || x = 10", &mut s).unwrap();
        assert!(sat(&f, &[("x", 2)], &s));
        assert!(sat(&f, &[("x", 10)], &s));
        assert!(!sat(&f, &[("x", 7)], &s));
    }

    #[test]
    fn quantifiers_parse_and_simplify() {
        let mut s = Space::new();
        let f = parse_formula("exists y : x = 2y && 1 <= y <= 4", &mut s).unwrap();
        let d = crate::dnf::simplify(&f, &mut s, &crate::dnf::SimplifyOptions::default());
        let x = s.lookup("x").unwrap();
        for xv in 0i64..=10 {
            assert_eq!(
                d.contains_point(&s, &|v| {
                    assert_eq!(v, x);
                    Int::from(xv)
                }),
                [2, 4, 6, 8].contains(&xv),
                "x={xv}"
            );
        }
    }

    #[test]
    fn forall_parses() {
        let mut s = Space::new();
        let f = parse_formula("forall t : (0 <= t <= 2) || t > x", &mut s).unwrap();
        assert!(matches!(f, Formula::Forall(..)));
    }

    #[test]
    fn negative_terms_and_parens_in_exprs() {
        let mut s = Space::new();
        let f = parse_formula("-x + 2(y - 1) >= 0", &mut s);
        // 2(…) requires explicit '*': this should fail cleanly…
        assert!(f.is_err());
        let f = parse_formula("-x + 2*(y - 1) >= 0", &mut s).unwrap();
        assert!(sat(&f, &[("x", 2), ("y", 2)], &s));
        assert!(!sat(&f, &[("x", 3), ("y", 2)], &s));
    }

    #[test]
    fn error_positions() {
        let mut s = Space::new();
        let e = parse_formula("1 <= x <=", &mut s).unwrap_err();
        assert!(e.position >= 8, "{e}");
        assert!(parse_formula("x + ", &mut s).is_err());
        assert!(parse_formula("x >= 1 garbage", &mut s).is_err());
        assert!(parse_formula("exists : x = 1", &mut s).is_err());
    }

    #[test]
    fn errors_carry_line_column_and_caret() {
        let mut s = Space::new();
        let e = parse_formula("1 <= x &&\n2 <= y <=", &mut s).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.column >= 9, "{e}");
        assert_eq!(e.snippet, "2 <= y <=");
        let caret = e.caret();
        let mut lines = caret.lines();
        assert_eq!(lines.next(), Some("2 <= y <="));
        let marker = lines.next().unwrap();
        assert!(marker.trim_end() == format!("{}^", " ".repeat(e.column - 1)));
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let mut s = Space::new();
        // parenthesized formulas, unary minus and negation all recurse
        for input in [
            format!("{}x = 1{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("{}x = 1", "!".repeat(100_000)),
            format!("{}x >= 0", "-".repeat(100_000)),
        ] {
            let e = parse_formula(&input, &mut s).unwrap_err();
            assert!(e.message.contains("nested too deeply"), "{e}");
        }
        // ...but reasonable nesting is unaffected
        let input = format!("{}x = 1{}", "(".repeat(30), ")".repeat(30));
        assert!(parse_formula(&input, &mut s).is_ok());
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // a cheap in-crate fuzz: mutated/truncated well-formed inputs
        // plus byte soup must all return Ok/Err, never panic
        let seeds = [
            "exists j : 1 <= j <= i && 2j = i",
            "count { } : <=",
            "1 <= x <= n && 3 | x + 1",
            "((((",
            "\u{fffd}\u{2264} x \n\t|| 2 |",
        ];
        let mut s = Space::new();
        for seed in seeds {
            for cut in 0..seed.len() {
                if seed.is_char_boundary(cut) {
                    let _ = parse_formula(&seed[..cut], &mut s);
                }
            }
            for junk in ["|", "||", "&&", "9", "\n^", "exists"] {
                let mutated = format!("{seed}{junk}");
                let _ = parse_formula(&mutated, &mut s);
            }
        }
    }

    #[test]
    fn keywords_are_reserved() {
        let mut s = Space::new();
        assert!(parse_formula("true", &mut s).is_ok());
        assert!(parse_formula("exists = 3", &mut s).is_err());
        // identifiers that merely start with a keyword are fine
        let f = parse_formula("truth >= 0", &mut s).unwrap();
        assert!(sat(&f, &[("truth", 1)], &s));
    }

    #[test]
    fn parse_affine_expr() {
        let mut s = Space::new();
        let e = parse_affine("3x - 2y + 7", &mut s).unwrap();
        let x = s.lookup("x").unwrap();
        let y = s.lookup("y").unwrap();
        assert_eq!(e.coeff(x), Int::from(3));
        assert_eq!(e.coeff(y), Int::from(-2));
        assert_eq!(*e.constant_term(), Int::from(7));
    }

    #[test]
    fn end_to_end_with_counting_shapes() {
        // the paper's Example 6 in calculator syntax
        let mut s = Space::new();
        let f = parse_formula("1 <= i && 1 <= j <= n && 2i <= 3j", &mut s).unwrap();
        let i = s.lookup("i").unwrap();
        let j = s.lookup("j").unwrap();
        let d = crate::dnf::simplify(&f, &mut s, &crate::dnf::SimplifyOptions::default());
        // spot check membership
        let member = |iv: i64, jv: i64, nv: i64| {
            d.contains_point(&s, &|v| {
                if v == i {
                    Int::from(iv)
                } else if v == j {
                    Int::from(jv)
                } else {
                    Int::from(nv)
                }
            })
        };
        assert!(member(1, 1, 3));
        assert!(member(3, 2, 3));
        assert!(!member(4, 2, 3));
        assert!(!member(1, 4, 3));
    }
}
