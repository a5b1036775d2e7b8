//! Workspace symbol index and intra-workspace call graph.
//!
//! `sx_lint` v2's flow-aware rules (A001–A003) need to know *which
//! functions are on the hot path*, and that requires two things no
//! line-local scan can provide: an index of every `fn` in the workspace
//! with its body span, and a call graph connecting them.  This module
//! builds both from the scrubbed [`SourceFile`] line model — still no
//! `syn`, still token-level, with the conservatisms documented in
//! `docs/LINTING.md`:
//!
//! * **Symbols** come from a brace-depth machine: a `fn name` header arms a
//!   pending state, the next `{` opens the body (recording the span), and
//!   the matching `}` closes it.  `impl Type` blocks are tracked the same
//!   way so methods get a `Type::name` qualified name.  Trait method
//!   *signatures* (terminated by `;` before any `{`) produce no symbol.
//! * **Call edges** are token-level: an identifier immediately followed by
//!   `(` inside a function body is a call site.  Qualified calls
//!   (`Type::name(…)`, including `Self::`) resolve exactly — to the
//!   indexed `Type::name`, or to nothing when the type has no such method
//!   (`Vec::new(…)` is a foreign-type call, not an edge to every workspace
//!   `new`).  Bare and method calls resolve to *every* workspace function
//!   with that bare name — method receivers are not type-checked, so
//!   ambiguity fans out conservatively (more hotness, not less).  Macro
//!   invocations (`name!`) are not call edges; the A-rules match the
//!   allocating macros (`format!`, `vec!`) directly instead.
//! * `crates/compat/` is excluded from the index: the compat shims are
//!   API-compatible stand-ins whose internals are out of lint scope, and
//!   name collisions through them (`gen`, `next`, `write`) would drag
//!   hotness into code the engine never runs per-event.
//!
//! Hot-path seeding and propagation live in [`crate::hotpath`].

use crate::source::SourceFile;
use std::collections::HashMap;

/// One indexed function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnSymbol {
    /// Bare name (`next_assignment`).
    pub name: String,
    /// `Type::name` inside an `impl Type` block, else the bare name.
    pub qualified: String,
    /// Index of the defining file in the slice passed to
    /// [`SymbolIndex::build`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the `{` opening the body.
    pub body_start: usize,
    /// 1-based line of the matching `}`.
    pub body_end: usize,
    /// Whether the declaration sits in `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Reason from a covering hot-root annotation, if any.
    pub hot_root: Option<String>,
    /// Reason from a covering hot-exempt annotation, if any.
    pub hot_exempt: Option<String>,
}

/// The symbol index plus the token-level call graph over it.
#[derive(Debug)]
pub struct SymbolIndex {
    /// Every indexed function, in (file, line) order.
    pub fns: Vec<FnSymbol>,
    /// `calls[i]` = indices of functions that `fns[i]`'s body may call
    /// (deduplicated, in first-occurrence order).
    pub calls: Vec<Vec<usize>>,
}

/// What a `{` opened, for the brace-depth machine.
enum Container {
    Fn(usize),
    Impl(String),
    Other,
}

/// Header state between a `fn`/`impl` keyword and its `{` or `;`.
enum Pending {
    None,
    /// Saw `fn`, waiting for the name.
    FnAwaitName {
        line: usize,
    },
    /// Saw `fn name`, waiting for the body brace.
    FnNamed {
        name: String,
        line: usize,
    },
    /// Saw `impl`, accumulating the header text up to the brace.
    ImplHeader {
        text: String,
    },
}

impl SymbolIndex {
    /// Index every function in `files` and build the call graph.
    /// Deterministic: symbols in (file, line) order, edges in
    /// first-occurrence order.
    pub fn build(files: &[SourceFile]) -> SymbolIndex {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            if file.rel_path.starts_with("crates/compat/") {
                continue;
            }
            index_file(fi, file, &mut fns);
        }

        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qualified: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
            by_qualified
                .entry(f.qualified.as_str())
                .or_default()
                .push(i);
        }

        let mut calls = Vec::with_capacity(fns.len());
        for f in &fns {
            calls.push(call_edges(f, &files[f.file], &by_name, &by_qualified));
        }
        SymbolIndex { fns, calls }
    }

    /// Look up a function by qualified name (first match in index order).
    pub fn by_qualified(&self, qualified: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.qualified == qualified)
    }
}

/// Run the brace-depth machine over one file, appending symbols.
fn index_file(file_idx: usize, file: &SourceFile, fns: &mut Vec<FnSymbol>) {
    let mut stack: Vec<Container> = Vec::new();
    let mut pending = Pending::None;

    for (li, ln) in file.lines.iter().enumerate() {
        let line_no = li + 1;
        let cs: Vec<char> = ln.code.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            let c = cs[i];
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < cs.len() && (cs[i].is_alphanumeric() || cs[i] == '_') {
                    i += 1;
                }
                let word: String = cs[start..i].iter().collect();
                pending = match pending {
                    Pending::FnAwaitName { line } => Pending::FnNamed { name: word, line },
                    Pending::ImplHeader { mut text } => {
                        text.push_str(&word);
                        text.push(' ');
                        Pending::ImplHeader { text }
                    }
                    p => {
                        if word == "fn" && matches!(p, Pending::None) {
                            Pending::FnAwaitName { line: line_no }
                        } else if word == "impl" && matches!(p, Pending::None) {
                            Pending::ImplHeader {
                                text: String::new(),
                            }
                        } else {
                            p
                        }
                    }
                };
                continue;
            }
            match c {
                '{' => match std::mem::replace(&mut pending, Pending::None) {
                    Pending::FnNamed { name, line } => {
                        let mark = file.hot_mark_for(line);
                        let impl_name = stack.iter().rev().find_map(|c| match c {
                            Container::Impl(n) => Some(n.as_str()),
                            _ => None,
                        });
                        let qualified = match impl_name {
                            Some(t) => format!("{t}::{name}"),
                            None => name.clone(),
                        };
                        fns.push(FnSymbol {
                            name,
                            qualified,
                            file: file_idx,
                            line,
                            body_start: line_no,
                            body_end: line_no,
                            in_test: file.lines.get(line - 1).is_some_and(|l| l.in_test),
                            hot_root: mark
                                .filter(|m| !m.exempt)
                                .map(|m| m.reason.clone().unwrap_or_default()),
                            hot_exempt: mark
                                .filter(|m| m.exempt)
                                .map(|m| m.reason.clone().unwrap_or_default()),
                        });
                        stack.push(Container::Fn(fns.len() - 1));
                    }
                    Pending::ImplHeader { text } => {
                        stack.push(Container::Impl(impl_type_name(&text)));
                    }
                    _ => stack.push(Container::Other),
                },
                '}' => {
                    if let Some(Container::Fn(idx)) = stack.pop() {
                        fns[idx].body_end = line_no;
                    }
                }
                ';' => {
                    // A `;` before any `{` ends a header: trait method
                    // signatures and `impl Trait for T;`-style items
                    // produce no symbol.
                    if !matches!(pending, Pending::None) {
                        pending = Pending::None;
                    }
                }
                '(' => {
                    // `fn(` with no name is a function-pointer type, not a
                    // declaration.
                    if matches!(pending, Pending::FnAwaitName { .. }) {
                        pending = Pending::None;
                    } else if let Pending::ImplHeader { text } = &mut pending {
                        text.push(c);
                    }
                }
                _ => {
                    if let Pending::ImplHeader { text } = &mut pending {
                        text.push(c);
                    }
                }
            }
            i += 1;
        }
        if let Pending::ImplHeader { text } = &mut pending {
            text.push(' ');
        }
    }
}

/// Extract the implementing type's bare name from an accumulated impl
/// header (the text between `impl` and `{`): strip leading generics, take
/// the segment after a ` for ` if present (`impl Trait for Type`), then
/// the last `::` path segment of the first type word.
fn impl_type_name(header: &str) -> String {
    let mut rest = header.trim();
    if let Some(stripped) = rest.strip_prefix('<') {
        let mut depth = 1usize;
        let mut end = stripped.len();
        for (i, c) in stripped.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = stripped[end.min(stripped.len())..].trim_start();
    }
    let rest = match rest.rfind(" for ") {
        Some(at) => &rest[at + " for ".len()..],
        None => rest,
    };
    let first = rest
        .trim_start()
        .split(|c: char| c.is_whitespace() || c == '<')
        .next()
        .unwrap_or("");
    first
        .rsplit("::")
        .next()
        .unwrap_or(first)
        .trim()
        .to_string()
}

/// Rust keywords that can precede a `(` without being a call.
const KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "as", "in", "let", "fn", "impl", "else",
    "move", "mut",
];

/// Primitive type names: lowercase, yet a `u64::from(…)` path through one
/// is a type-qualified call, not a module path.
const PRIMITIVES: [&str; 17] = [
    "bool", "char", "str", "f32", "f64", "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16",
    "u32", "u64", "u128", "usize",
];

/// Token-level call sites in `f`'s body, resolved against the whole index.
///
/// Resolution depends on the shape of the call site:
///
/// * **Qualified calls** (`Type::name(…)`, uppercase-first or primitive
///   path segment before the `::`) resolve *exactly*: to the workspace
///   functions whose qualified name is `Type::name`, or to **nothing** when
///   that type has no such indexed method — `Vec::new(…)` /
///   `String::from(…)` / `u64::from(…)` are foreign-type calls, not edges
///   to every workspace `new` or `from`.  `Self::` stands for the
///   enclosing impl type.
/// * **Everything else** (bare `name(…)`, method `.name(…)`, lowercase
///   module paths `cost::predict(…)`) resolves to *every* workspace
///   function with that bare name — method receivers are not type-checked,
///   so ambiguity fans out conservatively (more hotness, not less).
fn call_edges(
    f: &FnSymbol,
    file: &SourceFile,
    by_name: &HashMap<&str, Vec<usize>>,
    by_qualified: &HashMap<&str, Vec<usize>>,
) -> Vec<usize> {
    // The enclosing impl type, for resolving `Self::name(…)` call sites.
    let impl_type = f
        .qualified
        .strip_suffix(f.name.as_str())
        .and_then(|q| q.strip_suffix("::"));
    let mut edges = Vec::new();
    let push_targets = |edges: &mut Vec<usize>, targets: &[usize]| {
        for &t in targets {
            if !edges.contains(&t) {
                edges.push(t);
            }
        }
    };
    for li in (f.body_start - 1)..f.body_end.min(file.lines.len()) {
        let cs: Vec<char> = file.lines[li].code.chars().collect();
        let mut i = 0;
        let mut prev_word = String::new();
        // Punctuation between the previous word and the current one; ends
        // with `::` exactly when the current word is a path segment.
        let mut sep = String::new();
        while i < cs.len() {
            let c = cs[i];
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < cs.len() && (cs[i].is_alphanumeric() || cs[i] == '_') {
                    i += 1;
                }
                let word: String = cs[start..i].iter().collect();
                let mut j = i;
                while j < cs.len() && cs[j] == ' ' {
                    j += 1;
                }
                let is_call = cs.get(j) == Some(&'(')
                    && prev_word != "fn"
                    && !KEYWORDS.contains(&word.as_str());
                if is_call {
                    let type_prefix = if sep.ends_with("::") {
                        if prev_word == "Self" {
                            impl_type
                        } else if prev_word.starts_with(char::is_uppercase)
                            || PRIMITIVES.contains(&prev_word.as_str())
                        {
                            Some(prev_word.as_str())
                        } else {
                            None
                        }
                    } else {
                        None
                    };
                    match type_prefix {
                        Some(ty) => {
                            // Exact or nothing: a qualified call on a type
                            // with no such indexed method is foreign.
                            let qualified = format!("{ty}::{word}");
                            if let Some(targets) = by_qualified.get(qualified.as_str()) {
                                push_targets(&mut edges, targets);
                            }
                        }
                        None => {
                            if let Some(targets) = by_name.get(word.as_str()) {
                                push_targets(&mut edges, targets);
                            }
                        }
                    }
                }
                prev_word = word;
                sep.clear();
                continue;
            }
            if !c.is_whitespace() {
                sep.push(c);
            }
            i += 1;
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> SymbolIndex {
        let file = SourceFile::parse("crates/cluster/src/x.rs", src);
        SymbolIndex::build(std::slice::from_ref(&file))
    }

    #[test]
    fn free_functions_and_methods_are_indexed_with_spans() {
        let idx = index(
            "fn alpha() {\n    beta();\n}\n\nimpl Widget {\n    fn beta(&self) -> usize {\n        42\n    }\n}\n",
        );
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].qualified, "alpha");
        assert_eq!((idx.fns[0].body_start, idx.fns[0].body_end), (1, 3));
        assert_eq!(idx.fns[1].qualified, "Widget::beta");
        assert_eq!((idx.fns[1].body_start, idx.fns[1].body_end), (6, 8));
    }

    #[test]
    fn trait_impl_qualifies_by_the_implementing_type() {
        let idx = index(
            "impl<T: Clone> Scheduler for WeightedFairQueue {\n    fn next_assignment(&mut self) {}\n}\n",
        );
        assert_eq!(idx.fns[0].qualified, "WeightedFairQueue::next_assignment");
    }

    #[test]
    fn trait_signatures_produce_no_symbol() {
        let idx = index("trait T {\n    fn sig(&self) -> usize;\n    fn with_default(&self) -> usize {\n        1\n    }\n}\n");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "with_default");
    }

    #[test]
    fn call_edges_resolve_by_bare_name_conservatively() {
        let idx = index(
            "fn caller() {\n    helper();\n    thing.helper();\n}\nfn helper() {}\nimpl Other {\n    fn helper(&self) {}\n}\n",
        );
        let caller = idx.by_qualified("caller").expect("indexed");
        let callees: Vec<&str> = idx.calls[caller]
            .iter()
            .map(|&i| idx.fns[i].qualified.as_str())
            .collect();
        // Ambiguity fans out: both `helper` definitions are callees.
        assert_eq!(callees, ["helper", "Other::helper"]);
    }

    fn callees_of(idx: &SymbolIndex, qualified: &str) -> Vec<String> {
        let at = idx.by_qualified(qualified).expect("indexed");
        idx.calls[at]
            .iter()
            .map(|&i| idx.fns[i].qualified.clone())
            .collect()
    }

    #[test]
    fn qualified_calls_resolve_exactly_not_by_bare_name() {
        let idx = index(
            "fn caller() {\n    Widget::build();\n}\nimpl Widget {\n    fn build(&self) {}\n}\nimpl Gadget {\n    fn build(&self) {}\n}\n",
        );
        assert_eq!(callees_of(&idx, "caller"), ["Widget::build"]);
    }

    #[test]
    fn primitive_type_calls_resolve_exactly_not_by_bare_name() {
        // `u64::from(…)` is a conversion on a primitive, not a module path:
        // it must not fan out to every workspace `from`.
        let idx = index(
            "fn caller() {\n    let n = u64::from(true);\n    cost::from(1);\n}\nimpl Widget {\n    fn from(x: bool) -> Self {\n        Widget\n    }\n}\n",
        );
        // The lowercase module path still fans out; the primitive does not
        // add a second edge of its own.
        assert_eq!(callees_of(&idx, "caller"), ["Widget::from"]);
        let idx = index(
            "fn caller() {\n    let n = u64::from(true);\n}\nimpl Widget {\n    fn from(x: bool) -> Self {\n        Widget\n    }\n}\n",
        );
        assert!(callees_of(&idx, "caller").is_empty());
    }

    #[test]
    fn foreign_type_calls_produce_no_edge() {
        // `Vec` has no indexed method, so `Vec::new(…)` must not fan out
        // to every workspace `new`.
        let idx = index("fn caller() {\n    let v = Vec::new();\n}\nimpl Widget {\n    fn new() -> Self {\n        Widget\n    }\n}\n");
        assert!(callees_of(&idx, "caller").is_empty());
    }

    #[test]
    fn self_calls_resolve_within_the_enclosing_impl() {
        let idx = index(
            "impl Widget {\n    fn outer(&self) {\n        Self::inner();\n    }\n    fn inner() {}\n}\nimpl Gadget {\n    fn inner() {}\n}\n",
        );
        assert_eq!(callees_of(&idx, "Widget::outer"), ["Widget::inner"]);
    }

    #[test]
    fn lowercase_module_paths_still_fan_out_by_bare_name() {
        let idx = index("fn caller() {\n    cost::predict(1);\n}\nfn predict(x: usize) {}\n");
        assert_eq!(callees_of(&idx, "caller"), ["predict"]);
    }

    #[test]
    fn macros_are_not_call_edges() {
        let idx = index("fn caller() {\n    check!();\n}\nfn check() {}\n");
        let caller = idx.by_qualified("caller").expect("indexed");
        assert!(idx.calls[caller].is_empty());
    }

    #[test]
    fn hot_marks_attach_to_the_next_fn() {
        let idx = index(
            "// sx-lint: hot-root -- per-event dispatch\nfn hot() {}\n// sx-lint: hot-exempt -- setup only\nfn cold() {}\nfn plain() {}\n",
        );
        assert_eq!(idx.fns[0].hot_root.as_deref(), Some("per-event dispatch"));
        assert_eq!(idx.fns[1].hot_exempt.as_deref(), Some("setup only"));
        assert!(idx.fns[2].hot_root.is_none() && idx.fns[2].hot_exempt.is_none());
    }

    #[test]
    fn fn_pointer_types_are_not_declarations() {
        let idx = index("fn real(cb: fn(usize) -> usize) {\n    cb(1);\n}\n");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "real");
    }
}
