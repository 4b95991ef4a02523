//! The transformation engine: instantiating template rules over a
//! document.

use crate::ast::{Action, Cond, EmitPiece, Stylesheet, ValueRef};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use xmlite::{Element, Node};

/// Error raised while applying a stylesheet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A `../` reference climbed past the document root.
    ParentOfRoot {
        /// The reference's source text.
        reference: String,
    },
    /// Template recursion exceeded the safety limit (an `apply` with an
    /// upward selection can loop).
    DepthLimit,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::ParentOfRoot { reference } => {
                write!(f, "reference '{reference}' climbs past the document root")
            }
            ApplyError::DepthLimit => f.write_str("template recursion limit exceeded"),
        }
    }
}

impl Error for ApplyError {}

const DEPTH_LIMIT: usize = 1000;

/// Applies a stylesheet to an element tree, returning the produced text.
///
/// Matching follows first-rule-wins; elements without a matching rule get
/// the built-in behaviour (emit text children, recurse into element
/// children), so sparse stylesheets work like sparse XSLT.
///
/// # Errors
///
/// Returns [`ApplyError`] for upward references past the root or runaway
/// recursion.
pub fn apply(sheet: &Stylesheet, root: &Element) -> Result<String, ApplyError> {
    let mut out = String::new();
    let mut stack = Vec::new();
    walk(sheet, &mut stack, root, 1, &mut out)?;
    Ok(out)
}

fn walk<'a>(
    sheet: &Stylesheet,
    stack: &mut Vec<&'a Element>,
    element: &'a Element,
    position: usize,
    out: &mut String,
) -> Result<(), ApplyError> {
    if stack.len() >= DEPTH_LIMIT {
        return Err(ApplyError::DepthLimit);
    }
    stack.push(element);
    let result = match sheet.rule_for(element) {
        Some(rule) => run_actions(sheet, stack, &rule.body, position, out),
        None => {
            // Built-in rule: text content, then recurse into children.
            for text in element.children().iter().filter_map(Node::as_text) {
                out.push_str(text);
            }
            element
                .child_elements()
                .enumerate()
                .try_for_each(|(i, child)| walk(sheet, stack, child, i + 1, out))
        }
    };
    stack.pop();
    result
}

/// The element `parents` hops above the current one; `reference` names
/// the hop in the error and is only called when the hop fails.
fn context<'a, R: FnOnce() -> String>(
    stack: &[&'a Element],
    parents: usize,
    reference: R,
) -> Result<&'a Element, ApplyError> {
    if parents >= stack.len() {
        return Err(ApplyError::ParentOfRoot {
            reference: reference(),
        });
    }
    Ok(stack[stack.len() - 1 - parents])
}

/// A value reference's text: attribute values and names borrow from the
/// document, so the common `{@attr}` interpolation allocates nothing.
fn resolve<'a>(
    stack: &[&'a Element],
    value: &ValueRef,
    position: usize,
) -> Result<Cow<'a, str>, ApplyError> {
    let current = *stack.last().expect("walk pushed the current element");
    Ok(match value {
        ValueRef::Attr { parents, name } => Cow::Borrowed(
            context(stack, *parents, || format!("../@{name}"))?
                .attr(name)
                .unwrap_or(""),
        ),
        ValueRef::Name => Cow::Borrowed(current.name()),
        ValueRef::Text => Cow::Owned(current.text()),
        ValueRef::Position => Cow::Owned(position.to_string()),
        ValueRef::Path {
            parents,
            source,
            path,
        } => {
            let base = context(stack, *parents, || source.clone())?;
            Cow::Owned(
                path.select_values(base)
                    .into_iter()
                    .next()
                    .unwrap_or_default(),
            )
        }
    })
}

fn run_actions(
    sheet: &Stylesheet,
    stack: &mut Vec<&Element>,
    actions: &[Action],
    position: usize,
    out: &mut String,
) -> Result<(), ApplyError> {
    let current = *stack.last().expect("current element present");
    for action in actions {
        match action {
            Action::Emit(pieces) => {
                for piece in pieces {
                    match piece {
                        EmitPiece::Literal(text) => out.push_str(text),
                        EmitPiece::Value(value) => {
                            out.push_str(&resolve(stack, value, position)?);
                        }
                    }
                }
            }
            Action::Apply { select } => {
                let targets: Vec<&Element> = match select {
                    None => current.child_elements().collect(),
                    Some(sel) => {
                        let base = context(stack, sel.parents, || sel.source.clone())?;
                        sel.path.select(base)
                    }
                };
                for (i, target) in targets.iter().enumerate() {
                    walk(sheet, stack, target, i + 1, out)?;
                }
            }
            Action::ForEach { select, body } => {
                let base = context(stack, select.parents, || select.source.clone())?;
                let targets = select.path.select(base);
                for (i, target) in targets.iter().enumerate() {
                    if stack.len() >= DEPTH_LIMIT {
                        return Err(ApplyError::DepthLimit);
                    }
                    stack.push(target);
                    let r = run_actions(sheet, stack, body, i + 1, out);
                    stack.pop();
                    r?;
                }
            }
            Action::If {
                cond,
                then_body,
                else_body,
            } => {
                let truth = match cond {
                    Cond::Exists(value) => match value {
                        // Existence of an attribute is presence, not
                        // non-emptiness of its value.
                        ValueRef::Attr { parents, name } => {
                            context(stack, *parents, || format!("../@{name}"))?
                                .attr(name)
                                .is_some()
                        }
                        ValueRef::Path {
                            parents,
                            source,
                            path,
                        } => {
                            let base = context(stack, *parents, || source.clone())?;
                            !path.select(base).is_empty()
                        }
                        other => !resolve(stack, other, position)?.is_empty(),
                    },
                    Cond::Equals(value, literal) => resolve(stack, value, position)? == *literal,
                };
                let body = if truth { then_body } else { else_body };
                run_actions(sheet, stack, body, position, out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_stylesheet;
    use xmlite::Document;

    fn transform(sheet: &str, xml: &str) -> String {
        let sheet = parse_stylesheet(sheet).unwrap();
        let doc = Document::parse(xml).unwrap();
        apply(&sheet, doc.root()).unwrap()
    }

    #[test]
    fn emit_with_interpolation() {
        let out = transform(
            r#"template a { emit "name={name()} x={@x} missing={@zz}\n" }"#,
            "<a x='1'/>",
        );
        assert_eq!(out, "name=a x=1 missing=\n");
    }

    #[test]
    fn apply_recurses_with_matching_rules() {
        let out = transform(
            r#"
                template list { emit "[" apply item emit "]" }
                template item { emit "({@v})" }
            "#,
            "<list><item v='1'/><item v='2'/><skip/></list>",
        );
        assert_eq!(out, "[(1)(2)]");
    }

    #[test]
    fn builtin_rule_emits_text_and_recurses() {
        let out = transform(
            r#"template leaf { emit "L" }"#,
            "<root>hello <mid><leaf/></mid></root>",
        );
        assert_eq!(out, "hello L");
    }

    #[test]
    fn for_each_and_position() {
        let out = transform(
            r#"template r { for-each e { emit "{position()}:{@n} " } }"#,
            "<r><e n='a'/><e n='b'/><e n='c'/></r>",
        );
        assert_eq!(out, "1:a 2:b 3:c ");
    }

    #[test]
    fn parent_references() {
        let out = transform(
            r#"template r { for-each e { emit "{../@name}/{@n} " } }"#,
            "<r name='top'><e n='a'/><e n='b'/></r>",
        );
        assert_eq!(out, "top/a top/b ");
    }

    #[test]
    fn conditionals() {
        let out = transform(
            r#"
                template r { apply e }
                template e {
                    if @kind == "x" { emit "X" } else { emit "o" }
                    if @extra { emit "+" }
                }
            "#,
            "<r><e kind='x'/><e kind='y' extra=''/><e kind='x' extra='1'/></r>",
        );
        assert_eq!(out, "Xo+X+");
    }

    #[test]
    fn exists_on_path() {
        let out = transform(
            r#"template r { if sub { emit "yes" } else { emit "no" } }"#,
            "<r><sub/></r>",
        );
        assert_eq!(out, "yes");
        let out = transform(
            r#"template r { if sub { emit "yes" } else { emit "no" } }"#,
            "<r/>",
        );
        assert_eq!(out, "no");
    }

    #[test]
    fn path_interpolation_takes_first() {
        let out = transform(
            r#"template r { emit "{e/@n}" }"#,
            "<r><e n='first'/><e n='second'/></r>",
        );
        assert_eq!(out, "first");
    }

    #[test]
    fn apply_with_explicit_selection() {
        let out = transform(
            r#"
                template r { apply deep/e }
                template e { emit "{@n}" }
            "#,
            "<r><deep><e n='1'/></deep><e n='skip'/></r>",
        );
        assert_eq!(out, "1");
    }

    #[test]
    fn parent_of_root_is_an_error() {
        let sheet = parse_stylesheet(r#"template a { emit "{../@x}" }"#).unwrap();
        let doc = Document::parse("<a/>").unwrap();
        let err = apply(&sheet, doc.root()).unwrap_err();
        assert_eq!(
            err,
            ApplyError::ParentOfRoot {
                reference: "../@x".to_string()
            }
        );
        assert_eq!(
            err.to_string(),
            "reference '../@x' climbs past the document root"
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        let out = transform(
            r#"
                template e[kind=special] { emit "S" }
                template e { emit "e" }
                template r { apply }
            "#,
            "<r><e/><e kind='special'/></r>",
        );
        assert_eq!(out, "eS");
    }
}
