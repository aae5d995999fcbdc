//! The workspace's one JSON writer: every metrics snapshot and
//! `BENCH_*.json` artifact is rendered here, so they share one escape
//! function, one comma rule and one layout.
//!
//! Output is deterministic by construction — the caller fixes the key
//! order, values are integers, booleans and strings only (no floats:
//! durations are nanoseconds), and nothing depends on the host — which
//! is what lets CI compare artifacts byte for byte. There is no reader:
//! the workspace only ever writes JSON.

use std::fmt::Write;

/// A document, built as a value and rendered once.
#[derive(Clone, Debug)]
pub enum Json<'a> {
    U(u64),
    B(bool),
    S(&'a str),
    /// One element per line, indented two spaces per level.
    Arr(Vec<Json<'a>>),
    /// One `"key": value` per line, in the order given.
    Obj(Vec<(&'a str, Json<'a>)>),
    /// An object on a single line — the form of the per-point tables,
    /// so a diff shows one changed point as one changed line.
    Row(Vec<(&'a str, Json<'a>)>),
}

impl Json<'_> {
    /// The document as text, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `depth` is the indentation level, `None` inside a [`Json::Row`].
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            // writing to a String cannot fail
            Json::U(n) => write!(out, "{n}").expect("write to String"),
            Json::B(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::S(s) => string(out, s),
            Json::Arr(items) => seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(fields) => {
                seq(out, depth, ['{', '}'], fields.iter().map(|(k, v)| (Some(*k), v)))
            }
            Json::Row(fields) => {
                seq(out, None, ['{', '}'], fields.iter().map(|(k, v)| (Some(*k), v)))
            }
        }
    }
}

fn seq<'a>(
    out: &mut String,
    depth: Option<usize>,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json<'a>)>,
) {
    let inner = depth.map(|d| d + 1);
    out.push(open);
    let mut empty = true;
    for (key, value) in entries {
        if !std::mem::replace(&mut empty, false) {
            out.push(',');
        }
        newline(out, inner);
        if let Some(k) = key {
            string(out, k);
            out.push_str(if inner.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if !empty {
        newline(out, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        for _ in 0..d {
            out.push_str("  ");
        }
    }
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::Json::{Arr, Obj, Row, B, S, U};

    #[test]
    fn nesting_commas_and_rows_render_one_layout() {
        let doc = Obj(vec![
            ("seed", U(7)),
            ("mode", S("quick")),
            (
                "points",
                Arr(vec![
                    Row(vec![("rps", U(1000)), ("ok", B(true))]),
                    Row(vec![("rps", U(2000)), ("ok", B(false)), ("at", Arr(vec![U(1), U(2)]))]),
                ]),
            ),
            (
                "sizes",
                Arr(vec![
                    Obj(vec![("label", S("two-hub")), ("tree", Row(vec![("depth", U(3))]))]),
                    U(5),
                ]),
            ),
        ]);
        let want = r#"{
  "seed": 7,
  "mode": "quick",
  "points": [
    {"rps":1000,"ok":true},
    {"rps":2000,"ok":false,"at":[1,2]}
  ],
  "sizes": [
    {
      "label": "two-hub",
      "tree": {"depth":3}
    },
    5
  ]
}
"#;
        assert_eq!(doc.render(), want);
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        let doc =
            Obj(vec![("none", Arr(vec![])), ("nothing", Obj(vec![])), ("blank", Row(vec![]))]);
        assert_eq!(doc.render(), "{\n  \"none\": [],\n  \"nothing\": {},\n  \"blank\": {}\n}\n");
    }

    #[test]
    fn quotes_backslashes_and_control_characters_are_escaped() {
        let doc = Arr(vec![
            S("say \"hi\""),
            S("a\\b"),
            S("tab\there\nnul\u{0}"),
            Row(vec![("k\"\n", S("µs/é"))]),
        ]);
        let want = r#"[
  "say \"hi\"",
  "a\\b",
  "tab\u0009here\u000anul\u0000",
  {"k\"\u000a":"µs/é"}
]
"#;
        assert_eq!(doc.render(), want);
    }
}
