//! What an experiment hands back: tables and text to print, and the gates
//! that judge them. Every block prints through [`Block::render`], the one
//! renderer, so what `repro` prints is what EXPERIMENTS.md quotes.

/// A Markdown table. The header and each row are cells joined by `" | "`,
/// so a cell must not itself contain `|`.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    header: String,
    rows: Vec<String>,
}

impl Table {
    pub fn new(header: &str) -> Self {
        Self {
            header: header.to_string(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, row: String) {
        self.rows.push(row);
    }

    pub fn markdown(&self) -> String {
        let columns = self.header.split(" | ").count();
        let mut out = format!("| {} |\n|{}\n", self.header, "---|".repeat(columns));
        for row in &self.rows {
            out += &format!("| {row} |\n");
        }
        out
    }
}

/// One printed piece of an experiment's output.
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    /// Deterministic; EXPERIMENTS.md quotes it verbatim.
    Table(Table),
    /// Deterministic preformatted text, printed in a code fence;
    /// EXPERIMENTS.md quotes it verbatim.
    Text(String),
    /// A line that changes run to run (wall clock): printed,
    /// never quoted.
    Note(String),
}

impl Block {
    pub fn render(&self) -> String {
        match self {
            Block::Table(t) => t.markdown(),
            Block::Text(s) => format!("```\n{}\n```\n", s.trim_end()),
            Block::Note(s) => format!("{s}\n"),
        }
    }

    /// Whether EXPERIMENTS.md must contain this block verbatim.
    pub fn quoted(&self) -> bool {
        !matches!(self, Block::Note(_))
    }
}

/// A pass/fail check on an experiment's own numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    /// The measured value against its bound, if the gate has one.
    pub detail: String,
}

/// Everything one experiment run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub blocks: Vec<Block>,
    pub gates: Vec<Gate>,
}

impl Report {
    pub fn tables(tables: impl IntoIterator<Item = Table>) -> Self {
        let blocks = tables.into_iter().map(Block::Table).collect();
        Self {
            blocks,
            gates: Vec::new(),
        }
    }

    pub fn text(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Text(text.into()));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.blocks.push(Block::Note(note.into()));
    }

    /// Gate an invariant that either holds or does not.
    pub fn holds(&mut self, name: &'static str, pass: bool) {
        self.gate(name, pass, String::new());
    }

    /// Gate `value >= floor`.
    pub fn at_least(&mut self, name: &'static str, value: f64, floor: f64) {
        self.gate(name, value >= floor, format!("{value:.2}, floor {floor}"));
    }

    /// Gate `value <= ceiling`.
    pub fn at_most(&mut self, name: &'static str, value: f64, ceiling: f64) {
        let detail = format!("{value:.2}, ceiling {ceiling}");
        self.gate(name, value <= ceiling, detail);
    }

    fn gate(&mut self, name: &'static str, pass: bool, detail: String) {
        self.gates.push(Gate { name, pass, detail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_as_markdown() {
        let mut t = Table::new("a | b");
        t.row(format!("x | {}", 1.5));
        assert_eq!(t.markdown(), "| a | b |\n|---|---|\n| x | 1.5 |\n");
    }

    #[test]
    fn notes_are_not_quoted() {
        assert!(Block::Text("t".into()).quoted());
        assert!(!Block::Note("n".into()).quoted());
        assert_eq!(Block::Text("t\n".into()).render(), "```\nt\n```\n");
    }

    #[test]
    fn bounded_gates_judge_their_value() {
        let mut r = Report::default();
        r.at_least("floor", 1.3, 1.3);
        r.at_most("ceiling", 5.01, 5.0);
        assert!(r.gates[0].pass && !r.gates[1].pass);
        assert_eq!(r.gates[1].detail, "5.01, ceiling 5");
    }
}
