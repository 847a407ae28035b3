//! The backends the paper compares, named once for every driver, figure
//! bench and CLI: TinySTM write-back, TinySTM write-through and the TL2
//! baseline. All three are protocols of `tinystm::Runtime<P>`; this
//! enum only names them, so it needs no backend crate.

/// One of the paper's three backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// TinySTM, write-back.
    TinyWb,
    /// TinySTM, write-through.
    TinyWt,
    /// The TL2 baseline.
    Tl2,
}

impl Backend {
    /// All three, in figure order (the CI matrix).
    pub const ALL: [Backend; 3] = [Backend::TinyWb, Backend::TinyWt, Backend::Tl2];

    /// Series label used in the figures and reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::TinyWb => "tinystm-wb",
            Backend::TinyWt => "tinystm-wt",
            Backend::Tl2 => "tl2",
        }
    }

    /// Parse a CLI name: `wb` | `wt` | `tl2`, or a series label.
    pub fn parse(name: &str) -> Option<Backend> {
        match name {
            "wb" | "tinystm-wb" => Some(Backend::TinyWb),
            "wt" | "tinystm-wt" => Some(Backend::TinyWt),
            "tl2" => Some(Backend::Tl2),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_cli_names_and_labels() {
        for (short, b) in [("wb", Backend::TinyWb), ("wt", Backend::TinyWt)] {
            assert_eq!(Backend::parse(short), Some(b));
        }
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.label()), Some(b));
        }
        assert_eq!(Backend::parse("mutex"), None);
    }
}
