use std::fmt;

/// Errors produced while building, parsing or validating netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A name (net, gate, cell, port) was declared twice.
    DuplicateName {
        /// What kind of object collided ("net", "gate", "cell", ...).
        kind: &'static str,
        /// The colliding name.
        name: String,
    },
    /// A name was referenced but never declared.
    UnknownName {
        /// What kind of object was looked up.
        kind: &'static str,
        /// The unresolved name.
        name: String,
    },
    /// A gate instantiation does not match its cell's pin interface.
    PinMismatch {
        /// Instance name.
        gate: String,
        /// Cell type name.
        cell: String,
        /// Human-readable detail of the mismatch.
        detail: String,
    },
    /// A net has more than one driver.
    MultipleDrivers {
        /// The over-driven net.
        net: String,
        /// The second driver that caused the conflict.
        driver: String,
    },
    /// A net, gate or module name is empty or holds whitespace. Whitespace
    /// ends every Verilog identifier, an escaped one included, so no
    /// netlist text could spell the name.
    BadName {
        /// "net", "gate" or "module".
        kind: &'static str,
        /// The offending name.
        name: String,
    },
    /// A net that must be driven has no driver.
    Undriven {
        /// The floating net.
        net: String,
    },
    /// Truth-table construction was given inconsistent dimensions.
    BadTruthTable {
        /// Human-readable detail.
        detail: String,
    },
    /// A boolean expression failed to parse.
    ExprParse {
        /// Byte offset in the source expression.
        position: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// A netlist would hold more nets or gates than its 32-bit ids number.
    TooMany {
        /// "net" or "gate".
        kind: &'static str,
    },
    /// Structural Verilog failed to parse.
    VerilogParse {
        /// 1-based line number in the source text.
        line: usize,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            NetlistError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} `{name}`")
            }
            NetlistError::PinMismatch { gate, cell, detail } => {
                write!(f, "gate `{gate}` does not match cell `{cell}`: {detail}")
            }
            NetlistError::MultipleDrivers { net, driver } => {
                write!(f, "net `{net}` already driven, second driver `{driver}`")
            }
            NetlistError::BadName { kind, name } => {
                write!(f, "{kind} name `{name}` is empty or holds whitespace")
            }
            NetlistError::Undriven { net } => write!(f, "net `{net}` has no driver"),
            NetlistError::BadTruthTable { detail } => {
                write!(f, "invalid truth table: {detail}")
            }
            NetlistError::ExprParse { position, detail } => {
                write!(f, "expression parse error at byte {position}: {detail}")
            }
            NetlistError::TooMany { kind } => {
                write!(f, "more {kind}s than 32-bit ids can number")
            }
            NetlistError::VerilogParse { line, detail } => {
                write!(f, "verilog parse error on line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = NetlistError::DuplicateName {
            kind: "net",
            name: "n1".into(),
        };
        let s = e.to_string();
        assert!(s.contains("n1"));
        assert!(s.starts_with("duplicate"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
