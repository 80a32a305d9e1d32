//! # dovado-hdl
//!
//! HDL interface extraction for the Dovado design-space-exploration
//! framework: hand-written lexers and recursive-descent parsers for the
//! *declaration* subset of VHDL-2008 and Verilog/SystemVerilog.
//!
//! The paper's parsing step (Section III-A1) extracts "module name,
//! parameters declaration, ports/signal interface declaration" — the inputs
//! needed by the boxing and script-generation steps. Both languages are
//! regular in their declaration sections, but "different standards present a
//! wide variety of declaration styles", so these parsers accept ANSI and
//! non-ANSI Verilog headers, all VHDL entity `end` spellings, shared
//! declarations, based literals, and symbolic width expressions.
//!
//! Beyond single buffers, the [`catalog`] module scales the front-end to
//! whole repositories: it identifies primary/secondary design units across a
//! source tree, orders files topologically by their dependency graph, and
//! infers the top-level module from the graph, and the [`cache`] module
//! memoizes parses by content so a tree read once per design point is
//! parsed once.
//!
//! ## Example
//!
//! ```
//! use dovado_hdl::{parse_source, Language};
//!
//! let src = "module blinker #(parameter DIV = 1000)(input wire clk, output reg led); endmodule";
//! let (file, diags) = parse_source(Language::Verilog, src).unwrap();
//! assert!(!diags.has_errors());
//! let m = file.module("blinker").unwrap();
//! assert_eq!(m.parameters[0].name, "DIV");
//! assert_eq!(m.clock_port().unwrap().name, "clk");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub mod catalog;
pub mod error;
pub mod lexer;
pub mod span;
pub mod verilog;
pub mod vhdl;

pub use ast::{
    clog2, BinOp, ConfigurationDecl, ContextClause, Direction, EvalError, Expr, Instantiation,
    Language, ModuleInterface, PackageDecl, Parameter, Port, Range, RangeDir, SourceFile, TypeSpec,
};
pub use cache::{CacheStats, ParseCache};
pub use catalog::{CatalogError, CatalogSource, CatalogedFile, DesignUnit, SourceCatalog};
pub use error::{Diagnostic, Diagnostics, ParseError, ParseResult, Severity};
pub use span::Span;

/// Parses a source buffer in the given language.
///
/// `Language::Verilog` and `Language::SystemVerilog` share a front-end (the
/// parser upgrades the reported language when SV-only constructs appear).
pub fn parse_source(language: Language, source: &str) -> ParseResult<(SourceFile, Diagnostics)> {
    match language {
        Language::Vhdl => vhdl::parse(source),
        Language::Verilog | Language::SystemVerilog => verilog::parse(source),
    }
}

/// Parses a source buffer, guessing the language from a file name.
///
/// Returns `None` if the extension is not recognized.
pub fn parse_named(
    file_name: &str,
    source: &str,
) -> Option<ParseResult<(SourceFile, Diagnostics)>> {
    let ext = file_name.rsplit('.').next()?;
    let lang = Language::from_extension(ext)?;
    Some(parse_source(lang, source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_vhdl() {
        let (f, _) = parse_source(Language::Vhdl, "entity e is end e;").unwrap();
        assert_eq!(f.modules[0].language, Language::Vhdl);
    }

    #[test]
    fn dispatches_verilog() {
        let (f, _) = parse_source(Language::Verilog, "module m(input wire c); endmodule").unwrap();
        assert_eq!(f.modules[0].language, Language::Verilog);
    }

    #[test]
    fn systemverilog_upgrade() {
        let (f, _) = parse_source(Language::Verilog, "module m(input logic c); endmodule").unwrap();
        assert_eq!(f.modules[0].language, Language::SystemVerilog);
    }

    #[test]
    fn parse_named_by_extension() {
        assert!(parse_named("core.vhd", "entity e is end e;")
            .unwrap()
            .is_ok());
        assert!(parse_named("core.sv", "module m; endmodule")
            .unwrap()
            .is_ok());
        assert!(parse_named("core.txt", "x").is_none());
        assert!(parse_named("noext", "x").is_none());
    }
}
