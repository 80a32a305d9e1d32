//! The paper's four case studies (§IV), packaged as ready-to-run
//! definitions: embedded HDL interface sources in the right language,
//! the explored parameter space, the target device, and the metric set.
//!
//! | Case study | Language | Paper section |
//! |---|---|---|
//! | [`cv32e40p`] FIFO | SystemVerilog | IV-A (surrogate accuracy, Fig. 3) |
//! | [`corundum`] completion-queue manager | Verilog | IV-B (Fig. 4, Table I) |
//! | [`neorv32`] core | VHDL | IV-C (Fig. 5) |
//! | [`tirex`] regex architecture | VHDL | IV-D (Figs. 6–7, Table II) |

pub mod corundum;
pub mod cv32e40p;
pub mod neorv32;
pub mod tirex;

use crate::dse::Dovado;
use crate::error::DovadoResult;
use crate::flow::{EvalConfig, HdlSource};
use crate::metrics::MetricSet;
use crate::space::ParameterSpace;
use dovado_hdl::catalog::{CatalogSource, SourceCatalog};
use dovado_hdl::ParseCache;

/// A packaged case study.
///
/// Built from a cataloged source tree ([`CaseStudy::from_tree`]): the
/// compile order and the top module are *derived* from the unit-level
/// dependency graph, exactly like a user tree handed to `--project` —
/// the case studies are catalog instances, not hand-wired source lists.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Human-readable name.
    pub name: &'static str,
    /// HDL sources in catalog compile order.
    pub sources: Vec<HdlSource>,
    /// The module under exploration (graph-inferred from the tree).
    pub top: String,
    /// The explored space.
    pub space: ParameterSpace,
    /// Default target part.
    pub part: &'static str,
    /// Metrics the paper reports for it.
    pub metrics: MetricSet,
}

impl CaseStudy {
    /// Packages a source tree as a case study: catalogs the files,
    /// derives the compile order from the dependency graph, and infers
    /// the top module from it. Panics on a malformed tree — the embedded
    /// case-study sources are compile-time constants, so failure here is
    /// a programmer error, not user input.
    pub fn from_tree(
        name: &'static str,
        tree: Vec<CatalogSource>,
        space: ParameterSpace,
        part: &'static str,
        metrics: MetricSet,
    ) -> CaseStudy {
        let parses = ParseCache::new();
        let catalog = SourceCatalog::from_sources_in(tree, &parses)
            .unwrap_or_else(|e| panic!("case study {name}: {e}"));
        let top = catalog
            .infer_top()
            .unwrap_or_else(|e| panic!("case study {name}: {e}"));
        let sources = HdlSource::from_catalog(&catalog, &parses);
        CaseStudy {
            name,
            sources,
            top,
            space,
            part,
            metrics,
        }
    }

    /// Builds a [`Dovado`] instance targeting the default part.
    pub fn dovado(&self) -> DovadoResult<Dovado> {
        self.dovado_on(self.part)
    }

    /// Builds a [`Dovado`] instance targeting another part (TiReX runs on
    /// both the ZU3EG and the XC7K70T).
    pub fn dovado_on(&self, part: &str) -> DovadoResult<Dovado> {
        let config = EvalConfig {
            part: part.to_string(),
            ..EvalConfig::default()
        };
        self.dovado_with(config)
    }

    /// Builds a [`Dovado`] instance with a custom evaluation config.
    pub fn dovado_with(&self, config: EvalConfig) -> DovadoResult<Dovado> {
        Dovado::new(self.sources.clone(), &self.top, self.space.clone(), config)
    }
}

/// All case studies.
pub fn all() -> Vec<CaseStudy> {
    vec![
        cv32e40p::case_study(),
        corundum::case_study(),
        neorv32::case_study(),
        tirex::case_study(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_study_constructs() {
        for cs in all() {
            let d = cs.dovado().unwrap_or_else(|e| panic!("{}: {e}", cs.name));
            assert!(d.space().dim() >= 1, "{}", cs.name);
        }
    }

    #[test]
    fn languages_cover_the_paper_matrix() {
        use dovado_hdl::Language;
        let studies = all();
        let langs: Vec<Language> = studies.iter().map(|c| c.sources[0].language).collect();
        assert!(langs.contains(&Language::SystemVerilog));
        assert!(langs.contains(&Language::Verilog));
        assert!(langs.contains(&Language::Vhdl));
    }

    #[test]
    fn tops_are_graph_inferred_not_hand_wired() {
        let expected = [
            ("cv32e40p-fifo", "fifo_v3"),
            ("corundum-cpl-queue-manager", "cpl_queue_manager"),
            ("neorv32", "neorv32_top"),
            ("tirex", "tirex_top"),
        ];
        for (cs, (name, top)) in all().iter().zip(expected) {
            assert_eq!(cs.name, name);
            assert_eq!(cs.top, top, "{name}: catalog must infer the paper's top");
        }
    }

    #[test]
    fn default_parts_resolve() {
        let catalog = dovado_fpga::Catalog::builtin();
        for cs in all() {
            assert!(
                catalog.resolve(cs.part).is_some(),
                "{}: part {}",
                cs.name,
                cs.part
            );
        }
    }
}
